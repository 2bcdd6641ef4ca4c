"""Comparison estimators: normal-kernel density and parametric grouped MLE.

The kernel bandwidth follows the classic rule of thumb
h = 0.9 min(sd, IQR/1.34) n^(-1/5) rather than a plug-in selector; the
benchmark conclusions only use the resulting MISE ordering, which is
robust to the rule.

The parametric MLE maximizes the multinomial loglik of the cell counts
with cell probabilities renormalized over the truncation interval spanned
by the partition, so comparisons against estimators fitted on the same
truncated data are fair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError

__all__ = [
    "rule_of_thumb_bandwidth",
    "KernelDensity",
    "kernel_density",
    "ParametricFamily",
    "ParametricFit",
    "parametric_mle_grouped",
    "beta_one_family",
    "exponential_family",
    "pareto_family",
    "normal_family",
    "logistic_family",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def rule_of_thumb_bandwidth(values):
    """h = 0.9 min(sd, IQR/1.34) n^(-1/5); sd alone when the IQR collapses."""
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise DegenerateDataError("zero-variance data: no usable bandwidth")
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * x.size ** (-0.2)


class KernelDensity:
    """Normal-kernel density estimate, callable at arbitrary points."""

    def __init__(self, values, bandwidth):
        self.values = np.asarray(values, dtype=float)
        self.bandwidth = float(bandwidth)
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty(x.size)
        h = self.bandwidth
        # block the outer product so huge (grid x sample) pairs stay cheap
        block = max(1, int(4_000_000 // max(self.values.size, 1)))
        for lo in range(0, x.size, block):
            z = (x[lo : lo + block, None] - self.values[None, :]) / h
            out[lo : lo + block] = np.exp(-0.5 * z * z).mean(axis=1) / (h * _SQRT_2PI)
        return float(out[0]) if scalar else out


def kernel_density(data, bandwidth="rule"):
    """Kernel estimate for a RawSample; bandwidth="rule" applies the rule of thumb."""
    if data.n < 2:
        raise ValueError("need at least 2 observations")
    h = rule_of_thumb_bandwidth(data.values) if bandwidth == "rule" else float(bandwidth)
    return KernelDensity(data.values, h)


@dataclass(frozen=True)
class ParametricFamily:
    """One of the closed-form CDF families used for the grouped MLE.

    cdf/pdf take (x, params) with params in natural units; the optimizer
    works on unconstrained coordinates via to_z/from_z (positive
    parameters are searched in log space).
    """

    tag: str
    param_names: tuple
    cdf: callable
    pdf: callable
    init: callable  # (mean, variance) -> natural params
    to_z: callable
    from_z: callable

    @property
    def n_free(self):
        return len(self.param_names)


def beta_one_family():
    """beta(alpha, 1) on [0, 1]: F(t) = t^alpha, density 0 off [0, 1]."""
    return ParametricFamily(
        tag="beta_one",
        param_names=("alpha",),
        cdf=lambda x, prm: np.clip(x, 0.0, 1.0) ** prm[0],
        pdf=lambda x, prm: np.where(
            np.clip(x, 0.0, 1.0) == x, prm[0] * np.clip(x, 0.0, 1.0) ** (prm[0] - 1.0), 0.0
        ),
        init=lambda mu, var: np.array([np.clip(mu / max(1.0 - mu, 1e-6), 1e-3, 1e3)]),
        to_z=np.log,
        from_z=np.exp,
    )


def exponential_family():
    """Exponential with mean theta: F(t) = 1 - exp(-t/theta), density 0 below 0."""
    return ParametricFamily(
        tag="exponential",
        param_names=("theta",),
        cdf=lambda x, prm: -np.expm1(-np.maximum(x, 0.0) / prm[0]),
        pdf=lambda x, prm: np.where(
            np.greater_equal(x, 0.0), np.exp(-np.maximum(x, 0.0) / prm[0]) / prm[0], 0.0
        ),
        init=lambda mu, var: np.array([max(mu, 1e-6)]),
        to_z=np.log,
        from_z=np.exp,
    )


def pareto_family(scale=0.5):
    """Pareto, free shape alpha, known scale x0: F(t) = 1 - (x0/t)^alpha, density 0 below x0."""

    def cdf(x, prm):
        x = np.maximum(np.asarray(x, dtype=float), scale)
        return 1.0 - (scale / x) ** prm[0]

    def pdf(x, prm):
        x = np.asarray(x, dtype=float)
        tail = prm[0] * scale ** prm[0] / np.maximum(x, scale) ** (prm[0] + 1.0)
        return np.where(x >= scale, tail, 0.0)

    def init(mu, var):
        alpha = mu / (mu - scale) if mu > scale * (1.0 + 1e-9) else 2.0
        return np.array([np.clip(alpha, 1e-3, 1e3)])

    return ParametricFamily(
        tag="pareto",
        param_names=("alpha",),
        cdf=cdf,
        pdf=pdf,
        init=init,
        to_z=np.log,
        from_z=np.exp,
    )


def normal_family():
    """N(mu, sigma^2), both parameters free."""
    from scipy.special import ndtr

    return ParametricFamily(
        tag="normal",
        param_names=("mu", "sigma"),
        cdf=lambda x, prm: ndtr((np.asarray(x, dtype=float) - prm[0]) / prm[1]),
        pdf=lambda x, prm: np.exp(-0.5 * ((np.asarray(x, dtype=float) - prm[0]) / prm[1]) ** 2)
        / (prm[1] * _SQRT_2PI),
        init=lambda mu, var: np.array([mu, math.sqrt(max(var, 1e-12))]),
        to_z=lambda prm: np.array([prm[0], np.log(prm[1])]),
        from_z=lambda z: np.array([z[0], np.exp(z[1])]),
    )


def logistic_family():
    """Logistic with location mu and scale s: F(t) = 1/(1 + exp(-(t-mu)/s))."""

    def cdf(x, prm):
        z = (np.asarray(x, dtype=float) - prm[0]) / prm[1]
        return 1.0 / (1.0 + np.exp(-z))

    def pdf(x, prm):
        z = np.abs(np.asarray(x, dtype=float) - prm[0]) / prm[1]
        e = np.exp(-z)
        return e / (prm[1] * (1.0 + e) ** 2)

    return ParametricFamily(
        tag="logistic",
        param_names=("mu", "s"),
        cdf=cdf,
        pdf=pdf,
        init=lambda mu, var: np.array([mu, math.sqrt(max(var, 1e-12) * 3.0) / math.pi]),
        to_z=lambda prm: np.array([prm[0], np.log(prm[1])]),
        from_z=lambda z: np.array([z[0], np.exp(z[1])]),
    )


@dataclass(frozen=True)
class ParametricFit:
    """Fitted free parameters plus bookkeeping flags."""

    family: ParametricFamily
    params: np.ndarray
    loglik: float
    converged: bool
    boundary_pinned: bool
    support: tuple

    def pdf(self, x):
        """Truncated-and-renormalized density over the fit's support, 0 off it."""
        a, b = self.support
        x = np.asarray(x, dtype=float)
        mass = float(self.family.cdf(b, self.params) - self.family.cdf(a, self.params))
        return np.where((x >= a) & (x <= b), self.family.pdf(x, self.params), 0.0) / mass

    def cdf(self, x):
        """Truncated CDF: 0 below the fit's support, 1 above it."""
        a, b = self.support
        x = np.asarray(x, dtype=float)
        fa = float(self.family.cdf(a, self.params))
        mass = float(self.family.cdf(b, self.params)) - fa
        return np.where(x < a, 0.0, np.where(x > b, 1.0, (self.family.cdf(x, self.params) - fa) / mass))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fun, lo, hi, tol=1e-10, max_iter=500):
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    iters = 0
    while hi - lo > tol and iters < max_iter:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fun(x2)
        iters += 1
    x = x1 if f1 <= f2 else x2
    return x, fun(x), iters < max_iter


_BIG = 1e300
_Z_HALF_WIDTH = 20.0


def parametric_mle_grouped(family, grouped):
    """Grouped-data MLE of the family's free parameters.

    Maximizes sum_i n_i log{(F(t_i) - F(t_{i-1})) / (F(b) - F(a))} where
    [a, b] is the span of the partition.  One free parameter goes through
    golden-section search on the unconstrained coordinate, two through
    Nelder-Mead.  Optimizer trouble is flagged, not raised.
    """
    bp = grouped.breakpoints
    counts = grouped.counts.astype(float)
    n = counts.sum()
    if n < 1:
        raise ValueError("need a positive total count")
    mid = 0.5 * (bp[:-1] + bp[1:])
    mu = float(counts @ mid) / n
    var = float(counts @ (mid - mu) ** 2) / max(n - 1.0, 1.0)
    pos = counts > 0

    def nll_z(z):
        prm = family.from_z(np.asarray(z, dtype=float).reshape(-1))
        f_vals = family.cdf(bp, prm)
        mass = f_vals[-1] - f_vals[0]
        if not np.isfinite(mass) or mass <= 0.0:
            return _BIG
        q = np.diff(f_vals) / mass
        if np.any(q[pos] <= 0.0):
            return _BIG
        val = -float(counts[pos] @ np.log(q[pos]))
        return val if np.isfinite(val) else _BIG

    z0 = family.to_z(family.init(mu, var))
    if family.n_free == 1:
        lo, hi = float(z0[0]) - _Z_HALF_WIDTH, float(z0[0]) + _Z_HALF_WIDTH
        z_best, f_best, converged = _golden_min(lambda z: nll_z([z]), lo, hi)
        pinned = min(z_best - lo, hi - z_best) < 1e-6 * (hi - lo)
        z_best = np.array([z_best])
    else:
        from scipy.optimize import minimize

        res = minimize(nll_z, z0, method="Nelder-Mead", options={"maxiter": 2000, "xatol": 1e-10, "fatol": 1e-12})
        z_best, f_best, converged = res.x, float(res.fun), bool(res.success)
        pinned = bool(np.any(np.abs(z_best - z0) > _Z_HALF_WIDTH))
    params = family.from_z(z_best)
    return ParametricFit(
        family=family,
        params=np.asarray(params, dtype=float),
        loglik=-f_best,
        converged=converged,
        boundary_pinned=pinned,
        support=(float(bp[0]), float(bp[-1])),
    )
