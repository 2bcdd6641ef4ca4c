"""Comparison estimators: normal-kernel density and parametric grouped MLE.

The kernel bandwidth follows the classic rule of thumb
h = 0.9 min(sd, IQR/1.34) n^(-1/5) rather than a plug-in selector; the
benchmark conclusions only use the resulting MISE ordering, which is
robust to the rule.

The parametric MLE maximizes the multinomial loglik of the cell counts
with cell probabilities renormalized over the truncation interval spanned
by the partition, so comparisons against estimators fitted on the same
truncated data are fair.  One damped Newton solver serves every family:
each family supplies the first and second derivatives of its CDF with
respect to its unconstrained coordinates, which give the exact gradient
and Hessian of the grouped loglik.  The module uses numpy only, apart
from scipy.special.ndtr in normal_family.
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
        if self.values.size == 0:
            raise ValueError("need at least 1 observation")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        flat = x.ravel()
        h = self.bandwidth
        out = np.empty(flat.size)
        # block the outer array so huge (grid x sample) pairs stay cheap; each
        # block is one array, worked in place: square, times -1/(2h^2), exp
        block = max(1, int(4_000_000 // self.values.size))
        for lo in range(0, flat.size, block):
            d = np.subtract.outer(flat[lo : lo + block], self.values)
            np.square(d, out=d)
            d *= -0.5 / (h * h)
            np.exp(d, out=d)
            d.sum(axis=1, out=out[lo : lo + block])
        out *= 1.0 / (self.values.size * h * _SQRT_2PI)
        return float(out[0]) if scalar else out.reshape(x.shape)


def kernel_density(data, bandwidth="rule"):
    """Kernel estimate for a RawSample; bandwidth="rule" applies the rule of thumb."""
    if data.n < 2:
        raise ValueError("need at least 2 observations")
    h = rule_of_thumb_bandwidth(data.values) if bandwidth == "rule" else float(bandwidth)
    return KernelDensity(data.values, h)


@dataclass(frozen=True)
class ParametricFamily:
    """One of the closed-form CDF families used for the grouped MLE.

    cdf/sf/pdf take (x, params) with params in natural units; sf = 1 - cdf
    is computed without cancellation, so cell masses in the upper tail
    stay accurate.  The optimizer works on unconstrained coordinates z via
    to_z/from_z (positive parameters are searched in log space).
    cdf_dz(x, params) returns the first and second derivatives of
    cdf(x, params) with respect to z, shaped (k, len(x)) and
    (k, k, len(x)) for k free parameters.
    """

    tag: str
    param_names: tuple
    cdf: callable
    sf: callable
    pdf: callable
    init: callable  # (mean, variance) -> natural params
    to_z: callable
    from_z: callable
    cdf_dz: callable

    @property
    def n_free(self):
        return len(self.param_names)


def _location_scale_dz(std_pdf):
    """cdf_dz of F0((x - mu)/s) in z = (mu, log s), from the standard law.

    std_pdf(u) returns the standard density f and its derivative f'.  With
    u = (x - mu)/s, du/dmu = -1/s and du/dlog s = -u, so
    dF = (-f/s, -u f) and d2F = [[f'/s^2, (f + u f')/s], [., u (f + u f')]].
    """

    def cdf_dz(x, prm):
        s = prm[1]
        u = (np.asarray(x, dtype=float) - prm[0]) / s
        f, df = std_pdf(u)
        cross = f + u * df
        d1 = np.stack([-f / s, -u * f])
        d2 = np.array([[df / (s * s), cross / s], [cross / s, u * cross]])
        return d1, d2

    return cdf_dz


def beta_one_family():
    """beta(alpha, 1) on [0, 1]: F(t) = t^alpha, density 0 off [0, 1]."""

    def sf(x, prm):
        t = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return np.where(t > 0.0, -np.expm1(prm[0] * np.log(np.where(t > 0.0, t, 1.0))), 1.0)

    def cdf_dz(x, prm):
        # z = log alpha: dF = alpha log(t) F, d2F = dF (1 + alpha log t); both 0 at t = 0
        t = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        alpha_log_t = prm[0] * np.log(np.where(t > 0.0, t, 1.0))
        d1 = alpha_log_t * t ** prm[0]
        return d1[None], (d1 * (1.0 + alpha_log_t))[None, None]

    return ParametricFamily(
        tag="beta_one",
        param_names=("alpha",),
        cdf=lambda x, prm: np.clip(x, 0.0, 1.0) ** prm[0],
        sf=sf,
        pdf=lambda x, prm: np.where(
            np.clip(x, 0.0, 1.0) == x, prm[0] * np.clip(x, 0.0, 1.0) ** (prm[0] - 1.0), 0.0
        ),
        init=lambda mu, var: np.array([np.clip(mu / max(1.0 - mu, 1e-6), 1e-3, 1e3)]),
        to_z=np.log,
        from_z=np.exp,
        cdf_dz=cdf_dz,
    )


def exponential_family():
    """Exponential with mean theta: F(t) = 1 - exp(-t/theta), density 0 below 0."""

    def cdf_dz(x, prm):
        # z = log theta, r = t/theta: dF = -r e^-r, d2F = r e^-r (1 - r)
        r = np.maximum(np.asarray(x, dtype=float), 0.0) / prm[0]
        d1 = -r * np.exp(-r)
        return d1[None], (d1 * (r - 1.0))[None, None]

    return ParametricFamily(
        tag="exponential",
        param_names=("theta",),
        cdf=lambda x, prm: -np.expm1(-np.maximum(x, 0.0) / prm[0]),
        sf=lambda x, prm: np.exp(-np.maximum(x, 0.0) / prm[0]),
        pdf=lambda x, prm: np.where(
            np.greater_equal(x, 0.0), np.exp(-np.maximum(x, 0.0) / prm[0]) / prm[0], 0.0
        ),
        init=lambda mu, var: np.array([max(mu, 1e-6)]),
        to_z=np.log,
        from_z=np.exp,
        cdf_dz=cdf_dz,
    )


def pareto_family(scale=0.5):
    """Pareto, free shape alpha, known scale x0: F(t) = 1 - (x0/t)^alpha, density 0 below x0."""

    def cdf(x, prm):
        x = np.maximum(np.asarray(x, dtype=float), scale)
        return 1.0 - (scale / x) ** prm[0]

    def sf(x, prm):
        return (scale / np.maximum(np.asarray(x, dtype=float), scale)) ** prm[0]

    def pdf(x, prm):
        x = np.asarray(x, dtype=float)
        tail = prm[0] * scale ** prm[0] / np.maximum(x, scale) ** (prm[0] + 1.0)
        return np.where(x >= scale, tail, 0.0)

    def init(mu, var):
        alpha = mu / (mu - scale) if mu > scale * (1.0 + 1e-9) else 2.0
        return np.array([np.clip(alpha, 1e-3, 1e3)])

    def cdf_dz(x, prm):
        # z = log alpha, y = log(t/x0), S = 1 - F: dF = alpha y S, d2F = dF (1 - alpha y)
        alpha_y = prm[0] * np.log(np.maximum(np.asarray(x, dtype=float), scale) / scale)
        d1 = alpha_y * np.exp(-alpha_y)
        return d1[None], (d1 * (1.0 - alpha_y))[None, None]

    return ParametricFamily(
        tag="pareto",
        param_names=("alpha",),
        cdf=cdf,
        sf=sf,
        pdf=pdf,
        init=init,
        to_z=np.log,
        from_z=np.exp,
        cdf_dz=cdf_dz,
    )


def _std_normal_pdf(u):
    f = np.exp(-0.5 * u * u) / _SQRT_2PI
    return f, -u * f


def normal_family():
    """N(mu, sigma^2), both parameters free."""
    from scipy.special import ndtr

    return ParametricFamily(
        tag="normal",
        param_names=("mu", "sigma"),
        cdf=lambda x, prm: ndtr((np.asarray(x, dtype=float) - prm[0]) / prm[1]),
        sf=lambda x, prm: ndtr((prm[0] - np.asarray(x, dtype=float)) / prm[1]),
        pdf=lambda x, prm: np.exp(-0.5 * ((np.asarray(x, dtype=float) - prm[0]) / prm[1]) ** 2)
        / (prm[1] * _SQRT_2PI),
        init=lambda mu, var: np.array([mu, math.sqrt(max(var, 1e-12))]),
        to_z=lambda prm: np.array([prm[0], np.log(prm[1])]),
        from_z=lambda z: np.array([z[0], np.exp(z[1])]),
        cdf_dz=_location_scale_dz(_std_normal_pdf),
    )


def _std_logistic_pdf(u):
    e = np.exp(-np.abs(u))
    f = e / (1.0 + e) ** 2
    cdf = np.where(u >= 0.0, 1.0, e) / (1.0 + e)
    return f, f * (1.0 - 2.0 * cdf)


def logistic_family():
    """Logistic with location mu and scale s: F(t) = 1/(1 + exp(-(t-mu)/s))."""

    def std_cdf(u):
        # exp(-u) overflows to inf far below the location, where F is 0
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-u))

    def cdf(x, prm):
        return std_cdf((np.asarray(x, dtype=float) - prm[0]) / prm[1])

    def sf(x, prm):
        return std_cdf((prm[0] - np.asarray(x, dtype=float)) / prm[1])

    def pdf(x, prm):
        z = np.abs(np.asarray(x, dtype=float) - prm[0]) / prm[1]
        e = np.exp(-z)
        return e / (prm[1] * (1.0 + e) ** 2)

    return ParametricFamily(
        tag="logistic",
        param_names=("mu", "s"),
        cdf=cdf,
        sf=sf,
        pdf=pdf,
        init=lambda mu, var: np.array([mu, math.sqrt(max(var, 1e-12) * 3.0) / math.pi]),
        to_z=lambda prm: np.array([prm[0], np.log(prm[1])]),
        from_z=lambda z: np.array([z[0], np.exp(z[1])]),
        cdf_dz=_location_scale_dz(_std_logistic_pdf),
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


_Z_HALF_WIDTH = 20.0
_MAX_STEPS = 100
_MAX_HALVINGS = 60
_ARMIJO = 1e-4
# stop once the Newton decrement g'(-H)^-1 g, about twice the loglik still to
# gain, is this share of |loglik| (below it the gain is lost in rounding) and
# the Newton step is this short.  The last step is taken without a line
# search, which only a short step allows; a loglik that flattens out towards
# a parameter at infinity has a small decrement but long steps
_DECREMENT_STOP = 1e-15
_STEP_STOP = 1e-6


def parametric_mle_grouped(family, grouped):
    """Grouped-data MLE of the family's free parameters.

    Maximizes l(z) = sum_i n_i log{(F(t_i) - F(t_{i-1})) / (F(b) - F(a))},
    where [a, b] is the span of the partition, over the family's
    unconstrained coordinates z, from the moment start z0 and within
    |z - z0| <= _Z_HALF_WIDTH.  One damped Newton solver serves one and
    two free parameters: the exact gradient and Hessian of l come from
    family.cdf_dz at the breakpoints, each step backtracks until l rises
    enough (Armijo), and where -H is not positive definite the step
    follows the gradient instead.  A coordinate on a face of the box
    whose gradient points out of it is held there.  converged means the
    Newton decrement reached the stop with a short Newton step;
    boundary_pinned means the search ended on the box.  Optimizer trouble
    is flagged, not raised.
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
    c = counts[pos]

    def masses(prm):
        """Masses of the populated cells and of the span.

        A cell whose left end has F > 1/2 is measured by sf, so masses in
        the upper tail do not cancel to 0.
        """
        f_vals, s_vals = family.cdf(bp, prm), family.sf(bp, prm)
        upper = f_vals[:-1] > 0.5
        cells = np.where(upper, s_vals[:-1] - s_vals[1:], np.diff(f_vals))[pos]
        mass = s_vals[0] - s_vals[-1] if upper[0] else f_vals[-1] - f_vals[0]
        return cells, mass

    def loglik(z):
        """l(z), -inf where the span or a populated cell has no mass."""
        cells, mass = masses(family.from_z(z))
        if not (np.isfinite(mass) and mass > 0.0):
            return -np.inf
        q = cells / mass
        if not np.all(q > 0.0):
            return -np.inf
        val = float(c @ np.log(q))
        return val if np.isfinite(val) else -np.inf

    def gradient_hessian(z):
        prm = family.from_z(z)
        cells, mass = masses(prm)
        d1, d2 = family.cdf_dz(bp, prm)
        g_cell = np.diff(d1)[:, pos] / cells
        h_cell = np.diff(d2)[:, :, pos] / cells
        g_mass = (d1[:, -1] - d1[:, 0]) / mass
        h_mass = (d2[:, :, -1] - d2[:, :, 0]) / mass
        grad = g_cell @ c - n * g_mass
        hess = h_cell @ c - (g_cell * c) @ g_cell.T - n * (h_mass - np.outer(g_mass, g_mass))
        return grad, hess

    z0 = np.asarray(family.to_z(family.init(mu, var)), dtype=float)
    lo, hi = z0 - _Z_HALF_WIDTH, z0 + _Z_HALF_WIDTH
    z, ll = z0, loglik(z0)
    converged = False
    for _ in range(_MAX_STEPS if np.isfinite(ll) else 0):
        grad, hess = gradient_hessian(z)
        free = ~(((z <= lo) & (grad < 0.0)) | ((z >= hi) & (grad > 0.0)))
        g, h = grad[free], hess[free][:, free]
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            break
        if not free.any():
            converged = True
            break
        try:
            np.linalg.cholesky(-h)
            step = np.linalg.solve(-h, g)
            slope = float(g @ step)
            short = float(np.max(np.abs(step))) <= _STEP_STOP
            converged = short and slope <= _DECREMENT_STOP * max(1.0, abs(ll))
        except np.linalg.LinAlgError:
            # -H is not positive definite: a unit step up the gradient
            slope = float(np.linalg.norm(g))
            if slope == 0.0:
                break
            step = g / slope
        full = np.zeros_like(z)
        full[free] = step
        if converged:
            # the last Newton step is taken whole: its gain is below the
            # rounding of l, so it only has to keep l within that rounding
            z_try = np.clip(z + full, lo, hi)
            ll_try = loglik(z_try)
            if ll_try >= ll - _DECREMENT_STOP * max(1.0, abs(ll)):
                z, ll = z_try, ll_try
            break
        # the longest step, at most 1, that stays in the box
        moving = full != 0.0
        room = np.where(full > 0.0, hi - z, lo - z)
        t = float(np.min(room[moving] / full[moving], initial=1.0))
        for _ in range(_MAX_HALVINGS if t > 0.0 else 0):
            z_try = np.clip(z + t * full, lo, hi)
            ll_try = loglik(z_try)
            if ll_try - ll >= _ARMIJO * t * slope:
                z, ll = z_try, ll_try
                break
            t *= 0.5
        else:
            break
    return ParametricFit(
        family=family,
        params=np.asarray(family.from_z(z), dtype=float),
        loglik=ll,
        converged=converged,
        boundary_pinned=bool(np.any((z <= lo) | (z >= hi))),
        support=(float(bp[0]), float(bp[-1])),
    )
