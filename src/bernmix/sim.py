"""Monte Carlo harness for the density-estimator comparisons.

Provides seeded generators for the six benchmark distributions, support
truncation and rescaling to [0, 1], equal-width grouping, MISE estimation
over replicates, and the acceptance-rejection closeness diagnostic
(envelope constant c_m and the fraction of true-density draws acceptable
as mixture draws).

Determinism contract: replicate r of a run with seed s uses the generator
seeded by (s, r), and replicate results are reduced in replicate order,
so outputs are bit-reproducible.
"""

import functools
import math
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from . import baselines
from .basis import basis_matrix
from .em import _fit
from .errors import HarnessError, SelectionError
from .likelihood import RawSample, _problems
from .model import GroupedSample, _checked_support
from .select import select_degree

__all__ = [
    "ScenarioSpec",
    "MiseReport",
    "scenario_distribution",
    "generate",
    "group",
    "mise",
    "integrated_squared_error",
    "acceptance_rejection_diag",
    "SCENARIO_TAGS",
]

PARETO_SHAPE = 4.0
PARETO_SCALE = 0.5
# scale mu + 4 sigma from the Pareto(4, 0.5) moments, kept at full precision
PARETO_TRUNCATION = (
    PARETO_SCALE,
    PARETO_SHAPE * PARETO_SCALE / (PARETO_SHAPE - 1.0) + 4.0 / math.sqrt(18.0),
)
LOGISTIC_SCALE = 0.5
LOGISTIC_TRUNCATION = (-2.9619, 2.9619)
NORMAL_TRUNCATION = (-4.0, 4.0)
EXP_TRUNCATION = (0.0, 4.0)

SCENARIO_TAGS = ("uniform01", "exp1", "pareto", "nn2", "nn3", "nn4", "normal01", "logistic")

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# weighted-ISE weight 1/f is floored here: the nearly-normal densities
# vanish at the support endpoints and would otherwise blow up the integrand
WEIGHT_FLOOR = 1e-12

MAX_FAILURE_SHARE = 0.05


def _irwin_hall_cdf(s, k):
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    for j in range(k + 1):
        d = s - j
        out += (-1.0) ** j * comb(k, j) * np.where(d > 0.0, d, 0.0) ** k
    return np.clip(out / factorial(k), 0.0, 1.0)


def _irwin_hall_pdf(s, k):
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    for j in range(k + 1):
        d = s - j
        out += (-1.0) ** j * comb(k, j) * np.where(d > 0.0, d, 0.0) ** (k - 1)
    return np.clip(out / factorial(k - 1), 0.0, None)


def _box_muller(rng, size):
    half = (size + 1) // 2
    u1 = 1.0 - rng.uniform(size=half)  # keep log() away from 0
    u2 = rng.uniform(size=half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)])
    return z[:size]


@dataclass(frozen=True)
class ScenarioDistribution:
    """True density, CDF, raw sampler, truncation, and parametric pairing."""

    tag: str
    pdf: callable
    cdf: callable
    draw: callable  # (rng, size) -> untruncated draws
    truncation: tuple
    parametric_family: callable  # () -> ParametricFamily


def scenario_distribution(tag):
    """Look up one of the benchmark distributions by tag.

    Tags: uniform01, exp1, pareto, nn<k> (e.g. nn4), normal01, logistic.
    """
    if tag == "uniform01":
        return ScenarioDistribution(
            tag,
            pdf=lambda x: np.where((np.asarray(x, float) >= 0) & (np.asarray(x, float) <= 1), 1.0, 0.0),
            cdf=lambda x: np.clip(np.asarray(x, float), 0.0, 1.0),
            draw=lambda rng, size: rng.uniform(size=size),
            truncation=(0.0, 1.0),
            parametric_family=baselines.beta_one_family,
        )
    if tag == "exp1":
        return ScenarioDistribution(
            tag,
            pdf=lambda x: np.where(np.asarray(x, float) >= 0, np.exp(-np.maximum(np.asarray(x, float), 0.0)), 0.0),
            cdf=lambda x: -np.expm1(-np.maximum(np.asarray(x, float), 0.0)),
            draw=lambda rng, size: -np.log(1.0 - rng.uniform(size=size)),
            truncation=EXP_TRUNCATION,
            parametric_family=baselines.exponential_family,
        )
    if tag == "pareto":
        a, x0 = PARETO_SHAPE, PARETO_SCALE

        def pareto_pdf(x):
            x = np.maximum(np.asarray(x, float), x0)
            return a * x0**a / x ** (a + 1.0)

        return ScenarioDistribution(
            tag,
            pdf=pareto_pdf,
            cdf=lambda x: 1.0 - (x0 / np.maximum(np.asarray(x, float), x0)) ** a,
            draw=lambda rng, size: x0 * (1.0 - rng.uniform(size=size)) ** (-1.0 / a),
            truncation=PARETO_TRUNCATION,
            parametric_family=lambda: baselines.pareto_family(x0),
        )
    if tag.startswith("nn"):
        k = int(tag[2:])
        if k < 1:
            raise ValueError(f"unknown scenario tag {tag!r}")
        return ScenarioDistribution(
            tag,
            pdf=lambda x, k=k: k * _irwin_hall_pdf(k * np.asarray(x, float), k),
            cdf=lambda x, k=k: _irwin_hall_cdf(k * np.asarray(x, float), k),
            draw=lambda rng, size, k=k: rng.uniform(size=(size, k)).mean(axis=1),
            truncation=(0.0, 1.0),
            parametric_family=baselines.normal_family,
        )
    if tag == "normal01":
        from scipy.special import ndtr

        return ScenarioDistribution(
            tag,
            pdf=lambda x: np.exp(-0.5 * np.asarray(x, float) ** 2) / _SQRT_2PI,
            cdf=lambda x: ndtr(np.asarray(x, float)),
            draw=_box_muller,
            truncation=NORMAL_TRUNCATION,
            parametric_family=baselines.normal_family,
        )
    if tag == "logistic":
        s = LOGISTIC_SCALE

        def logistic_pdf(x):
            z = np.abs(np.asarray(x, float)) / s
            e = np.exp(-z)
            return e / (s * (1.0 + e) ** 2)

        def logistic_draw(rng, size):
            u = rng.uniform(size=size)
            with np.errstate(divide="ignore"):
                return s * (np.log(u) - np.log1p(-u))

        return ScenarioDistribution(
            tag,
            pdf=logistic_pdf,
            cdf=lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x, float) / s)),
            draw=logistic_draw,
            truncation=LOGISTIC_TRUNCATION,
            parametric_family=baselines.logistic_family,
        )
    raise ValueError(f"unknown scenario tag {tag!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark configuration.

    truncation=None means the scenario's default interval; degrees=None
    lets the degree scan use its data-driven default set.
    """

    distribution: str
    n: int
    n_cells: int
    replicates: int = 100
    seed: int = 0
    truncation: tuple | None = None
    degrees: tuple | None = None

    def resolved_truncation(self):
        if self.truncation is not None:
            return _checked_support(self.truncation, "truncation")
        return scenario_distribution(self.distribution).truncation


@dataclass(frozen=True)
class MiseReport:
    """MISE of one estimator on one scenario, averaged over replicates."""

    estimator: str
    mise: float
    weighted_mise: float
    degree_mean: float | None
    degree_var: float | None
    replicates_used: int
    failures: int


def generate(spec, replicate):
    """Replicate's raw sample: truncated draws rescaled to [0, 1].

    Truncation is by rejection and redraw, which leaves the conditional
    law exact; the generator is seeded by (spec.seed, replicate).
    """
    dist = scenario_distribution(spec.distribution)
    a, b = spec.resolved_truncation()
    rng = np.random.default_rng([spec.seed, replicate])
    kept = []
    need = int(spec.n)
    while need > 0:
        batch = dist.draw(rng, max(2 * need, 64))
        good = batch[(batch >= a) & (batch <= b)]
        kept.append(good[:need])
        need -= min(need, good.size)
    x = np.concatenate(kept) if kept else np.empty(0)
    return RawSample((x - a) / (b - a), (0.0, 1.0))


def group(data, n_cells):
    """Equal-width grouping of a raw sample over its support.

    Cells are half-open on the left, (t_{i-1}, t_i], with the first cell
    closed at the lower endpoint.
    """
    if n_cells < 1:
        raise ValueError("need at least one cell")
    a, b = data.support
    bp = np.linspace(a, b, n_cells + 1)
    idx = np.searchsorted(bp, data.values, side="left") - 1
    idx = np.clip(idx, 0, n_cells - 1)
    counts = np.bincount(idx, minlength=n_cells)
    return GroupedSample(bp, counts)


def true_unit_pdf(spec):
    """Density of the truncated scenario law rescaled to the unit interval."""
    dist = scenario_distribution(spec.distribution)
    a, b = spec.resolved_truncation()
    mass = float(dist.cdf(b) - dist.cdf(a))
    width = b - a

    def pdf(u):
        return dist.pdf(a + np.asarray(u, float) * width) * width / mass

    return pdf


def integrated_squared_error(fhat_vals, f_vals, grid, weighted=False):
    """Composite-Simpson ISE of a fitted curve against the truth on a grid."""
    from scipy.integrate import simpson

    diff2 = (np.asarray(fhat_vals, float) - f_vals) ** 2
    if weighted:
        diff2 = diff2 / np.maximum(f_vals, WEIGHT_FLOOR)
    return float(simpson(diff2, x=grid))


_ESTIMATORS = ("mble", "kernel", "parametric", "truth")


def _fit_curve(kind, spec, data, grid):
    """Fitted density values on the unit grid; returns (values, degree).

    kind is one of _ESTIMATORS, checked by mise before any replicate runs.
    """
    a, b = spec.resolved_truncation()
    if kind == "mble":
        grouped = group(data, spec.n_cells)
        trace = select_degree(grouped, (0.0, 1.0), degrees=spec.degrees)
        weights = trace.best_fit.weights
        return basis_matrix(weights.m, grid) @ weights.p, trace.m_hat
    if kind == "kernel":
        return baselines.kernel_density(data, "rule")(grid), None
    if kind == "parametric":
        grouped = group(data, spec.n_cells)
        bp_orig = a + grouped.breakpoints * (b - a)
        fit = baselines.parametric_mle_grouped(
            scenario_distribution(spec.distribution).parametric_family(),
            GroupedSample(bp_orig, grouped.counts),
        )
        return fit.pdf(a + grid * (b - a)) * (b - a), None
    return true_unit_pdf(spec)(grid), None


def mise(spec, estimator, points=2001):
    """Monte Carlo MISE of one estimator under one scenario.

    Each replicate is generated, fitted, and scored by the Simpson ISE of
    the fitted curve against the true truncated-rescaled density; the
    quadrature runs on the unit scale and the plain MISE is then reported
    in original-scale units (divide by the truncation width) so values
    are comparable across truncations.  The weighted MISE (weight 1/f) is
    scale-invariant and needs no conversion.  Replicate fit failures
    (ValueError, SelectionError, FloatingPointError) are skipped and
    counted; more than 5% of them aborts the run.  Any other exception
    propagates.
    """
    if estimator not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    grid = np.linspace(0.0, 1.0, points)
    f_true = true_unit_pdf(spec)(grid)
    a, b = spec.resolved_truncation()
    width = b - a

    def one(rep):
        data = generate(spec, rep)
        fhat, degree = _fit_curve(estimator, spec, data, grid)
        return (
            integrated_squared_error(fhat, f_true, grid) / width,
            integrated_squared_error(fhat, f_true, grid, weighted=True),
            degree,
        )

    ok = []
    for rep in range(spec.replicates):
        try:
            ok.append(one(rep))
        except (ValueError, SelectionError, FloatingPointError):
            pass
    failures = spec.replicates - len(ok)
    if failures > MAX_FAILURE_SHARE * spec.replicates:
        raise HarnessError(
            f"{failures}/{spec.replicates} replicate fits failed for "
            f"{spec.distribution}/{estimator}"
        )
    ises = np.array([r[0] for r in ok])
    wises = np.array([r[1] for r in ok])
    degrees = np.array([r[2] for r in ok if r[2] is not None], dtype=float)
    degree_mean = float(degrees.mean()) if degrees.size else None
    degree_var = float(degrees.var(ddof=1)) if degrees.size > 1 else None
    return MiseReport(
        estimator=estimator,
        mise=float(ises.mean()),
        weighted_mise=float(wises.mean()),
        degree_mean=degree_mean,
        degree_var=degree_var,
        replicates_used=len(ok),
        failures=failures,
    )


@functools.lru_cache(maxsize=8)
def _unit_gauss_legendre(nodes):
    """Gauss-Legendre nodes on [0, 1] and their half-weights, read-only.

    Building the rule is an eigenvalue problem of size nodes; the degree
    ladder of the acceptance-rejection diagnostic reuses one rule.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(nodes)
    t = 0.5 * (x + 1.0)
    half = 0.5 * w
    t.flags.writeable = False
    half.flags.writeable = False
    return t, half


def best_mixture_approximation(pdf, m, nodes=512):
    """Weights of the degree-m mixture closest to a known density.

    Computes the KL projection of pdf onto the degree-m model: the
    Gauss-Legendre atoms of the truth, weighted by their quadrature
    masses, take the place of observations, and the certified solver of
    the degree scan (active-set SQP, em._sqp_weighted) maximises their
    loglik from uniform weights.  Its line search keeps every atom's
    mixture mass above a fixed share of its current value, so cold fits
    of high degree converge; the result is deterministic and sits within
    em.GAP_TOL nats of the optimum.  Used by the acceptance-rejection
    diagnostic, where the envelope constant of the best approximation is
    the quantity of interest.  Raises ValueError when the solver stops
    at its step cap without that certificate.
    """
    t, half = _unit_gauss_legendre(nodes)
    mass = half * np.asarray(pdf(t), dtype=float)
    if np.any(mass < 0.0):
        raise ValueError("pdf must be nonnegative on [0, 1]")
    fit = _fit(_problems((t, mass), None, m))
    if not fit.converged:
        raise ValueError(
            f"population fit at degree {m} stopped after {fit.iterations} steps "
            f"with gap {fit.gap:.3g}"
        )
    return fit.weights


def _inverse_cdf_sampler(pdf, grid_points=4001):
    grid = np.linspace(0.0, 1.0, grid_points)
    f = np.asarray(pdf(grid), dtype=float)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]

    def draw(rng, size):
        return np.interp(rng.uniform(size=size), cdf, grid)

    return draw


def acceptance_rejection_diag(true_pdf, weights, n, seed):
    """Envelope constant and acceptance fraction of a mixture against the truth.

    c_m = sup_t f_m(t)/f(t) is located on a 4001-point grid and refined
    by golden section; a draw x from f is accepted as an f_m draw when
    u <= f_m(x)/(c_m f(x)), the draws coming from a gridded inverse CDF
    of the truth.  Returns (c_m, accepted fraction).
    """
    m = weights.m
    p = weights.p
    grid = np.linspace(0.0, 1.0, 4001)
    f = np.asarray(true_pdf(grid), dtype=float)
    if np.any(f <= 0.0):
        raise ValueError("true density must be strictly positive on [0, 1]")

    def ratio(t):
        ft = float(np.atleast_1d(np.asarray(true_pdf(t), dtype=float))[0])
        return float((basis_matrix(m, np.atleast_1d(t)) @ p)[0]) / ft

    fm = basis_matrix(m, grid) @ p
    ratios = fm / f
    i = int(np.argmax(ratios))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    t_ref, neg, _ = baselines._golden_min(lambda t: -ratio(t), lo, hi, tol=1e-12)
    c_m = max(float(ratios[i]), -neg)

    rng = np.random.default_rng(seed)
    x = _inverse_cdf_sampler(true_pdf)(rng, n)
    u = rng.uniform(size=n)
    fx = np.asarray(true_pdf(x), dtype=float)
    fmx = basis_matrix(m, x) @ p
    kept = float(np.mean(u <= fmx / (c_m * fx)))
    return c_m, kept
