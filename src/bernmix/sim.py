"""Monte Carlo harness for the density-estimator comparisons.

Provides seeded generators for the six benchmark distributions, support
truncation and rescaling to [0, 1], equal-width grouping, MISE estimation
over replicates, and the acceptance-rejection closeness diagnostic
(envelope constant c_m and the fraction of true-density draws acceptable
as mixture draws).

The truths of uniform01, exp1, pareto, normal01 and logistic are the
baselines families their parametric MLE fits, at the true parameters
(_FAMILY_LAWS); the normal01 law is normal_family's, whose CDF is the
standard library's erfc.  Only the Irwin-Hall law of nn<k> (the mean of
k uniforms) is written here.

Every mixture value here (the MBLE curve scored by the ISE, and f_m in
the diagnostic) is BernsteinMixture.pdf, the matrix-free Horner sum of
the Bernstein form; no basis matrix is built to evaluate a fitted curve.
The ISE is composite Simpson's rule in numpy, one dot product with the
grid's cached Simpson weights.  The harness loads numpy and the standard
library only.

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
from .em import _fit, em_step
from .errors import HarnessError, SelectionError
from .likelihood import RawSample, _problems
from .model import BernsteinMixture, GroupedSample, _checked_support
from .select import _checked_degrees, select_degree

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

# weighted-ISE weight 1/f is floored here: the nearly-normal densities
# vanish at the support endpoints and would otherwise blow up the integrand
WEIGHT_FLOOR = 1e-12

MAX_FAILURE_SHARE = 0.05


def _irwin_hall_sum(s, k, power):
    """sum_j (-1)^j C(k, j) (s - j)_+^power / power!, unclipped.

    At s = k x, power k gives the CDF of the sum of k uniforms, power k - 1
    its density; s is a float array.
    """
    out = np.zeros(s.shape)
    for j in range(k + 1):
        d = s - j
        out += (-1.0) ** j * comb(k, j) * np.where(d > 0.0, d, 0.0) ** power
    return out / factorial(power)


def _box_muller(rng, size):
    half = (size + 1) // 2
    u1 = 1.0 - rng.uniform(size=half)  # keep log() away from 0
    u2 = rng.uniform(size=half)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)])
    return z[:size]


def _exponential_draw(rng, size):
    return -np.log(1.0 - rng.uniform(size=size))


def _pareto_draw(rng, size):
    return PARETO_SCALE * (1.0 - rng.uniform(size=size)) ** (-1.0 / PARETO_SHAPE)


def _logistic_draw(rng, size):
    u = rng.uniform(size=size)
    with np.errstate(divide="ignore"):
        return LOGISTIC_SCALE * (np.log(u) - np.log1p(-u))


# tag -> (baseline family factory, true parameters, draw, truncation): the
# truth of each scenario is the family its parametric MLE fits
_FAMILY_LAWS = {
    "uniform01": (baselines.beta_one_family, (1.0,), lambda rng, size: rng.uniform(size=size), (0.0, 1.0)),
    "exp1": (baselines.exponential_family, (1.0,), _exponential_draw, EXP_TRUNCATION),
    "pareto": (
        functools.partial(baselines.pareto_family, PARETO_SCALE),
        (PARETO_SHAPE,),
        _pareto_draw,
        PARETO_TRUNCATION,
    ),
    "normal01": (baselines.normal_family, (0.0, 1.0), _box_muller, NORMAL_TRUNCATION),
    "logistic": (baselines.logistic_family, (0.0, LOGISTIC_SCALE), _logistic_draw, LOGISTIC_TRUNCATION),
}


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
    if tag in _FAMILY_LAWS:
        factory, params, draw, truncation = _FAMILY_LAWS[tag]
        family = factory()
        return ScenarioDistribution(
            tag,
            pdf=lambda x: family.pdf(x, params),
            cdf=lambda x: family.cdf(x, params),
            draw=draw,
            truncation=truncation,
            parametric_family=factory,
        )
    if tag.startswith("nn"):
        k = int(tag[2:])
        if k < 1:
            raise ValueError(f"unknown scenario tag {tag!r}")
        return ScenarioDistribution(
            tag,
            pdf=lambda x, k=k: k * np.clip(
                _irwin_hall_sum(k * np.asarray(x, float), k, k - 1), 0.0, None
            ),
            cdf=lambda x, k=k: np.clip(
                _irwin_hall_sum(k * np.asarray(x, float), k, k), 0.0, 1.0
            ),
            draw=lambda rng, size, k=k: rng.uniform(size=(size, k)).mean(axis=1),
            truncation=(0.0, 1.0),
            parametric_family=baselines.normal_family,
        )
    raise ValueError(f"unknown scenario tag {tag!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark configuration.

    truncation=None means the scenario's default interval; degrees=None lets
    the scan use its default set, and others are checked as it checks them.
    """

    distribution: str
    n: int
    n_cells: int
    replicates: int = 100
    seed: int = 0
    truncation: tuple | None = None
    degrees: tuple | None = None

    def __post_init__(self):
        for name, least in (("n", 1), ("n_cells", 1), ("replicates", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be at least {least} and an integer, got {value!r}")
        if self.degrees is not None:
            _checked_degrees(self.degrees)

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


@functools.lru_cache(maxsize=8)
def _simpson_weights(grid_bytes):
    """Weights w with w @ y = composite Simpson's rule of y on the grid.

    The grid comes as the bytes of a float64 array (so the read-only
    result can be cached: the MISE harness scores every replicate on one
    grid).  It must be strictly increasing; its spacing may vary.  Pairs
    of intervals get the three-point rule for their spacings h0, h1; with
    an odd number of intervals the last one gets Cartwright's correction,
    and two points get the trapezoid.  These are the weights of
    scipy.integrate.simpson.
    """
    x = np.frombuffer(grid_bytes)
    h = np.diff(x)
    if not np.all(h > 0.0):
        raise ValueError("grid must be strictly increasing")
    w = np.zeros(x.size)
    pairs = (x.size - 1) // 2
    h0, h1 = h[: 2 * pairs : 2], h[1 : 2 * pairs : 2]
    sixth = (h0 + h1) / 6.0
    w[: 2 * pairs : 2] += sixth * (2.0 - h1 / h0)
    w[1 : 2 * pairs : 2] += sixth * (h0 + h1) ** 2 / (h0 * h1)
    w[2 : 2 * pairs + 1 : 2] += sixth * (2.0 - h0 / h1)
    if x.size == 2:
        w += 0.5 * h[0]
    elif x.size % 2 == 0:
        h0, h1 = h[-2], h[-1]
        w[-1] += (2.0 * h1 * h1 + 3.0 * h0 * h1) / (6.0 * (h0 + h1))
        w[-2] += (h1 * h1 + 3.0 * h0 * h1) / (6.0 * h0)
        w[-3] -= h1**3 / (6.0 * h0 * (h0 + h1))
    w.flags.writeable = False
    return w


def integrated_squared_error(fhat_vals, f_vals, grid, weighted=False):
    """Composite-Simpson ISE of a fitted curve against the truth on a grid.

    The grid must be one-dimensional and strictly increasing (ValueError
    otherwise); its spacing may vary.  The rule is one dot product of the
    squared error with the grid's Simpson weights.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("grid must be one-dimensional")
    diff2 = (np.asarray(fhat_vals, float) - f_vals) ** 2
    if weighted:
        diff2 = diff2 / np.maximum(f_vals, WEIGHT_FLOOR)
    return float(_simpson_weights(grid.tobytes()) @ diff2)


_ESTIMATORS = ("mble", "kernel", "parametric", "truth")


def _fit_curve(kind, spec, data, grid):
    """Fitted density values on the unit grid; returns (values, degree).

    kind is one of _ESTIMATORS, checked by mise before any replicate runs.
    """
    a, b = spec.resolved_truncation()
    if kind == "mble":
        grouped = group(data, spec.n_cells)
        trace = select_degree(grouped, (0.0, 1.0), degrees=spec.degrees)
        return BernsteinMixture(trace.best_fit.weights).pdf(grid), trace.m_hat
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
    propagates.  An unknown estimator or a grid of fewer than 2 points
    (which has no width to integrate over) raises ValueError before any
    replicate runs.
    """
    if estimator not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
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


def _bernstein_start(pdf, m):
    """Weights p_j = pdf(j/m) / sum_h pdf(h/m) of B_m f, pdf's Bernstein polynomial.

    None (the uniform start) when m < 1 or those values are not finite,
    not nonnegative or all zero.
    """
    if m < 1:
        return None
    values = np.asarray(pdf(np.arange(m + 1) / m), dtype=float)
    total = values.sum()
    if not (np.isfinite(values).all() and (values >= 0.0).all() and total > 0.0):
        return None
    return values / total


def best_mixture_approximation(pdf, m, nodes=512):
    """Weights of the degree-m mixture closest to a known density.

    Computes the KL projection of pdf onto the degree-m model: the
    Gauss-Legendre atoms of the truth, weighted by their quadrature
    masses, take the place of observations, and the certified solver of
    the degree scan (active-set SQP, em._sqp_weighted) maximises their
    loglik.  The problem is built once, by likelihood._problems, which
    raises ValueError before any fit for a degree outside 0..1881 or
    atom masses that are not finite, are negative or are all 0.  The
    solver starts from E(B_m f): one EM step (em.em_step, the
    Richardson-Lucy update whose fixed point is the projection) from the
    weights of the Bernstein polynomial
    B_m f = sum_j f(j/m) C(m, j) t^j (1-t)^(m-j), p_j proportional to
    pdf(j/m).  B_m f is over-smoothed and the step sharpens it, so the
    first Newton QP keeps more of its free set (from uniform weights when
    m < 1 or those values are not finite, not nonnegative or all zero).
    Its line search keeps every atom's mixture mass above a fixed share
    of its current value, so fits of high degree converge; the result is
    deterministic and sits within em.GAP_TOL nats of the optimum (the
    weights are pinned down only to that tolerance, so another start may
    return other weights of the same loglik).  Used by the
    acceptance-rejection diagnostic, where the envelope constant of the
    best approximation is the quantity of interest.  Raises ValueError
    when the solver stops at its step cap without that certificate.
    """
    t, half = _unit_gauss_legendre(nodes)
    problem = next(_problems((t, half * np.asarray(pdf(t), dtype=float)), None, m))
    start = _bernstein_start(pdf, m)
    if start is not None:
        start = em_step(start, *problem)[0]
    fit = _fit(iter((problem,)), start)
    if not fit.converged:
        raise ValueError(
            f"population fit at degree {m} stopped after {fit.iterations} steps "
            f"with gap {fit.gap:.3g}"
        )
    return fit.weights


def _inverse_cdf_sampler(grid, f, q):
    """Draws at the uniforms q from the inverse trapezoid CDF of f's values on grid."""
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]
    return np.interp(q, cdf, grid)


def acceptance_rejection_diag(true_pdf, weights, n, seed):
    """Envelope constant and acceptance fraction of a mixture against the truth.

    c_m = sup_t f_m(t)/f(t) is located on a 4001-point grid and refined
    by a bracket search: the ratio is evaluated at 513 points across the
    bracket around the current maximiser, the bracket moves to that
    point's neighbours (256 times narrower), and the search stops once
    the bracket is at most 1e-12 wide (4 vector evaluations, whose cost
    is their calls more than their points); c_m is the largest ratio
    seen.  A draw x from f is accepted as an f_m draw when
    u <= f_m(x)/(c_m f(x)), the draws coming from the trapezoid inverse
    CDF of the truth's values on the same grid (so the truth is evaluated
    there once).  The generator seeded by seed gives n inverse-CDF
    uniforms, then the n uniforms u; the pairs are evaluated in ascending
    order of the first uniform, which lets the table lookups run in one
    sweep and leaves the fraction equal to that of the unsorted pairs,
    since every value depends on its own point alone.  Every f_m value is
    BernsteinMixture(weights).pdf, so a truth that is that same pdf gives
    c_m = 1 and accepts every draw.  Returns (c_m, accepted fraction).
    Raises ValueError unless n is an integer of at least 1, before any
    evaluation, and unless the truth is finite and strictly positive on
    the grid, before any draw.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer of at least 1, got {n!r}")
    fm = BernsteinMixture(weights).pdf
    grid = np.linspace(0.0, 1.0, 4001)
    f = np.asarray(true_pdf(grid), dtype=float)
    if not (np.isfinite(f).all() and (f > 0.0).all()):
        raise ValueError("true density must be finite and strictly positive on [0, 1]")
    ratios = fm(grid) / f
    i = int(np.argmax(ratios))
    c_m = float(ratios[i])
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    while hi - lo > 1e-12:
        t = np.linspace(lo, hi, 513)
        ratios = fm(t) / np.asarray(true_pdf(t), dtype=float)
        i = int(np.argmax(ratios))
        c_m = max(c_m, float(ratios[i]))
        lo, hi = t[max(i - 1, 0)], t[min(i + 1, t.size - 1)]

    rng = np.random.default_rng(seed)
    q = rng.uniform(size=n)
    u = rng.uniform(size=n)
    order = np.argsort(q)
    x = _inverse_cdf_sampler(grid, f, q[order])
    fx = np.asarray(true_pdf(x), dtype=float)
    kept = float(np.mean(u[order] <= fm(x) / (c_m * fx)))
    return c_m, kept
