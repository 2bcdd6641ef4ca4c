"""Weight solvers for the maximum Bernstein likelihood estimate.

Every fit is one weighted-row problem: maximise sum_i w_i log (A p)_i
over the m-simplex, where row i of the mass matrix A holds the m+1 basis
densities or masses of one row of data and w_i > 0 is its weight.  The
likelihood module builds that problem from raw, grouped or population
data (likelihood._problems, populated rows only) and evaluates its loglik;
this module only solves it and certifies the result.

The loglik is concave in p, so the gradient g = A^T (w / A p) / n
(n = sum w) gives a free certificate: the loglik of p is at most
n (max_j g_j - 1) below the maximum (the Lindsay/Boehning gradient
bound).  Every FitReport carries that gap at its returned weights, and
every fit runs the same path (_fit): build the problem, solve it, report.

Two solvers share this form:

- EM, the paper's algorithm (em_raw and em_grouped, one step em_step):
  the multiplicative map p_j <- p_j g_j from a strictly positive start,
  which converges to the maximiser.  It stops when the relative loglik
  change |l_{s+1} - l_s| / (1 + |l_s|) drops below EmConfig.tol, or
  after EmConfig.max_iter updates; that stop says nothing about the gap.
- The certified solver behind every fit of a degree scan
  (select_degree) and the population fit (sim.best_mixture_approximation):
  active-set SQP on the mixSQP form of the problem (Kim, Carbonetto,
  Stephens and Anitescu, JCGS 2020).  Its line search accepts a trial
  point only if every row mass (A p)_i keeps more than ROW_MASS_SHARE of
  its current value, so that a cold start of high degree cannot strand a
  tail row near 0.  It stops when the gap is at most GAP_TOL, or after
  SQP_MAX_STEPS outer steps.  Each outer step's QP starts from the
  previous step's QP solution (the start weights at the first step), so
  the active set is carried along instead of being re-derived from the
  full support.
"""

import math
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .likelihood import _problems, _row_loglik
from .model import SimplexWeights

__all__ = [
    "EmConfig",
    "FitReport",
    "em_raw",
    "em_grouped",
    "em_step",
]

OUTPUT_WEIGHT_FLOOR = 1e-12

# certified solver: stop at this gap (nats), or after this many outer steps
GAP_TOL = 1e-8
SQP_MAX_STEPS = 200
# ridge added to the Hessian diagonal, as a share of its mean diagonal entry
SQP_RIDGE = 1e-8
# a bound entry whose QP gradient is above -QP_TOL stays at 0
QP_TOL = 1e-14
# Armijo sufficient-decrease share of the predicted decrease
ARMIJO = 0.01
# a trial point must keep every row mass above this share of its current
# value: a cold Newton step can drive a tail row mass to ~1e-74 for a cost
# of ~1e-6 in f, and the solver then needs one outer step per doubling
# to bring it back
ROW_MASS_SHARE = 0.1
# the SQP objective is O(1); a decrease below this is rounding, and a
# Newton step that close to the optimum is taken whole
OBJECTIVE_ROUNDING = 1e-14


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule and initialization for one EM fit.

    The iteration stops when the relative loglik change
    |l_{s+1} - l_s| / (1 + |l_s|) drops below tol, or after max_iter
    updates.  init, when given, must be strictly positive (the
    convergence guarantee needs an interior starting point); None means
    the uniform vector.
    """

    tol: float = 1e-8
    max_iter: int = 100_000
    init: SimplexWeights | None = None

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.init is not None and np.any(self.init.p <= 0.0):
            raise ValueError("init weights must be strictly positive")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit.

    iterations counts EM updates, or outer SQP steps for the certified
    fits (degree scan, population fit).  loglik_trace[s] is the loglik
    of the s-th iterate (index 0 is the init); for EM it is
    nondecreasing.  residual is the max-norm change one extra EM update
    would make to the returned weights, or the max-norm of the last SQP
    step.  gap is n (max_j g_j - 1) at the returned weights, an upper
    bound on how far loglik sits below the maximum.  stop_reason is
    "converged" (EM: the relative loglik change fell below tol; SQP: the
    gap reached GAP_TOL) or "max_iter"; converged says it is the former.
    elapsed_s is the wall time of the fit in seconds, from the
    mass-matrix build to the report.
    """

    weights: SimplexWeights
    loglik: float
    iterations: int
    loglik_trace: np.ndarray
    residual: float
    gap: float
    stop_reason: str
    elapsed_s: float

    @property
    def converged(self):
        return self.stop_reason == "converged"


def em_step(p, mass_mat, row_weights):
    """One EM update on populated rows; returns (next weights, loglik at p).

    Row i claims the share p_j A_ij / (A p)_i of its weight w_i for
    component j, so the update p_j <- p_j sum_i w_i A_ij / (A p)_i / n is
    two matrix-vector products.
    """
    p_next = np.empty(mass_mat.shape[1])
    loglik = _em_stepper(mass_mat, row_weights)(p, p_next)
    return p_next, loglik


def _em_stepper(mass_mat, row_weights):
    """em_step on buffers allocated once, for a loop of ~1e5 steps.

    step(p, out) writes the next weights into out (not p) and returns
    the loglik at p, by the same arithmetic as em_step.  It makes no new
    array: on matrices of a few dozen rows the calls, not the flops, are
    the cost of a step, and this cuts it by about a third.
    """
    theta = np.empty(mass_mat.shape[0])
    ratio = np.empty_like(theta)
    n = float(np.add.reduce(row_weights))
    # bound methods and ufuncs: np.dot would add a dispatch per call
    mass_dot, ratio_dot, weight_dot = mass_mat.dot, ratio.dot, row_weights.dot
    divide, log, multiply = np.divide, np.log, np.multiply

    def step(p, out):
        mass_dot(p, out=theta)
        divide(row_weights, theta, out=ratio)
        loglik = float(weight_dot(log(theta, out=theta)))
        ratio_dot(mass_mat, out=out)
        multiply(out, p, out=out)
        divide(out, n, out=out)
        return loglik

    return step


def _output_weights(p):
    out = np.where(p < OUTPUT_WEIGHT_FLOOR, 0.0, p)
    return SimplexWeights(out / out.sum())


def _iterate(p0, mass_mat, row_weights, config):
    step = _em_stepper(mass_mat, row_weights)
    # two buffers that trade places each step: p is the iterate, p_next
    # its update
    p = np.array(p0, dtype=float)
    p_next = np.empty_like(p)
    ll = step(p, p_next)
    # array("d"): a fit may run ~1e5 steps, a list of floats is 4x larger
    trace = array("d", [ll])
    append, tol = trace.append, config.tol
    iterations, converged = 0, False
    for iterations in range(1, config.max_iter + 1):
        p, p_next = p_next, p
        ll_new = step(p, p_next)
        append(ll_new)
        converged = abs(ll_new - ll) / (1.0 + abs(ll)) < tol
        ll = ll_new
        if converged:
            break
    residual = float(np.max(np.abs(p - p_next)))
    return _output_weights(p), iterations, np.array(trace), converged, residual


def _resolve_init(config, m):
    if config.init is None:
        return None
    if config.init.m != m:
        raise ValueError(
            f"init has degree {config.init.m}, expected {m}"
        )
    return config.init.p


def _nonnegative_qp(h, c, y):
    """min 0.5 y'Hy + c'y subject to y >= 0, by a primal active-set loop.

    Starts from the feasible point y with its support as the free set.
    Each pass minimises over the free set with the others held at 0;
    a minimiser with a negative entry is approached until the first free
    entry hits 0, which leaves the free set, and a feasible one releases
    the bound entry of most negative gradient, or is the answer.
    """
    k = c.size
    free = y > 0.0
    neg_c = -c
    # each pass frees or fixes one entry; the cap guards against cycling
    # on rounding when a released entry comes straight back
    for _ in range(4 * k + 10):
        z = np.zeros(k)
        idx = free.nonzero()[0]
        if idx.size:
            z[idx] = np.linalg.solve(h[idx[:, None], idx], neg_c[idx])
        # z is 0 off the free set, so only free entries can be blocked
        blocked = (z < 0.0).nonzero()[0]
        if blocked.size == 0:
            y = z
            grad = h @ y + c
            grad[free] = np.inf
            j = int(grad.argmin())
            if grad[j] >= -QP_TOL:
                break
            free[j] = True
        else:
            t = y[blocked] / (y[blocked] - z[blocked])
            i = int(t.argmin())
            y = y + t[i] * (z - y)
            y[blocked[i]] = 0.0
            free &= y > 0.0
    return y


def _sqp_weighted(a, w, p0):
    """Certified weights of a mass matrix a whose rows carry weights w > 0.

    Minimises f(x) = -sum_i v_i log (A x)_i + sum_j x_j over x >= 0 with
    v = w / n, whose minimiser is the simplex maximiser of the loglik.
    Each outer step solves the Newton QP
    min 0.5 y'Hy + (grad f - Hx)'y, y >= 0, with H = A' diag(v/theta^2) A
    plus a small ridge, starting the active-set loop from the previous
    step's QP solution (from p0 at the first step): the ridge makes the
    minimiser unique, so the start changes only the number of passes.
    It then backtracks along y - x until every row mass
    keeps more than ROW_MASS_SHARE of its current value and the Armijo
    condition holds.  It stops once n (max_j (A'(v/theta))_j sum x - 1),
    the gap at x / sum x, is at most GAP_TOL.  Returns the _iterate
    tuple; iterations counts outer steps.
    """
    n = w.sum()
    v = w / n
    root_v = np.sqrt(v)
    x = np.array(p0, dtype=float)
    k = x.size
    theta = a @ x
    total = x.sum()
    v_log = v @ np.log(theta)
    f = total - v_log
    y = x
    trace = array("d")
    converged, step_norm, steps = False, 0.0, 0
    while True:
        u = a.T @ (v / theta)
        trace.append(n * (v_log - math.log(total)))
        if n * (total * u.max() - 1.0) <= GAP_TOL:
            converged = True
            break
        if steps == SQP_MAX_STEPS:
            break
        steps += 1
        grad = 1.0 - u
        scaled = a * (root_v / theta)[:, None]
        h = scaled.T @ scaled
        diagonal = h.ravel()[:: k + 1]  # a view: h is a fresh C-ordered product
        diagonal += SQP_RIDGE * diagonal.sum() / k
        y = _nonnegative_qp(h, grad - h @ x, y)
        d = y - x
        slope = grad @ d
        floor = ROW_MASS_SHARE * theta
        rounding = OBJECTIVE_ROUNDING * (1.0 + abs(f))
        alpha = 1.0
        # ends: as alpha -> 0 the trial point tends to x, which the
        # rounding allowance accepts
        while True:
            x_new = x + alpha * d
            theta_new = a @ x_new
            if (theta_new > floor).all():
                total_new = x_new.sum()
                v_log_new = v @ np.log(theta_new)
                f_new = total_new - v_log_new
                if f_new <= f + ARMIJO * alpha * slope + rounding:
                    break
            alpha *= 0.5
        step_norm = alpha * float(abs(d).max())
        x, theta, total, v_log, f = x_new, theta_new, total_new, v_log_new, f_new
    return _output_weights(x / total), steps, np.array(trace), converged, step_norm


def _gap(mass_mat, row_weights, theta):
    """n (max_j g_j - 1) at row masses theta = A p, g = A^T (w / theta) / n.

    inf if a row has mass 0.
    """
    if not (theta > 0.0).all():
        return float("inf")
    return float((mass_mat.T @ (row_weights / theta)).max() - row_weights.sum())


def _fit(problems, p0=None, config=None):
    """FitReport of the next problem drawn from problems.

    problems is an iterator of likelihood._problems, so a degree scan
    draws its consecutive degrees from one iterator and a single fit
    draws one; building a problem of negative degree raises ValueError.
    Starts from p0, or from the uniform weights when p0 is None; runs EM
    under config when one is given, else the certified solver.  The
    reported loglik and gap share one product A p at the returned
    weights.
    """
    start = time.perf_counter()
    a, w = next(problems)
    if p0 is None:
        k = a.shape[1]
        p0 = np.full(k, 1.0 / k)
    if config is None:
        solved = _sqp_weighted(a, w, p0)
    else:
        solved = _iterate(p0, a, w, config)
    weights, iterations, trace, converged, residual = solved
    theta = a @ weights.p
    return FitReport(
        weights,
        _row_loglik(theta, w),
        iterations,
        trace,
        residual,
        _gap(a, w, theta),
        "converged" if converged else "max_iter",
        time.perf_counter() - start,
    )


def em_raw(data, m, config=None):
    """MBLE of the degree-m weights from raw data.

    Iterates p_j <- (1/n) sum_i p_j beta_j(x_i) / sum_h p_h beta_h(x_i)
    until the loglik stalls.  Hitting max_iter is reported through
    converged=False, not an error.
    """
    config = config or EmConfig()
    return _fit(_problems(data, None, m), _resolve_init(config, m), config)


def em_grouped(grouped, support, m, config=None):
    """MBLE of the degree-m weights from grouped data.

    The cell/basis mass matrix is precomputed once; empty cells carry no
    weight in the update and are dropped up front.
    """
    config = config or EmConfig()
    return _fit(_problems(grouped, support, m), _resolve_init(config, m), config)
