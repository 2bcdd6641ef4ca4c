"""Weight solvers for the maximum Bernstein likelihood estimate.

Every fit maximises sum_i w_i log (A p)_i over the m-simplex, where row i
of the mass matrix A holds the m+1 basis densities at a raw observation
(w_i = 1) or the m+1 basis masses of a cell (w_i = its count).  The
loglik is concave in p, so the gradient g = A^T (w / A p) / n (n = sum
w) gives a free certificate: the loglik of p is at most
n (max_j g_j - 1) below the maximum (the Lindsay/Boehning gradient
bound).  Every FitReport carries that gap at its returned weights.

Two solvers share this form:

- EM, the paper's algorithm (em_raw and em_grouped): the multiplicative map
  p_j <- p_j g_j from a strictly positive start, which converges to the
  maximiser.  It stops when the relative loglik change
  |l_{s+1} - l_s| / (1 + |l_s|) drops below EmConfig.tol, or after
  EmConfig.max_iter updates; that stop says nothing about the gap.
- The certified solver behind every fit of a degree scan
  (select_degree) and the population fit of the acceptance-rejection
  diagnostic (sim.best_mixture_approximation): active-set SQP on the
  mixSQP form of the problem (Kim, Carbonetto, Stephens and Anitescu,
  JCGS 2020).  Its line search accepts a trial point only if every row
  mass (A p)_i keeps more than ROW_MASS_SHARE of its current value, so
  that a cold start of high degree cannot strand a tail row near 0.  It
  stops when the gap is at most GAP_TOL, or after SQP_MAX_STEPS outer
  steps.  Each outer step's QP starts from the previous step's QP
  solution (the start weights at the first step), so the active set is
  carried along instead of being re-derived from the full support.

With n_l observations in cell l every one of them has the same
responsibility, which is why the grouped EM update sums over cells
rather than observations.
"""

import time
from array import array
from dataclasses import dataclass

import numpy as np

from .basis import basis_matrix
from .likelihood import RawSample
from .model import SimplexWeights, _covering_unit_breakpoints, cell_basis_matrix

__all__ = [
    "EmConfig",
    "FitReport",
    "em_raw",
    "em_grouped",
    "em_step_raw",
    "em_step_grouped",
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

    iterations counts EM updates, or outer SQP steps for the fits of a
    degree scan.  loglik_trace[s] is the loglik of the s-th iterate
    (index 0 is the init); for EM it is nondecreasing.  residual is the
    max-norm change one extra EM update would make to the returned
    weights, or the max-norm of the last SQP step.  gap is
    n (max_j g_j - 1) at the returned weights, an upper bound on how far
    loglik sits below the maximum.  stop_reason is "converged" (EM: the
    relative loglik change fell below tol; SQP: the gap reached GAP_TOL)
    or "max_iter".  elapsed_s is the wall time of the fit in seconds, from
    the mass-matrix build to the report.
    """

    weights: SimplexWeights
    loglik: float
    iterations: int
    loglik_trace: np.ndarray
    converged: bool
    residual: float
    gap: float
    stop_reason: str
    elapsed_s: float


def em_step_raw(p, basis_mat):
    """One raw-data EM update; returns (next weights, loglik at p).

    The mean responsibility collapses to p_j * sum_i B_ij/dens_i / n,
    so the update is two matrix-vector products.
    """
    dens = np.dot(basis_mat, p)
    inv = 1.0 / dens
    loglik = float(np.add.reduce(np.log(dens, out=dens)))
    p_next = np.dot(inv, basis_mat)
    p_next *= p
    p_next /= dens.size
    return p_next, loglik


def em_step_grouped(p, cell_mat, counts):
    """One grouped-data EM update over the populated cells only."""
    theta = np.dot(cell_mat, p)
    ratio = counts / theta
    loglik = float(np.dot(counts, np.log(theta, out=theta)))
    p_next = np.dot(ratio, cell_mat)
    p_next *= p
    p_next /= np.add.reduce(counts)
    return p_next, loglik


def _output_weights(p):
    out = np.where(p < OUTPUT_WEIGHT_FLOOR, 0.0, p)
    return SimplexWeights(out / out.sum())


def _iterate(p0, step, config):
    p = np.asarray(p0, dtype=float)
    p_next, ll = step(p)
    # array("d"): a fit may run ~1e5 steps, a list of floats is 4x larger
    trace = array("d", [ll])
    append, tol = trace.append, config.tol
    iterations, converged = 0, False
    for iterations in range(1, config.max_iter + 1):
        p = p_next
        p_next, ll_new = step(p)
        append(ll_new)
        converged = abs(ll_new - ll) / (1.0 + abs(ll)) < tol
        ll = ll_new
        if converged:
            break
    residual = float(np.max(np.abs(p - p_next)))
    return _output_weights(p), ll, iterations, np.array(trace), converged, residual


def _resolve_init(config, m):
    if config.init is None:
        return np.full(m + 1, 1.0 / (m + 1))
    if config.init.m != m:
        raise ValueError(
            f"init has degree {config.init.m}, expected {m}"
        )
    return config.init.p


def _populated(mass_mat, row_weights):
    """Rows of positive weight: rows of zero weight carry nothing."""
    pos = row_weights > 0
    return mass_mat[pos], np.asarray(row_weights, dtype=float)[pos]


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
    # each pass frees or fixes one entry; the cap guards against cycling
    # on rounding when a released entry comes straight back
    for _ in range(4 * k + 10):
        z = np.zeros(k)
        idx = free.nonzero()[0]
        if idx.size:
            z[idx] = np.linalg.solve(h[idx[:, None], idx], -c[idx])
        blocked = (free & (z < 0.0)).nonzero()[0]
        if blocked.size == 0:
            y = z
            grad = h @ y + c
            grad[free] = np.inf
            j = int(np.argmin(grad))
            if grad[j] >= -QP_TOL:
                break
            free[j] = True
        else:
            t = y[blocked] / (y[blocked] - z[blocked])
            i = int(np.argmin(t))
            y = y + t[i] * (z - y)
            y[blocked[i]] = 0.0
            free &= y > 0.0
    return y


def _sqp_weighted(mass_mat, row_weights, p0):
    """Certified weights of a mass matrix whose rows carry nonnegative weights.

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
    a, w = _populated(mass_mat, row_weights)
    n = w.sum()
    v = w / n
    x = np.array(p0, dtype=float)
    k = x.size
    theta = a @ x
    f = x.sum() - v @ np.log(theta)
    y = x
    trace = array("d")
    converged, step_norm, steps = False, 0.0, 0
    while True:
        u = a.T @ (v / theta)
        total = x.sum()
        trace.append(n * (v @ np.log(theta) - np.log(total)))
        if n * (total * u.max() - 1.0) <= GAP_TOL:
            converged = True
            break
        if steps == SQP_MAX_STEPS:
            break
        steps += 1
        grad = 1.0 - u
        scaled = a * (np.sqrt(v) / theta)[:, None]
        h = scaled.T @ scaled
        h.flat[:: k + 1] += SQP_RIDGE * np.trace(h) / k
        y = _nonnegative_qp(h, grad - h @ x, y)
        d = y - x
        slope = grad @ d
        alpha = 1.0
        # ends: as alpha -> 0 the trial point tends to x, which the
        # rounding allowance accepts
        while True:
            x_new = x + alpha * d
            theta_new = a @ x_new
            if np.all(theta_new > ROW_MASS_SHARE * theta):
                f_new = x_new.sum() - v @ np.log(theta_new)
                if f_new <= f + ARMIJO * alpha * slope + OBJECTIVE_ROUNDING * (1.0 + abs(f)):
                    break
            alpha *= 0.5
        step_norm = alpha * float(np.max(np.abs(d)))
        x, theta, f = x_new, theta_new, f_new
    return _output_weights(x / total), trace[-1], steps, np.array(trace), converged, step_norm


def _gap(mass_mat, row_weights, p):
    """n (max_j g_j - 1) at p, g = A^T (w / A p) / n; inf if a row has mass 0."""
    a, w = _populated(mass_mat, row_weights)
    theta = a @ p
    if not np.all(theta > 0.0):
        return float("inf")
    return float(np.max(a.T @ (w / theta)) - w.sum())


def _loglik(mass_mat, row_weights, p):
    """sum_i w_i log (A p)_i over the rows of positive weight.

    (A p) is clipped at 0 as in cell_probabilities, and a row of positive
    weight with mass 0 gives -inf, so the value equals loglik_raw or
    loglik_grouped of p on the data the mass matrix was built from.
    """
    theta = np.clip(mass_mat @ p, 0.0, None)
    pos = row_weights > 0
    if np.any(theta[pos] <= 0.0):
        return float("-inf")
    return float(np.sum(row_weights[pos] * np.log(theta[pos])))


def _report(solved, mass_mat, row_weights, start):
    """FitReport of a solver tuple on the mass matrix it was solved on.

    start is the time.perf_counter() reading taken when the fit began.
    """
    weights, _, iterations, trace, converged, residual = solved
    return FitReport(
        weights,
        _loglik(mass_mat, row_weights, weights.p),
        iterations,
        trace,
        converged,
        residual,
        _gap(mass_mat, row_weights, weights.p),
        "converged" if converged else "max_iter",
        time.perf_counter() - start,
    )


def _raw_problem(data, m):
    if data.n == 0:
        raise ValueError("need at least one observation")
    return basis_matrix(m, data.unit_values()), np.ones(data.n)


def _grouped_problem(grouped, support, m):
    if grouped.n < 1:
        raise ValueError("need a positive total count")
    u = _covering_unit_breakpoints(grouped.breakpoints, support)
    return cell_basis_matrix(m, u), grouped.counts


def _certified_fit(data, support, m, p0):
    """Degree-m fit of a RawSample or GroupedSample by the certified solver."""
    start = time.perf_counter()
    if isinstance(data, RawSample):
        a, w = _raw_problem(data, m)
    else:
        a, w = _grouped_problem(data, support, m)
    return _report(_sqp_weighted(a, w, p0), a, w, start)


def em_raw(data, m, config=None):
    """MBLE of the degree-m weights from raw data.

    Iterates p_j <- (1/n) sum_i p_j beta_j(x_i) / sum_h p_h beta_h(x_i)
    until the loglik stalls.  Hitting max_iter is reported through
    converged=False, not an error.
    """
    start = time.perf_counter()
    config = config or EmConfig()
    b, w = _raw_problem(data, m)
    p0 = _resolve_init(config, m)
    solved = _iterate(p0, lambda p: em_step_raw(p, b), config)
    return _report(solved, b, w, start)


def em_grouped(grouped, support, m, config=None):
    """MBLE of the degree-m weights from grouped data.

    The cell/basis mass matrix is precomputed once; empty cells carry no
    weight in the update and are dropped up front.
    """
    start = time.perf_counter()
    config = config or EmConfig()
    a, w = _grouped_problem(grouped, support, m)
    cells, counts = _populated(a, w)
    solved = _iterate(
        _resolve_init(config, m), lambda p: em_step_grouped(p, cells, counts), config
    )
    return _report(solved, a, w, start)
