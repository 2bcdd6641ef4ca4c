"""EM fixed-point iteration for the maximum Bernstein likelihood estimate.

Both updates are the classic multiplicative EM maps: responsibilities of
the m+1 beta components are averaged over observations (raw data) or over
populated cells weighted by their counts (grouped data).  Starting from
any strictly positive simplex point the iteration converges to the unique
maximizer of the corresponding loglikelihood, so the default init is the
uniform weight vector.

The per-observation responsibility of component j (the conditional
expectation of its membership indicator) appears here only through its
collapsed per-cell form; with n_l observations in cell l every one of
them contributes the same responsibility, which is why the grouped update
sums over cells rather than observations.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from .basis import basis_matrix
from .likelihood import loglik_grouped, loglik_raw
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
    """Outcome of one EM fit.

    loglik_trace[s] is the loglik of the s-th iterate (index 0 is the
    init), so it is nondecreasing; residual is the max-norm change one
    extra update would make to the returned weights.
    """

    weights: SimplexWeights
    loglik: float
    iterations: int
    loglik_trace: np.ndarray
    converged: bool
    residual: float


def em_step_raw(p, basis_mat):
    """One raw-data EM update; returns (next weights, loglik at p).

    The mean responsibility collapses to p_j * sum_i B_ij/dens_i / n,
    so the update is two matrix-vector products.
    """
    dens = basis_mat @ p
    loglik = float(np.log(dens).sum())
    p_next = p * (basis_mat.T @ (1.0 / dens)) / dens.size
    return p_next, loglik


def em_step_grouped(p, cell_mat, counts):
    """One grouped-data EM update over the populated cells only."""
    theta = cell_mat @ p
    loglik = float(counts @ np.log(theta))
    p_next = p * (cell_mat.T @ (counts / theta)) / counts.sum()
    return p_next, loglik


def _iterate(p0, step, config):
    p = np.asarray(p0, dtype=float)
    p_next, ll = step(p)
    # array("d"): population fits run ~1e5 steps, a list of floats is 4x larger
    trace = array("d", [ll])
    iterations = 0
    converged = False
    for _ in range(config.max_iter):
        p = p_next
        p_next, ll_new = step(p)
        trace.append(ll_new)
        iterations += 1
        if abs(ll_new - ll) / (1.0 + abs(ll)) < config.tol:
            converged = True
            ll = ll_new
            break
        ll = ll_new
    residual = float(np.max(np.abs(p - p_next)))
    out = np.where(p < OUTPUT_WEIGHT_FLOOR, 0.0, p)
    weights = SimplexWeights(out / out.sum())
    return weights, ll, iterations, np.array(trace), converged, residual


def _resolve_init(config, m):
    if config.init is None:
        return np.full(m + 1, 1.0 / (m + 1))
    if config.init.m != m:
        raise ValueError(
            f"init has degree {config.init.m}, expected {m}"
        )
    return config.init.p


def _em_weighted(mass_mat, row_weights, config):
    """EM on a mass matrix whose rows carry nonnegative weights.

    Rows are cells (weights = counts) or quadrature atoms (weights =
    quadrature masses of a known density); rows of zero weight carry
    nothing in the update and are dropped up front.  Returns the
    _iterate tuple.
    """
    pos = row_weights > 0
    mass_pos = mass_mat[pos]
    w = np.asarray(row_weights, dtype=float)[pos]
    p0 = _resolve_init(config, mass_mat.shape[1] - 1)
    return _iterate(p0, lambda p: em_step_grouped(p, mass_pos, w), config)


def em_raw(data, m, config=None):
    """MBLE of the degree-m weights from raw data.

    Iterates p_j <- (1/n) sum_i p_j beta_j(x_i) / sum_h p_h beta_h(x_i)
    until the loglik stalls.  Hitting max_iter is reported through
    converged=False, not an error.
    """
    config = config or EmConfig()
    if data.n == 0:
        raise ValueError("need at least one observation")
    b = basis_matrix(m, data.unit_values())
    p0 = _resolve_init(config, m)
    weights, ll, iters, trace, conv, res = _iterate(
        p0, lambda p: em_step_raw(p, b), config
    )
    return FitReport(weights, loglik_raw(weights, data), iters, trace, conv, res)


def em_grouped(grouped, support, m, config=None):
    """MBLE of the degree-m weights from grouped data.

    The cell/basis mass matrix is precomputed once; empty cells carry no
    weight in the update and are dropped up front.
    """
    config = config or EmConfig()
    if grouped.n < 1:
        raise ValueError("need a positive total count")
    u = _covering_unit_breakpoints(grouped.breakpoints, support)
    weights, ll, iters, trace, conv, res = _em_weighted(
        cell_basis_matrix(m, u), grouped.counts, config
    )
    return FitReport(
        weights, loglik_grouped(weights, grouped, support), iters, trace, conv, res
    )
