"""Bernstein loglikelihood for raw and grouped data.

This module owns the weighted-row problem that every fit and every loglik
reads: the loglik of mixture weights p is sum_i w_i log (A p)_i, where
row i of the mass matrix A holds the m+1 basis densities or masses of one
row of data and w_i > 0 is its weight (_problems builds the pairs of
consecutive degrees, _problem the pair of one degree, and _loglik
evaluates a pair at given weights).  A degree scan draws its degrees from
one _problems iterator: the first degree from the closed forms of basis,
every later one from the one before by the binomial recurrence of the
Bernstein basis, so no exp or log is taken after the first degree and
only the previous matrix is held.

- Raw data: one row per observation, its basis densities, weight 1.
- Grouped data: one row per populated cell, its basis masses, weighted
  by its count.  Empty cells carry nothing and are dropped when the
  problem is built, so no solver sees a row of weight 0.
- Rounded data: grouped data, one count per value in its rounding cell
  (rounded_to_grouped builds the partition of the cells it populates).
- A known density (the population fit of the acceptance-rejection
  diagnostic): one row per quadrature atom, its basis densities,
  weighted by its quadrature mass.

All logliks follow the unit-scale convention: the constant Jacobian term
n*log(b-a) is dropped, since degree selection and EM always compare
likelihoods at fixed data and support.  Infeasible configurations (an
observation or a populated cell with zero model probability) return -inf
rather than raising, so optimizers can treat them as ordinary very bad
values.  A sample without observations (raw size 0, grouped total count
0) raises ValueError.
"""

from dataclasses import dataclass

import numpy as np

from .basis import _check_degree, basis_matrix, cdf_matrix
from .model import (
    GroupedSample,
    _checked_support,
    _covering_unit_breakpoints,
    to_unit,
)

__all__ = [
    "RawSample",
    "loglik_raw",
    "loglik_grouped",
    "rounded_to_grouped",
]


@dataclass(frozen=True, eq=False)
class RawSample:
    """Ungrouped observations together with their support interval."""

    values: np.ndarray
    support: tuple = (0.0, 1.0)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        a, b = _checked_support(self.support)
        if values.ndim != 1:
            raise ValueError("values must be a 1-d vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if values.size and (values.min() < a or values.max() > b):
            raise ValueError(f"values outside the support [{a}, {b}]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", (a, b))

    @property
    def n(self):
        return self.values.size

    def unit_values(self):
        return to_unit(self.values, self.support)


def _problems(data, support, m):
    """(mass matrix, row weights) of degrees m, m+1, m+2, ..., populated rows only.

    data is a RawSample (rows: basis densities at the observations,
    weight 1), a GroupedSample on support (rows: basis masses of the
    cells, weighted by their counts) or a pair (unit-scale quadrature
    atoms, their masses) of a known density (rows: basis densities at the
    atoms).  Rows of weight 0 carry nothing and are dropped here, once.
    Each degree is checked (basis._check_degree: 0 to 1881) before its
    matrix is built, and atom masses that are not finite, are negative or
    are all 0 raise ValueError, so no solver sees a NaN objective.

    Degree m is built from the closed forms of basis; every later degree
    comes from the one before by the binomial recurrence
    b_{m+1,j}(t) = t b_{m,j-1}(t) + (1-t) b_{m,j}(t), with b_{m,-1} = 0 and
    b_{m,m+1} = 0 for the Bernstein pmfs b_{m,j} (densities are (m+1) b_{m,j})
    and, for the basis CDFs of grouped data, with B_{m,-1} = 1 and
    B_{m,m+1} = 0 (the CDFs at the breakpoints, differenced into cell
    masses).  Each new degree is a convex combination of the last, so
    only that one is kept and no exp or log is taken after degree m.
    """
    _check_degree(m)
    if isinstance(data, GroupedSample):
        if data.n < 1:
            raise ValueError("need a positive total count")
        pos = data.counts > 0
        w = data.counts[pos].astype(float)
        t = _covering_unit_breakpoints(data.breakpoints, support)
        table, below = cdf_matrix(m, t), 1.0

        def rows(table, m):
            return (table[1:] - table[:-1])[pos]

        yield rows(table, m), w
    else:
        if isinstance(data, RawSample):
            if data.n == 0:
                raise ValueError("need at least one observation")
            t, w = data.unit_values(), np.ones(data.n)
        else:
            atoms, masses = data
            if not np.isfinite(masses).all():
                raise ValueError("atom masses must be finite")
            if (masses < 0.0).any():
                raise ValueError("atom masses must be nonnegative")
            pos = masses > 0
            if not pos.any():
                raise ValueError("need a positive atom mass")
            t, w = atoms[pos], masses[pos]
        dens, below = basis_matrix(m, t), 0.0

        def rows(table, m):
            return table * (m + 1)

        yield dens, w
        table = dens / (m + 1)
    t, s = t[:, None], 1.0 - t[:, None]
    first = below * t  # t b_{m,-1}(t), the same at every degree
    while True:
        m += 1
        _check_degree(m)
        nxt = np.empty((t.size, m + 1))
        np.multiply(table, t, out=nxt[:, 1:])
        nxt[:, :1] = first
        nxt[:, :-1] += table * s
        table = nxt
        yield rows(table, m), w


def _problem(data, support, m):
    """(mass matrix, row weights) of the degree-m problem: see _problems."""
    return next(_problems(data, support, m))


def _loglik(mass_mat, row_weights, p):
    """sum_i w_i log (A p)_i, -inf if a row has mass 0 (see _row_loglik)."""
    return _row_loglik(mass_mat @ p, row_weights)


def _row_loglik(theta, row_weights):
    """sum_i w_i log theta_i at row masses theta = A p, -inf if one is 0.

    theta is clipped at 0, as cell_probabilities clips its CDF
    differences, so rounding below 0 reads as a massless row.
    """
    theta = theta.clip(0.0, None)
    if (theta <= 0.0).any():
        return float("-inf")
    return float((row_weights * np.log(theta)).sum())


def loglik_raw(weights, data):
    """sum_i log f_m(u_i; p) for raw data, on the unit scale.

    Returns -inf when any observation has zero density under the weights
    (e.g. a point mass at an endpoint the mixture excludes).
    """
    return _loglik(*_problem(data, None, weights.m), weights.p)


def loglik_grouped(weights, grouped, support):
    """sum_i n_i log theta_i for grouped data.

    Empty cells contribute nothing regardless of their model probability;
    a populated cell with zero probability yields -inf.
    """
    return _loglik(*_problem(grouped, support, weights.m), weights.p)


def rounded_to_grouped(values, grid_density, support):
    """The GroupedSample of values rounded to the grid i/K, K = grid_density.

    Each value i/K is one count in its rounding cell ((i-1/2)/K, (i+1/2)/K]
    clipped to the support; each run of empty rounding cells around the
    populated ones is one empty cell, so n values make at most 2n + 1 cells.
    ValueError unless K is a positive integer with K max(|a|, |b|) < 2**52
    (so i +- 1/2 is exact) and the values are a nonempty finite 1-d vector
    of multiples of 1/K (within 1e-12) inside the support.
    """
    values = np.asarray(values, dtype=float)
    k = grid_density
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"grid density must be a positive integer, got {k!r}")
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d vector")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    a, b = _checked_support(support)
    if k >= 2**52 / max(abs(a), abs(b)):
        raise ValueError(f"grid density {k} is too fine for the support: need K max(|a|, |b|) < 2**52")
    scaled = values * k
    if np.any(np.abs(scaled - np.round(scaled)) > 1e-12):
        raise ValueError("every value must be an integer multiple of 1/K")
    if values.min() < a or values.max() > b:
        raise ValueError(f"rounded values outside the support [{a}, {b}]")
    idx, counts = np.unique(np.round(scaled).astype(np.int64), return_counts=True)
    lower = np.maximum((idx - 0.5) / k, a)
    upper = np.minimum((idx + 0.5) / k, b)
    breakpoints = np.unique(np.concatenate(([a], lower, upper, [b])))
    cell_counts = np.zeros(breakpoints.size - 1, dtype=np.int64)
    cell_counts[np.searchsorted(breakpoints, lower)] = counts
    return GroupedSample(breakpoints, cell_counts)
