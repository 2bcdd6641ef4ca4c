"""Bernstein loglikelihood for raw, grouped, and rounded data.

This module owns the weighted-row problem that every fit and every loglik
reads: the loglik of mixture weights p is sum_i w_i log (A p)_i, where
row i of the mass matrix A holds the m+1 basis densities or masses of one
row of data and w_i > 0 is its weight (_problem builds the pair, _loglik
evaluates it).

- Raw data: one row per observation, its basis densities, weight 1.
- Grouped data: one row per populated cell, its basis masses, weighted
  by its count.  Empty cells carry nothing and are dropped when the
  problem is built, so no solver sees a row of weight 0.
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

from .basis import basis_matrix
from .model import (
    GroupedSample,
    _checked_support,
    _covering_unit_breakpoints,
    cell_basis_matrix,
    to_unit,
)

__all__ = [
    "RawSample",
    "RoundedSample",
    "loglik_raw",
    "loglik_grouped",
    "loglik_rounded",
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


@dataclass(frozen=True, eq=False)
class RoundedSample:
    """Observations recorded on the grid i/K (round-half-up bookkeeping).

    Each value must be an integer multiple of 1/K within 1e-12; the grid
    density K determines the implied cells ((i-1/2)/K, (i+1/2)/K].
    """

    values: np.ndarray
    grid_density: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        k = int(self.grid_density)
        if k < 1:
            raise ValueError("grid density must be a positive integer")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        scaled = values * k
        if np.any(np.abs(scaled - np.round(scaled)) > 1e-12):
            raise ValueError("every value must be an integer multiple of 1/K")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "grid_density", k)

    @property
    def n(self):
        return self.values.size


def _problem(data, support, m):
    """(mass matrix, row weights) of the degree-m problem, populated rows only.

    data is a RawSample (rows: basis densities at the observations,
    weight 1), a GroupedSample on support (rows: basis masses of the
    cells, weighted by their counts) or a pair (unit-scale quadrature
    atoms, their masses) of a known density (rows: basis densities at the
    atoms).  Rows of weight 0 carry nothing and are dropped here, once.
    """
    if isinstance(data, RawSample):
        if data.n == 0:
            raise ValueError("need at least one observation")
        return basis_matrix(m, data.unit_values()), np.ones(data.n)
    if isinstance(data, GroupedSample):
        if data.n < 1:
            raise ValueError("need a positive total count")
        pos = data.counts > 0
        u = _covering_unit_breakpoints(data.breakpoints, support)
        return cell_basis_matrix(m, u)[pos], data.counts[pos].astype(float)
    atoms, masses = data
    pos = masses > 0
    return basis_matrix(m, atoms[pos]), masses[pos]


def _loglik(mass_mat, row_weights, p):
    """sum_i w_i log (A p)_i, -inf if a row has mass 0.

    (A p) is clipped at 0 as in cell_probabilities, so rounding below 0
    reads as a massless row.
    """
    theta = np.clip(mass_mat @ p, 0.0, None)
    if np.any(theta <= 0.0):
        return float("-inf")
    return float(np.sum(row_weights * np.log(theta)))


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


def rounded_to_grouped(data, support):
    """Expand rounded values into the grouped sample they imply.

    Builds the full contiguous tiling of [a, b] by the rounding cells
    ((i-1/2)/K, (i+1/2)/K], clipping the outermost cells to the support;
    grid points without observations keep zero counts so the partition
    always spans the support.
    """
    a, b = _checked_support(support)
    k = data.grid_density
    vals = data.values
    if vals.min() < a or vals.max() > b:
        raise ValueError(f"rounded values outside the support [{a}, {b}]")
    # smallest/largest grid index whose cell intersects (a, b)
    i_lo = int(np.floor(a * k - 0.5)) + 1
    i_hi = int(np.ceil(b * k + 0.5)) - 1
    edges = (np.arange(i_lo, i_hi) + 0.5) / k
    breakpoints = np.concatenate(([a], edges, [b]))
    idx = np.round(vals * k).astype(int) - i_lo
    counts = np.bincount(idx, minlength=i_hi - i_lo + 1)
    return GroupedSample(breakpoints, counts)


def loglik_rounded(weights, data, support):
    """Rounded-data loglik: the grouped loglik on the rounding partition."""
    return loglik_grouped(weights, rounded_to_grouped(data, support), support)
