"""Bernstein loglikelihood for raw, grouped, and rounded data.

All logliks follow the unit-scale convention: the constant Jacobian term
n*log(b-a) is dropped, since degree selection and EM always compare
likelihoods at fixed data and support.  Infeasible configurations (an
observation or a populated cell with zero model probability) return -inf
rather than raising, so optimizers can treat them as ordinary very bad
values.
"""

from dataclasses import dataclass

import numpy as np

from . import basis
from .model import GroupedSample, cell_probabilities, to_unit

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
        a, b = float(self.support[0]), float(self.support[1])
        if not a < b:
            raise ValueError(f"support must satisfy a < b, got [{a}, {b}]")
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


def loglik_raw(weights, data):
    """sum_i log f_m(u_i; p) for raw data, on the unit scale.

    Returns -inf when any observation has zero density under the weights
    (e.g. a point mass at an endpoint the mixture excludes).
    """
    if data.n == 0:
        raise ValueError("need at least one observation")
    dens = basis.basis_matrix(weights.m, data.unit_values()) @ weights.p
    if np.any(dens <= 0.0):
        return float("-inf")
    return float(np.log(dens).sum())


def loglik_grouped(weights, grouped, support):
    """sum_i n_i log theta_i for grouped data.

    Empty cells contribute nothing regardless of their model probability;
    a populated cell with zero probability yields -inf.
    """
    theta = cell_probabilities(weights, grouped.breakpoints, support)
    counts = grouped.counts
    pos = counts > 0
    if np.any(theta[pos] <= 0.0):
        return float("-inf")
    return float(np.sum(counts[pos] * np.log(theta[pos])))


def rounded_to_grouped(data, support):
    """Expand rounded values into the grouped sample they imply.

    Builds the full contiguous tiling of [a, b] by the rounding cells
    ((i-1/2)/K, (i+1/2)/K], clipping the outermost cells to the support;
    grid points without observations keep zero counts so the partition
    always spans the support.
    """
    a, b = float(support[0]), float(support[1])
    if not a < b:
        raise ValueError(f"support must satisfy a < b, got [{a}, {b}]")
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
