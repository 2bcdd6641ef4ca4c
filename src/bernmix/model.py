"""Bernstein mixture as an evaluable probability model.

A model is a point of the m-simplex (mixture proportions over the beta
basis) together with a support interval [a, b] in original data units.
Everything is evaluated on the unit scale internally; density values pick
up the 1/(b-a) Jacobian, CDF values do not.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import basis

__all__ = [
    "SimplexWeights",
    "BernsteinMixture",
    "GroupedSample",
    "to_unit",
    "cell_probabilities",
]

SIMPLEX_SUM_TOL = 1e-9


def _checked_support(support, name="support"):
    """(a, b) as floats; ValueError unless both ends are finite and a < b."""
    a, b = float(support[0]), float(support[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"{name} needs finite ends a < b, got [{a}, {b}]")
    return a, b


def to_unit(x, support):
    """Map x in [a, b] linearly onto [0, 1].

    Raises ValueError when any point falls outside the support.
    """
    a, b = _checked_support(support)
    x = np.asarray(x, dtype=float)
    if np.any(x < a) or np.any(x > b):
        raise ValueError(f"points outside the support [{a}, {b}]")
    u = (x - a) / (b - a)
    return np.clip(u, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """Mixture proportions over the degree-m beta basis.

    Invariants: all entries nonnegative, entries sum to 1 within 1e-9.
    The degree is implied by the length, m = len(p) - 1.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("mixture proportions must be finite")
        if np.any(p < 0.0):
            raise ValueError("mixture proportions must be nonnegative")
        if abs(p.sum() - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"mixture proportions must sum to 1, got {p.sum()!r}")

    @property
    def m(self):
        return self.p.size - 1

    @classmethod
    def uniform(cls, m):
        """The strictly interior simplex point p_j = 1/(m+1)."""
        return cls(np.full(m + 1, 1.0 / (m + 1)))

    def elevate(self, r):
        """Same density rewritten at degree m + r."""
        return SimplexWeights(basis.degree_elevate(self.p, r))


@dataclass(frozen=True, eq=False)
class GroupedSample:
    """Counts over a contiguous partition t_0 < t_1 < ... < t_N.

    counts[i] is the number of observations in the half-open cell
    (t_i, t_{i+1}]; individual values are unobserved.
    """

    breakpoints: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        counts = np.asarray(self.counts)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if counts.ndim != 1 or counts.size != bp.size - 1:
            raise ValueError("counts must have one entry per cell")
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        if np.any(counts < 0) or np.any(counts != np.floor(counts)):
            raise ValueError("counts must be nonnegative integers")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @property
    def n(self):
        return int(self.counts.sum())

    @property
    def n_cells(self):
        return self.counts.size

    @property
    def widths(self):
        return np.diff(self.breakpoints)


def _covering_unit_breakpoints(breakpoints, support):
    """Breakpoints on the unit scale, checked to span the whole support.

    The end breakpoints are snapped to exactly 0 and 1 so the cell
    masses of any mixture sum to one.
    """
    u = to_unit(breakpoints, support)  # a fresh array: safe to snap in place
    if u[0] > 1e-9 or u[-1] < 1.0 - 1e-9:
        raise ValueError("breakpoints must cover the full support")
    u[0], u[-1] = 0.0, 1.0
    return u


def cell_probabilities(weights, breakpoints, support):
    """Model probabilities of the cells of a partition of the support.

    The partition must span the whole support (first breakpoint at a,
    last at b after the unit transform); only then do the cell
    probabilities sum to one.

    Returns
    -------
    ndarray
        theta_i = F_m(u_i) - F_m(u_{i-1}) from BernsteinMixture.cdf,
        clipped at 0 and summing to 1 within 1e-12.
    """
    u = _covering_unit_breakpoints(breakpoints, support)
    return np.clip(np.diff(BernsteinMixture(weights).cdf(u)), 0.0, None)


@dataclass(frozen=True, eq=False)
class BernsteinMixture:
    """Beta-mixture density on an explicit support interval [a, b].

    pdf, cdf and cell probabilities are matrix-free Horner sums at degree m
    (basis._bernstein_sum): memory linear in the number of points, and a
    point's value is the same float alone or in any batch.
    """

    weights: SimplexWeights
    support: tuple = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "support", _checked_support(self.support))

    @property
    def m(self):
        return self.weights.m

    def pdf(self, x):
        """Density at x in original units (includes the 1/(b-a) Jacobian).

        f(t) = (m+1) sum_j p_j C(m,j) t^j (1-t)^(m-j) on the unit scale.
        """
        u = to_unit(x, self.support)
        scalar = u.ndim == 0
        vals = (self.m + 1) * basis._bernstein_sum(self.weights.p, np.atleast_1d(u))
        vals /= self.support[1] - self.support[0]
        return float(vals[0]) if scalar else vals

    def cdf(self, x):
        """Distribution function at x; exactly 0 at a and 1 at b.

        The binomial-tail identity of the basis CDFs, summed over j with
        C(m+1,k) = (m+1)/k C(m,k-1), is one sum at the model's degree m:
        F(t) = (m+1) t sum_j P_j/(j+1) C(m,j) t^j (1-t)^(m-j), where
        P_j = p_0 + ... + p_j for the weights scaled to sum to 1.  Above
        t = 1/2 the tails Q_j = p_j + ... + p_m give 1 - F(t) =
        (m+1) (1-t) sum_j Q_j/(m+1-j) C(m,j) t^j (1-t)^(m-j), so F near 1
        keeps the accuracy of its small complement and stays nondecreasing
        where the density vanishes toward b.
        """
        u = to_unit(x, self.support)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        p = self.weights.p / self.weights.p.sum()
        low = u <= 0.5
        tl, th = u[low], u[~low]
        vals = np.empty(u.shape)
        heads = np.cumsum(p) / np.arange(1, p.size + 1)
        vals[low] = p.size * tl * basis._bernstein_sum(heads, tl)
        tails = np.cumsum(p[::-1])[::-1] / np.arange(p.size, 0, -1)
        vals[~low] = 1.0 - p.size * (1.0 - th) * basis._bernstein_sum(tails, th)
        vals = np.clip(vals, 0.0, 1.0)
        return float(vals[0]) if scalar else vals

    def cell_probabilities(self, breakpoints):
        return cell_probabilities(self.weights, breakpoints, self.support)

    def sample(self, count, seed):
        """Draw count variates, deterministically in the seed.

        Component j is selected with probability p_j and the beta(j+1,
        m-j+1) variate is realized as the (j+1)-th smallest of m+1
        independent uniforms, so no gamma sampler is involved.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        rng = np.random.default_rng(seed)
        p = self.weights.p
        m = self.m
        comp = rng.choice(m + 1, size=count, p=p / p.sum())
        out = np.empty(count)
        for j in np.unique(comp):
            idx = np.nonzero(comp == j)[0]
            u = rng.uniform(size=(idx.size, m + 1))
            out[idx] = np.partition(u, j, axis=1)[:, j]
        a, b = self.support
        return a + (b - a) * out
