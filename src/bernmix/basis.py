"""Beta-density basis underlying the Bernstein mixture model.

The degree-m basis consists of the m+1 beta densities with integer shape
parameters, beta(j+1, m-j+1) for j = 0..m.  Binomial coefficients enter
as logarithms of the exact integers C(m, k), rounded once each, so
degrees in the hundreds stay finite (C(m, k) itself overflows a float
past m of about 1030), and the basis CDFs use the exact binomial-tail
identity (integer shapes) instead of a generic incomplete-beta routine.
"""

import math

import numpy as np

__all__ = [
    "beta_density",
    "beta_cdf",
    "basis_matrix",
    "cdf_matrix",
    "degree_elevate",
]


def _check_index(m, j):
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    if not 0 <= j <= m:
        raise ValueError(f"component index {j} outside [0, {m}]")


def _log_binomials(m):
    """log C(m, k) for k = 0..m, each rounded once from the exact integer."""
    row, c = [], 1
    for k in range(m + 1):
        row.append(math.log(c))
        c = c * (m - k) // (k + 1)
    return np.array(row)


def _check_unit(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    return t


def beta_density(m, j, t):
    """Density of beta(j+1, m-j+1) at t, i.e. (m+1) C(m,j) t^j (1-t)^(m-j).

    Parameters
    ----------
    m : int
        Basis degree, m >= 0.
    j : int
        Component index in [0, m].
    t : float or array_like
        Evaluation points in [0, 1].

    Returns
    -------
    float or ndarray
        Density values; endpoints use the 0^0 = 1 convention so that
        beta_density(m, 0, 0) = beta_density(m, m, 1) = m + 1.
    """
    _check_index(m, j)
    t = _check_unit(t)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros(t.shape)
    interior = (t > 0.0) & (t < 1.0)
    ti = t[interior]
    log_coef = np.log(m + 1.0) + _log_binomials(m)[j]
    out[interior] = np.exp(log_coef + j * np.log(ti) + (m - j) * np.log1p(-ti))
    if j == 0:
        out[t == 0.0] = m + 1.0
    if j == m:
        out[t == 1.0] = m + 1.0
    return float(out[0]) if scalar else out


def beta_cdf(m, j, t):
    """CDF of beta(j+1, m-j+1) at t via the exact binomial-tail identity.

    Uses B_mj(t) = sum_{k=j+1}^{m+1} C(m+1,k) t^k (1-t)^(m+1-k), the
    probability that a Binomial(m+1, t) variate is at least j+1.  Integer
    shape parameters make the finite sum exact; no continued fraction is
    involved.
    """
    _check_index(m, j)
    t = _check_unit(t)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros(t.shape)
    interior = (t > 0.0) & (t < 1.0)
    ti = t[interior]
    k = np.arange(j + 1, m + 2)
    log_binom = _log_binomials(m + 1)[j + 1:]
    terms = np.exp(
        log_binom[None, :]
        + k[None, :] * np.log(ti)[:, None]
        + (m + 1 - k)[None, :] * np.log1p(-ti)[:, None]
    )
    out[interior] = np.clip(terms.sum(axis=1), 0.0, 1.0)
    out[t == 1.0] = 1.0
    return float(out[0]) if scalar else out


def basis_matrix(m, t):
    """All basis densities at once.

    Returns an array of shape (len(t), m+1) with entry [i, j] equal to
    beta_density(m, j, t[i]).  This is the workhorse for likelihood and
    EM evaluations.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    t = _check_unit(np.atleast_1d(t))
    j = np.arange(m + 1)
    log_coef = np.log(m + 1.0) + _log_binomials(m)
    out = np.zeros((t.size, m + 1))
    interior = (t > 0.0) & (t < 1.0)
    ti = t[interior]
    out[interior] = np.exp(
        log_coef[None, :]
        + j[None, :] * np.log(ti)[:, None]
        + (m - j)[None, :] * np.log1p(-ti)[:, None]
    )
    out[t == 0.0, 0] = m + 1.0
    out[t == 1.0, m] = m + 1.0
    return out


def cdf_matrix(m, t):
    """All basis CDFs at once: shape (len(t), m+1), entry [i, j] = B_mj(t[i]).

    Shares the binomial-tail identity with beta_cdf: for each t the
    Binomial(m+1, t) pmf vector is accumulated from the top so every
    column falls out of one reversed cumulative sum.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    t = _check_unit(np.atleast_1d(t))
    k = np.arange(m + 2)
    log_binom = _log_binomials(m + 1)
    out = np.zeros((t.size, m + 1))
    interior = (t > 0.0) & (t < 1.0)
    ti = t[interior]
    pmf = np.exp(
        log_binom[None, :]
        + k[None, :] * np.log(ti)[:, None]
        + (m + 1 - k)[None, :] * np.log1p(-ti)[:, None]
    )
    tail = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    out[interior] = np.clip(tail[:, 1:], 0.0, 1.0)
    out[t == 1.0] = 1.0
    return out


def degree_elevate(p, r):
    """Rewrite degree-m mixture weights as degree-(m+r) weights.

    The returned weights represent the identical density: the degree-m
    model is nested in every model of larger degree.  Each single step
    maps p to p' with p'_i = (i * p_{i-1} + (m+1-i) * p_i) / (m+2),
    which preserves nonnegativity and the unit sum exactly.
    """
    if r < 0:
        raise ValueError(f"elevation step must be nonnegative, got {r}")
    p = np.asarray(p, dtype=float).copy()
    if p.ndim != 1 or p.size == 0:
        raise ValueError("weights must be a nonempty 1-d vector")
    for _ in range(int(r)):
        m = p.size - 1
        up = np.zeros(m + 2)
        i = np.arange(m + 2)
        up[1:] += i[1:] * p
        up[:-1] += (m + 1 - i[:-1]) * p
        p = up / (m + 2)
    return p
