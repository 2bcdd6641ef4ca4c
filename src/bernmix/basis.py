"""Beta-density basis underlying the Bernstein mixture model.

The degree-m basis consists of the m+1 beta densities with integer shape
parameters, beta(j+1, m-j+1) for j = 0..m.  Binomial coefficients enter
as logarithms of the exact integers C(m, k), rounded once each, so
degrees in the hundreds stay finite (C(m, k) itself overflows a float
past m of about 1030), and the basis CDFs use the exact binomial-tail
identity (integer shapes) instead of a generic incomplete-beta routine.

The basis and CDF matrices feed the likelihood problems; both are read
off one closed-form Binomial table (_binomial_table).  A mixture with
known weights is evaluated without a matrix, by Horner's scheme for the
Bernstein form (_bernstein_sum).
"""

import functools
import math

import numpy as np

__all__ = [
    "beta_density",
    "beta_cdf",
    "basis_matrix",
    "cdf_matrix",
    "degree_elevate",
]


def _check_degree(m):
    """ValueError unless 0 <= m <= 1881, the degrees _bernstein_sum evaluates.

    Past 1881 the Horner shift log C(m, m//2) - _LOG_COEF_CAP exceeds 700,
    where exp(-shift) underflows or exp(shift) overflows.  It builds
    nothing, so a fit or a scan checks its degree before any matrix.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    if m > 1881:
        raise ValueError(f"degree {m} is above the evaluator's range (1881)")


def _check_index(m, j):
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    if not 0 <= j <= m:
        raise ValueError(f"component index {j} outside [0, {m}]")


@functools.lru_cache(maxsize=128)
def _log_binomials(m):
    """log C(m, k) for k = 0..m, each rounded once from the exact integer.

    The row is built on Python integers, so it is cached per degree and
    returned read-only.
    """
    row, c = [], 1
    for k in range(m + 1):
        row.append(math.log(c))
        c = c * (m - k) // (k + 1)
    out = np.array(row)
    out.flags.writeable = False
    return out


# a log C(n, k) above this is shifted down before it becomes a Horner
# coefficient: with weights at most 1 the n+1 coefficients then sum to at
# most (n+1) e^600, far below the float maximum (about e^709)
_LOG_COEF_CAP = 600.0


def _horner(coefs, s):
    """coefs[0] s^n + coefs[1] s^(n-1) + ... + coefs[n] at each s."""
    acc = np.full(s.shape, coefs[0])
    for ck in coefs[1:]:
        acc *= s
        acc += ck
    return acc


def _bernstein_sum(c, t):
    """sum_k c_k C(n,k) t^k (1-t)^(n-k) at each t in [0, 1], n = len(c) - 1.

    For weights 0 <= c_k <= 1.  Horner's scheme for the Bernstein form
    (Schumaker & Volk, CAGD 3, 1986) runs in s = t/(1-t) for t <= 1/2 and
    in (1-t)/t above, so s <= 1 and, the terms being nonnegative, nothing
    cancels: n multiply-adds per point and no (points x (n+1)) matrix.
    The binomials enter as exp(log C(n,k) - shift), where shift is 0
    unless C(n,k) nears the float range (n above 870); it goes back
    in through the exponent of the power factor.  The ends are exact (c_0
    at t = 0, c_n at t = 1), and each value depends on its own point
    alone, so it is the same float alone or in any batch; a half of
    [0, 1] that holds no points skips its Horner pass.  A model's pdf, cdf
    and cells call it at the model's degree, so above 1881 (_check_degree)
    it raises ValueError for them all, before the binomials are built.
    """
    c = np.asarray(c, dtype=float)
    t = np.asarray(t, dtype=float)
    n = c.size - 1
    _check_degree(n)
    log_binom = _log_binomials(n)
    shift = max(0.0, float(log_binom[n // 2]) - _LOG_COEF_CAP)
    b = c * np.exp(log_binom - shift)
    out = np.empty(t.shape)
    low = t <= 0.5
    tl, th = t[low], t[~low]
    if tl.size:
        out[low] = _horner(b[::-1], tl / (1.0 - tl)) * np.exp(n * np.log1p(-tl) + shift)
    if th.size:
        out[~low] = _horner(b, (1.0 - th) / th) * np.exp(n * np.log(th) + shift)
    out[t == 0.0] = c[0]
    out[t == 1.0] = c[n]
    return out


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


def _binomial_table(n, t, scale):
    """scale * C(n,k) t^k (1-t)^(n-k) at each t in [0, 1], shape (len(t), n+1).

    Each interior entry is one exp of log(scale) + log C(n,k) + k log t +
    (n-k) log1p(-t); the rows at t = 0 and t = 1 are set exactly.
    """
    t = _check_unit(np.atleast_1d(t))
    k = np.arange(n + 1)
    log_coef = np.log(scale) + _log_binomials(n)
    out = np.zeros((t.size, n + 1))
    interior = (t > 0.0) & (t < 1.0)
    ti = t[interior]
    out[interior] = np.exp(
        log_coef[None, :]
        + k[None, :] * np.log(ti)[:, None]
        + (n - k)[None, :] * np.log1p(-ti)[:, None]
    )
    out[t == 0.0, 0] = scale
    out[t == 1.0, n] = scale
    return out


def basis_matrix(m, t):
    """All basis densities at once.

    Returns an array of shape (len(t), m+1) with entry [i, j] equal to
    beta_density(m, j, t[i]), the Binomial(m, t) pmf scaled by m+1.  This
    is the workhorse for likelihood and EM evaluations.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    return _binomial_table(m, t, m + 1.0)


def cdf_matrix(m, t):
    """All basis CDFs at once: shape (len(t), m+1), entry [i, j] = B_mj(t[i]).

    Shares the binomial-tail identity with beta_cdf: for each t the
    Binomial(m+1, t) pmf vector is accumulated from the top so every
    column falls out of one reversed cumulative sum.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    pmf = _binomial_table(m + 1, t, 1.0)
    tail = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    return np.clip(tail[:, 1:], 0.0, 1.0)


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
