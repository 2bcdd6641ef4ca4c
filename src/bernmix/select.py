"""Model-degree selection.

Two ingredients: a moment-based lower bound for the degree (from the
grouped midpoint mean and variance), and a change-point scan over the
loglikelihood gains of consecutive degrees.  Because the models are
nested the gains are nonnegative; early gains are large and late gains
small, so the optimal degree is read off as the change point of the gain
sequence, treating the gains as exponentials with a mean shift.  The
gains the change point reads go down to about 1e-3 nats, so every fit
of the scan is solved to a certified gap (see em), not by EM.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import _check_degree, degree_elevate
from .em import _fit
from .errors import DegenerateDataError, SelectionError
from .likelihood import RawSample, _problems
from .model import GroupedSample, _covering_unit_breakpoints

__all__ = [
    "DegreeSelectionTrace",
    "lower_bound_degree",
    "change_point",
    "select_degree",
]

# zero loglik gains inside the change-point logs are floored here
GAIN_FLOOR = 1e-12


@dataclass(frozen=True)
class DegreeSelectionTrace:
    """Everything the degree scan produced.

    fits[i] is the FitReport of degrees[i]; r_profile[tau-1] is the
    change-point likelihood ratio R(tau).  Read off them: logliks[i] and
    elapsed_s[i] (wall time in seconds) of fits[i], increments[i-1] =
    logliks[i] - logliks[i-1] for i >= 1, and m_hat = degrees[tau_hat].
    """

    degrees: np.ndarray
    r_profile: np.ndarray
    tau_hat: int
    fits: list

    @property
    def best_fit(self):
        return self.fits[self.tau_hat]

    @property
    def m_hat(self):
        return int(self.degrees[self.tau_hat])

    @property
    def logliks(self):
        return np.asarray([f.loglik for f in self.fits])

    @property
    def increments(self):
        return np.diff(self.logliks)

    @property
    def elapsed_s(self):
        return np.array([f.elapsed_s for f in self.fits])


def _moment_bound(mean, var):
    return max(1, math.ceil(mean * (1.0 - mean) / var - 3.0))


def lower_bound_degree(grouped, support):
    """Moment estimate of the smallest usable degree.

    Uses the cell-midpoint mean and variance on the unit scale:
    max{1, ceil(mu(1-mu)/sigma^2 - 3)}.  All mass in a single cell gives
    zero variance and is rejected as degenerate; it is recognised by its
    count of populated cells, since the computed mean of equal midpoints
    can sit an ulp off them and leave a variance of ~1e-32 instead of 0.
    The breakpoints must cover the support, as in every grouped fit.
    """
    n = grouped.n
    if n < 2:
        raise ValueError("need a total count of at least 2")
    counts = grouped.counts.astype(float)
    if np.count_nonzero(counts) < 2:
        raise DegenerateDataError("all mass in one cell: zero midpoint variance")
    u = _covering_unit_breakpoints(grouped.breakpoints, support)
    mid = 0.5 * (u[:-1] + u[1:])
    mu = float(counts @ mid) / n
    var = float(counts @ (mid - mu) ** 2) / (n - 1)
    return _moment_bound(mu, var)


def _raw_lower_bound(data):
    # raw-data analogue of lower_bound_degree, used only for default degrees;
    # a constant sample is caught by its range, for the reason given there
    u = data.unit_values()
    if u.size < 2:
        raise ValueError("need at least 2 observations")
    if u.min() == u.max():
        raise DegenerateDataError("constant sample: zero variance")
    return _moment_bound(float(u.mean()), float(u.var(ddof=1)))


def change_point(logliks):
    """Change point of the gain sequence of a nondecreasing loglik profile.

    Returns (tau_hat, r_profile) where r_profile[tau-1] = R(tau) for
    tau = 1..k and tau_hat is the smallest maximizer.  Boundary
    conventions: the vanishing final term at tau = k is taken at its
    limit 0 (so R(k) = 0), and zero gains inside logs are floored at
    1e-12.
    """
    ll = np.asarray(logliks, dtype=float)
    if ll.ndim != 1 or ll.size < 3:
        raise ValueError("need at least three loglik values")
    k = ll.size - 1
    total = ll[-1] - ll[0]
    if total <= GAIN_FLOOR:
        raise SelectionError("flat loglik profile: no gain to split")
    r = np.zeros(k)
    lead = k * math.log(total / k)
    for tau in range(1, k):
        g1 = max(ll[tau] - ll[0], GAIN_FLOOR)
        g2 = max(ll[-1] - ll[tau], GAIN_FLOOR)
        r[tau - 1] = (
            lead - tau * math.log(g1 / tau) - (k - tau) * math.log(g2 / (k - tau))
        )
    # tau = k: the (k - tau) log(" 0/0 ") term is 0 in the limit
    r[k - 1] = 0.0
    tau_hat = int(np.argmax(r)) + 1
    return tau_hat, r


def default_degrees(bound):
    """Degree set used when the caller gives none: bound-5 .. bound+30."""
    lo = max(1, bound - 5)
    return np.arange(lo, bound + 31)


def _checked_degrees(degrees):
    """Sorted int array of a scan's degrees: at least three, consecutive,
    nonnegative, the top one accepted by _check_degree; else ValueError.
    A step-1 range is checked by its ends before it is built.
    """
    if not (isinstance(degrees, range) and degrees.step == 1):
        degrees = sorted(int(m) for m in degrees)
    if len(degrees[:3]) < 3:  # a slice: len() overflows past 2**63 degrees
        raise ValueError("need at least three degrees (k >= 2)")
    if degrees[0] < 0:
        raise ValueError(f"need nonnegative degrees, got {degrees[0]}")
    _check_degree(int(degrees[-1]))
    degrees = np.asarray(degrees)
    if np.any(np.diff(degrees) != 1):
        raise ValueError("degrees must be consecutive integers")
    return degrees


def select_degree(data, support=None, degrees=None):
    """Fit the MBLE at every degree in a consecutive set and pick one.

    Every fit runs the certified active-set SQP solver of em (not the
    EM of em_raw/em_grouped) and stops once its gap n (max_j g_j - 1),
    a bound on the loglik distance to the optimum, is at most em.GAP_TOL,
    or after em.SQP_MAX_STEPS outer steps; each FitReport in fits
    carries its gap, step count and stop reason.  The first fit starts
    from the uniform weights; every later fit starts from the
    degree-elevated previous solution alone, so the scan runs
    sequentially.  Elevation keeps every row mass of the previous fit, so
    that start has a finite loglik, and its zero entries are the previous
    support mapped to the new degree, where the solver's active set starts.

    The rows of the scan come from one likelihood._problems iterator: the
    first degree's basis densities (raw data) or cell masses (grouped
    data) from the closed forms of basis, every later degree's from the
    previous degree's by the binomial recurrence
    b_{m+1,j}(t) = t b_{m,j-1}(t) + (1-t) b_{m,j}(t), applied to the basis
    pmfs at the observations or to the basis CDFs at the breakpoints.
    Only the previous degree's matrix is held, so memory stays flat in
    the number of degrees.

    Parameters
    ----------
    data : GroupedSample or RawSample
        Grouped data need an explicit support; raw data carry their own,
        and a support that differs from it raises ValueError.
    degrees : sequence of int, optional
        Consecutive degrees m_0..m_0+k with k >= 2 (_checked_degrees, before
        the first fit), by default the moment lower bound - 5 (at least 1)
        through bound + 30.

    Returns
    -------
    DegreeSelectionTrace
    """
    if isinstance(data, RawSample):
        if support is not None and tuple(map(float, support)) != data.support:
            raise ValueError(
                f"raw data carry their own support {data.support}, "
                f"not {tuple(map(float, support))}"
            )
        bound = _raw_lower_bound(data)
    elif isinstance(data, GroupedSample):
        if support is None:
            raise ValueError("grouped data need an explicit support")
        bound = lower_bound_degree(data, support)
    else:
        raise TypeError(f"cannot select a degree for {type(data).__name__}")

    degrees = _checked_degrees(default_degrees(bound) if degrees is None else degrees)
    if degrees[0] >= bound:
        warnings.warn(
            f"first degree {degrees[0]} is not below the estimated lower "
            f"bound {bound}; the change point may sit at the left edge",
            stacklevel=2,
        )

    problems = _problems(data, support, int(degrees[0]))
    fits = []
    for _ in degrees:
        p0 = degree_elevate(fits[-1].weights.p, 1) if fits else None
        fits.append(_fit(problems, p0))

    logliks = np.asarray([f.loglik for f in fits])
    if np.diff(logliks).min() < -1e-6:
        warnings.warn(
            "loglik decreased along the nested degree scan; the fits are "
            "likely underconverged",
            stacklevel=2,
        )
    tau_hat, r_profile = change_point(logliks)
    return DegreeSelectionTrace(degrees=degrees, r_profile=r_profile, tau_hat=tau_hat, fits=fits)
