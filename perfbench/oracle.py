"""Output oracle for the bernmix benchmark, built apart from bernmix.

Basis densities and cell masses come from ``scipy.stats.beta``, the
truncated truths from ``scipy.stats.truncnorm``/``truncexpon``, and
integrals from this module's own composite Gauss-Legendre and Simpson
rules.  Nothing here imports bernmix.  Each ``check_*`` function returns
a list of messages, empty when the output passes.
"""

import math

import numpy as np
from scipy import stats

LOGLIK_RTOL = 1e-9
EVAL_TOL = 1e-9  # as a share of the density's maximum
INTEGRAL_TOL = 1e-4
# ISE from the program's 2001-point Simpson rule against this module's
# 8-point Gauss-Legendre rule on 1000 panels; the observed disagreement is
# below 2e-9 of the ISE, a wrong replicate or weight vector moves it by
# several per cent
ISE_RTOL = 1e-6
GAP_FLOOR = -1e-8  # n(max g - 1) >= 0 exactly; this allows rounding only
GAIN_FLOOR = 1e-12

TRUNCATED_TRUTH = {
    "normal01": (stats.truncnorm(-4.0, 4.0), (-4.0, 4.0)),
    "exp1": (stats.truncexpon(4.0), (0.0, 4.0)),
}


# --- the model, from scipy.stats.beta ----------------------------------------


def basis_pdf(m, u):
    j = np.arange(m + 1)
    return stats.beta.pdf(np.asarray(u, float)[:, None], j + 1, m - j + 1)


def basis_cdf(m, u):
    j = np.arange(m + 1)
    return stats.beta.cdf(np.asarray(u, float)[:, None], j + 1, m - j + 1)


def cell_masses(m, unit_breakpoints):
    return np.diff(basis_cdf(m, unit_breakpoints), axis=0)


def elevate(p, degree):
    """Weights of the same density at a higher degree."""
    p = np.asarray(p, float)
    while p.size - 1 < degree:
        m = p.size - 1
        k = np.arange(m + 2)
        up = np.zeros(m + 2)
        up[:-1] += (m + 1 - k[:-1]) * p
        up[1:] += k[1:] * p
        p = up / (m + 2)
    return p


def loglik_raw(p, u):
    dens = basis_pdf(len(p) - 1, u) @ np.asarray(p, float)
    return float(np.sum(np.log(dens))) if np.all(dens > 0.0) else -math.inf


def loglik_grouped(p, unit_breakpoints, counts):
    theta = cell_masses(len(p) - 1, unit_breakpoints) @ np.asarray(p, float)
    counts = np.asarray(counts, float)
    pos = counts > 0
    if np.any(theta[pos] <= 0.0):
        return -math.inf
    return float(counts[pos] @ np.log(theta[pos]))


def _gap(a, p, weights):
    """n (max_j g_j - 1), g = A^T (w / (A p)) / n: the gradient bound."""
    n = weights.sum()
    g = a.T @ (weights / (a @ p)) / n
    return float(n * (g.max() - 1.0))


def gap_raw(p, u):
    p = np.asarray(p, float)
    return _gap(basis_pdf(p.size - 1, u), p, np.ones(len(u)))


def gap_grouped(p, unit_breakpoints, counts):
    p = np.asarray(p, float)
    counts = np.asarray(counts, float)
    pos = counts > 0
    return _gap(cell_masses(p.size - 1, unit_breakpoints)[pos], p, counts[pos])


def change_point_index(logliks):
    """Index of the degree picked by the exponential mean-shift change point.

    R(tau) = k log(S_k/k) - tau log(S_tau/tau) - (k-tau) log((S_k-S_tau)/(k-tau))
    with S_tau the loglik gain over the first degree, zero gains floored
    at 1e-12, R(k) = 0 and the first maximiser taken.
    """
    ll = np.asarray(logliks, float)
    k = ll.size - 1
    total = ll[-1] - ll[0]
    best, best_r = k, 0.0
    for tau in range(1, k):
        head = max(ll[tau] - ll[0], GAIN_FLOOR)
        tail = max(ll[-1] - ll[tau], GAIN_FLOOR)
        r = k * math.log(total / k) - tau * math.log(head / tau) - (k - tau) * math.log(tail / (k - tau))
        if r > best_r or (tau < best and r == best_r):
            best, best_r = tau, r
    return best


def moment_lower_bound(unit_breakpoints, counts):
    u = np.asarray(unit_breakpoints, float)
    c = np.asarray(counts, float)
    mid = 0.5 * (u[:-1] + u[1:])
    n = c.sum()
    mu = float(c @ mid) / n
    var = float(c @ (mid - mu) ** 2) / (n - 1.0)
    return max(1, math.ceil(mu * (1.0 - mu) / var - 3.0))


# --- truths and quadrature ---------------------------------------------------


def truth_unit_pdf(tag):
    """Density of the truncated scenario law on the unit interval."""
    dist, (a, b) = TRUNCATED_TRUTH[tag]
    width = b - a
    return (lambda u: width * dist.pdf(a + np.asarray(u, float) * width)), width


def _gauss_legendre(panels=1000, order=8):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    h = np.diff(edges)[:, None]
    nodes = edges[:-1, None] + 0.5 * h * (x[None, :] + 1.0)
    return nodes.ravel(), (0.5 * h * w[None, :]).ravel()


NODES, WEIGHTS = _gauss_legendre()


def ise(p, tag):
    """Plain ISE of the mixture against the truth, in original-scale units."""
    truth, width = truth_unit_pdf(tag)
    diff = basis_pdf(len(p) - 1, NODES) @ np.asarray(p, float) - truth(NODES)
    return float(WEIGHTS @ diff**2) / width


def simpson(y, x):
    """Composite Simpson rule on an equally spaced grid with an even count of intervals."""
    h = (x[-1] - x[0]) / (len(x) - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


# --- checks ------------------------------------------------------------------


def check_simplex(p, where):
    p = np.asarray(p, float)
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        return [f"{where}: weights off the simplex"]
    return []


def check_loglik(got, want, where):
    if not (math.isfinite(got) and abs(got - want) <= LOGLIK_RTOL * max(1.0, abs(want))):
        return [f"{where}: loglik {got!r} but the oracle gives {want!r}"]
    return []


def check_gap(gap, where):
    if not (math.isfinite(gap) and gap >= GAP_FLOOR):
        return [f"{where}: gradient gap {gap!r} is not finite and >= 0"]
    return []


def check_scan(scan, loglik, gap, where):
    """Every fit of a degree scan against the oracle; returns (errors, largest gap)."""
    errors, gaps = [], []
    for m, ll, p in zip(scan["degrees"], scan["logliks"], scan["weights"]):
        at = f"{where} degree {m}"
        if len(p) != m + 1:
            errors.append(f"{at}: {len(p)} weights")
            continue
        errors += check_simplex(p, at)
        errors += check_loglik(ll, loglik(p), at)
        g = gap(p)
        errors += check_gap(g, at)
        gaps.append(g)
    want = scan["degrees"][change_point_index(scan["logliks"])]
    if scan["m_hat"] != want:
        errors.append(f"{where}: m_hat {scan['m_hat']} but the change point of the logliks is {want}")
    return errors, max(gaps, default=0.0)


def check_eval(x, density, cdf, p, support, where):
    """Density and CDF rows of `bernmix eval` against the oracle."""
    a, b = support
    u = (np.asarray(x, float) - a) / (b - a)
    want_pdf = basis_pdf(len(p) - 1, u) @ np.asarray(p, float) / (b - a)
    want_cdf = basis_cdf(len(p) - 1, u) @ np.asarray(p, float)
    scale = float(np.max(want_pdf))
    errors = []
    if np.max(np.abs(density - want_pdf)) > EVAL_TOL * scale:
        errors.append(f"{where}: density differs from the oracle by more than {EVAL_TOL:g} of its maximum")
    if np.max(np.abs(cdf - want_cdf)) > EVAL_TOL:
        errors.append(f"{where}: CDF differs from the oracle by more than {EVAL_TOL:g}")
    if np.any(np.diff(cdf) < -1e-12) or abs(cdf[0]) > 1e-12 or abs(cdf[-1] - 1.0) > 1e-12:
        errors.append(f"{where}: CDF is not nondecreasing from 0 to 1")
    mass = simpson(np.asarray(density, float), np.asarray(x, float))
    if abs(mass - 1.0) > INTEGRAL_TOL:
        errors.append(f"{where}: density integrates to {mass!r}")
    return errors


def read_grouped_csv(path):
    """(breakpoints, counts) of a lower,upper,count file."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return np.append(rows[:, 0], rows[-1, 1]), rows[:, 2].astype(int)
