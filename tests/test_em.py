import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernmix import (
    BernsteinMixture,
    EmConfig,
    GroupedSample,
    RawSample,
    ScenarioSpec,
    SimplexWeights,
    basis_matrix,
    degree_elevate,
    em_grouped,
    em_raw,
    group,
    loglik_grouped,
    loglik_raw,
)
from bernmix.em import (
    GAP_TOL,
    QP_TOL,
    SQP_RIDGE,
    _fit,
    _nonnegative_qp,
    em_step,
)
from bernmix.likelihood import _loglik, _problem, _problems
from bernmix.model import cell_basis_matrix
from bernmix.sim import best_mixture_approximation, true_unit_pdf


def simplex_grid_best(loglik_fn, step=0.01, refine=0.001):
    """Brute-force maximum of a degree-2 loglik over the simplex."""

    def scan(p0s, p1_lo_hi=None):
        best = (-np.inf, None)
        for p0 in p0s:
            lo, hi = (0.0, 1.0 - p0) if p1_lo_hi is None else p1_lo_hi
            hi = min(hi, 1.0 - p0)
            for p1 in np.arange(lo, hi + 1e-12, step_local):
                p2 = 1.0 - p0 - p1
                if p2 < -1e-12:
                    continue
                ll = loglik_fn(np.array([p0, p1, max(p2, 0.0)]))
                if ll > best[0]:
                    best = (ll, (p0, p1))
        return best

    step_local = step
    best = scan(np.arange(0.0, 1.0 + 1e-12, step))
    p0c, p1c = best[1]
    step_local = refine
    fine = scan(
        np.arange(max(0.0, p0c - step), min(1.0, p0c + step) + 1e-12, refine),
        (max(0.0, p1c - step), p1c + step),
    )
    return max(best[0], fine[0])


class TestEmRaw:
    def test_degree_zero(self):
        rep = em_raw(RawSample(np.array([0.2, 0.8])), 0)
        np.testing.assert_allclose(rep.weights.p, [1.0])
        assert rep.loglik == 0.0
        assert rep.iterations == 1
        assert rep.converged

    def test_flat_point_keeps_uniform_init(self):
        # both degree-1 basis densities equal 1 at t = 0.5
        rep = em_raw(RawSample(np.array([0.5])), 1)
        np.testing.assert_allclose(rep.weights.p, [0.5, 0.5])
        assert rep.loglik == pytest.approx(0.0, abs=1e-14)

    def test_matches_simplex_grid_search(self):
        rng = np.random.default_rng(42)
        x = rng.beta(2, 2, size=50)
        data = RawSample(x)
        rep = em_raw(data, 2, EmConfig(tol=1e-11))
        b = basis_matrix(2, data.unit_values())
        best = simplex_grid_best(lambda p: float(np.log(b @ p + 1e-300).sum()))
        assert rep.loglik == pytest.approx(best, abs=1e-3)

    def test_loglik_field_matches_function(self):
        rng = np.random.default_rng(1)
        data = RawSample(rng.uniform(size=40))
        rep = em_raw(data, 5)
        assert rep.loglik == pytest.approx(loglik_raw(rep.weights, data), abs=1e-9)


class TestEmGrouped:
    def test_degree_zero(self):
        g = GroupedSample([0.0, 0.5, 1.0], [3, 4])
        rep = em_grouped(g, (0, 1), 0)
        np.testing.assert_allclose(rep.weights.p, [1.0])
        assert rep.iterations == 1

    def test_symmetric_counts_give_symmetric_weights(self):
        g = GroupedSample(np.linspace(0, 1, 5), [6, 6, 6, 6])
        rep = em_grouped(g, (0, 1), 1)
        assert abs(rep.weights.p[0] - rep.weights.p[1]) < 1e-6

    def test_matches_simplex_grid_search(self):
        g = GroupedSample(np.linspace(0, 1, 6), [10, 25, 30, 25, 10])
        rep = em_grouped(g, (0, 1), 2, EmConfig(tol=1e-11))
        a_mat = cell_basis_matrix(2, g.breakpoints)
        counts = g.counts.astype(float)
        best = simplex_grid_best(
            lambda p: float(counts @ np.log(a_mat @ p + 1e-300))
        )
        assert rep.loglik == pytest.approx(best, abs=1e-3)

    def test_loglik_field_matches_function(self):
        g = GroupedSample(np.linspace(0, 1, 8), [2, 9, 14, 11, 7, 4, 1])
        rep = em_grouped(g, (0, 1), 4)
        assert rep.loglik == pytest.approx(
            loglik_grouped(rep.weights, g, (0, 1)), abs=1e-9
        )

    def test_shifted_support(self):
        g = GroupedSample(np.linspace(-2, 2, 9), [1, 4, 9, 14, 15, 8, 5, 2])
        rep = em_grouped(g, (-2.0, 2.0), 3)
        assert rep.converged
        assert np.isfinite(rep.loglik)


class TestEmProperties:
    def test_monotone_ascent_and_simplex(self):
        rng = np.random.default_rng(77)
        for i in range(25):
            m = int(rng.integers(0, 16))
            n = int(rng.integers(20, 501))
            truth = SimplexWeights(rng.dirichlet(np.ones(m + 1)))
            x = BernsteinMixture(truth).sample(n, seed=100 + i)
            data = RawSample(x)
            if i % 2:
                rep = em_raw(data, m, EmConfig(max_iter=3000))
            else:
                g = group(data, int(rng.integers(5, 31)))
                rep = em_grouped(g, (0, 1), m, EmConfig(max_iter=3000))
            assert np.all(np.diff(rep.loglik_trace) >= -1e-10)
            assert np.all(rep.weights.p >= 0.0)
            assert abs(rep.weights.p.sum() - 1.0) < 1e-12

    def test_unique_maximum_across_inits(self):
        rng = np.random.default_rng(5)
        x = rng.beta(3, 2, size=150)
        data = RawSample(x)
        finals = []
        for _ in range(10):
            init = SimplexWeights(rng.dirichlet(np.ones(5)) * 0.9 + 0.02)
            rep = em_raw(data, 4, EmConfig(tol=1e-12, init=init))
            finals.append(rep.loglik)
        assert max(finals) - min(finals) < 1e-6

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(6)
        data = RawSample(rng.beta(2, 5, size=200))
        rep = em_raw(data, 6, EmConfig(tol=1e-11))
        b = basis_matrix(6, data.unit_values())
        p = np.maximum(rep.weights.p, 1e-300)
        ones = np.ones(data.n)
        p_next, ll_here = em_step(p, b, ones)
        _, ll_next = em_step(p_next, b, ones)
        assert abs(ll_next - ll_here) < 1e-8

    def test_stopping_rule_config(self):
        with pytest.raises(ValueError):
            EmConfig(tol=0.0)
        with pytest.raises(ValueError):
            EmConfig(max_iter=0)
        with pytest.raises(ValueError):
            EmConfig(init=SimplexWeights(np.array([1.0, 0.0])))

    def test_max_iter_reached_flags_not_converged(self):
        rng = np.random.default_rng(9)
        data = RawSample(rng.beta(2, 2, size=300))
        rep = em_raw(data, 10, EmConfig(tol=1e-14, max_iter=5))
        assert not rep.converged
        assert rep.stop_reason == "max_iter"
        assert rep.iterations == 5
        assert rep.gap > 1e-3

    def test_gap_is_the_gradient_bound_at_the_weights(self):
        rng = np.random.default_rng(10)
        data = RawSample(rng.beta(2, 5, size=200))
        rep = em_raw(data, 6)
        assert rep.stop_reason == "converged"
        b = basis_matrix(6, data.unit_values())
        g = b.T @ (1.0 / (b @ rep.weights.p)) / data.n
        assert rep.gap == pytest.approx(data.n * (g.max() - 1.0), rel=1e-9, abs=1e-12)
        assert rep.gap >= 0.0
        # the gap bounds the loglik distance to a tightly converged fit
        tight = em_raw(data, 6, EmConfig(tol=1e-13, max_iter=300_000))
        assert 0.0 <= tight.loglik - rep.loglik <= rep.gap + 1e-9

        g_data = group(data, 12)
        rep = em_grouped(g_data, (0, 1), 4)
        a_mat = cell_basis_matrix(4, g_data.breakpoints)
        pos = g_data.counts > 0
        grad = a_mat[pos].T @ (g_data.counts[pos] / (a_mat[pos] @ rep.weights.p))
        assert rep.gap == pytest.approx(grad.max() - g_data.n, rel=1e-9, abs=1e-12)

    def test_elapsed_is_the_wall_time_of_the_fit(self):
        rng = np.random.default_rng(12)
        data = RawSample(rng.beta(2, 5, size=200))
        g_data = group(data, 12)
        p0 = np.full(5, 0.2)
        for fit in (
            lambda: em_raw(data, 4),
            lambda: em_grouped(g_data, (0, 1), 4),
            lambda: _fit(_problems(data, (0, 1), 4), p0),
            lambda: _fit(_problems(g_data, (0, 1), 4), p0),
        ):
            start = time.perf_counter()
            rep = fit()
            wall = time.perf_counter() - start
            assert 0.0 < rep.elapsed_s <= wall

    def test_grouped_empty_cells_are_skipped(self):
        g = GroupedSample(np.linspace(0, 1, 11), [0, 0, 12, 30, 18, 0, 0, 0, 0, 0])
        rep = em_grouped(g, (0, 1), 3)
        assert rep.converged
        assert np.isfinite(rep.loglik)


class TestCertifiedSolver:
    def test_agrees_with_tight_em(self):
        # the certified solver reaches at least the loglik of EM run to a
        # 1e-13 relative change, and certifies its own gap
        rng = np.random.default_rng(31)
        for i in range(16):
            m = int(rng.integers(0, 16))
            n = int(rng.integers(20, 301))
            truth = SimplexWeights(rng.dirichlet(np.ones(m + 1)))
            data = RawSample(BernsteinMixture(truth).sample(n, seed=300 + i))
            tight = EmConfig(tol=1e-13, max_iter=300_000)
            uniform = np.full(m + 1, 1.0 / (m + 1))
            if i % 2:
                ref = em_raw(data, m, tight)
                rep = _fit(_problems(data, data.support, m), uniform)
            else:
                g = group(data, int(rng.integers(5, 31)))
                ref = em_grouped(g, (0, 1), m, tight)
                rep = _fit(_problems(g, (0.0, 1.0), m), uniform)
            assert rep.stop_reason == "converged"
            assert rep.loglik >= ref.loglik - 1e-9
            assert rep.gap <= 1e-8
            assert abs(rep.weights.p.sum() - 1.0) < 1e-12

    def test_boundary_points_and_empty_cells(self):
        # points at 0 and 1 have mass under one basis density only, and a
        # degree well above the populated cell count leaves many weights at 0
        rng = np.random.default_rng(3)
        tight = EmConfig(tol=1e-13, max_iter=300_000)
        data = RawSample(np.concatenate(([0.0, 0.0, 1.0], rng.beta(2, 3, size=80))))
        counts = np.zeros(40, dtype=int)
        counts[10:22] = rng.integers(0, 9, size=12)
        g = GroupedSample(np.linspace(0.0, 1.0, 41), counts)
        for rep, ref in (
            (_fit(_problems(data, data.support, 8), np.full(9, 1.0 / 9)), em_raw(data, 8, tight)),
            (_fit(_problems(g, (0.0, 1.0), 30), np.full(31, 1.0 / 31)), em_grouped(g, (0, 1), 30, tight)),
        ):
            assert rep.stop_reason == "converged"
            assert rep.gap <= 1e-8
            assert rep.loglik >= ref.loglik - 1e-9

    @pytest.mark.parametrize("nodes", [256, 512])
    @pytest.mark.parametrize("tag", ["normal01", "exp1", "logistic"])
    @pytest.mark.parametrize("m", [4, 8, 16, 32, 48, 64])
    def test_cold_population_fit_is_certified(self, m, tag, nodes):
        # quadrature atoms of a smooth truth: without the row-mass guard a
        # cold Newton step pushes tail row masses to ~1e-74 and the fit
        # stops at the step cap
        x, w = np.polynomial.legendre.leggauss(nodes)
        t = 0.5 * (x + 1.0)
        mass = 0.5 * w * true_unit_pdf(ScenarioSpec(tag, n=1, n_cells=1))(t)
        rep = _fit(_problems((t, mass), None, m), np.full(m + 1, 1.0 / (m + 1)))
        assert rep.converged
        assert rep.gap <= GAP_TOL


def test_negative_degree_is_rejected():
    # the uniform start 1/(m+1) of degree -1 divides by zero
    raw = RawSample(np.array([0.2, 0.5, 0.7]))
    fits = (
        lambda m: em_raw(raw, m),
        lambda m: em_grouped(group(raw, 3), (0.0, 1.0), m),
        lambda m: best_mixture_approximation(lambda t: np.ones_like(t), m),
    )
    for fit in fits:
        for m in (-1, -2):
            with pytest.raises(ValueError, match="degree must be nonnegative"):
                fit(m)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(rows=st.integers(1, 15), k=st.integers(1, 45), seed=st.integers(0, 2**32 - 1))
def test_qp_minimiser_does_not_depend_on_the_start(rows, k, seed):
    # the Newton QP of one outer SQP step: H = S'S + ridge, S of size
    # rows x k, at a random interior point x of a sparse mass matrix
    rng = np.random.default_rng(seed)
    a = rng.uniform(size=(rows, k)) * (rng.uniform(size=(rows, k)) < 0.5)
    a[np.arange(rows), rng.integers(k, size=rows)] += 1.0
    v = rng.dirichlet(np.ones(rows))
    x = rng.dirichlet(np.ones(k))
    theta = a @ x
    s = a * (np.sqrt(v) / theta)[:, None]
    h = s.T @ s
    h.flat[:: k + 1] += SQP_RIDGE * np.trace(h) / k
    c = 1.0 - a.T @ (v / theta) - h @ x

    full = _nonnegative_qp(h, c, np.ones(k))
    sparse = rng.uniform(size=k) * (rng.uniform(size=k) < 0.3)
    starts = {"zero": np.zeros(k), "sparse": sparse, "optimal support": full}
    solutions = {"full": full, **{name: _nonnegative_qp(h, c, y0) for name, y0 in starts.items()}}
    objective = {name: 0.5 * y @ h @ y + c @ y for name, y in solutions.items()}
    best = min(objective.values())
    for name, y in solutions.items():
        assert objective[name] - best <= 1e-12 * abs(best), name
        assert np.all(y >= 0.0), name
        grad = h @ y + c
        scale = np.abs(h).max() * np.abs(y).max() + np.abs(c).max()
        assert np.all(np.abs(grad[y > 0.0]) <= 1e-12 * scale), name
        assert np.all(grad[y == 0.0] >= -QP_TOL), name


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(1, 200),
    cells=st.integers(1, 25),
    m=st.integers(0, 40),
    ends=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_row_problem_matches_the_likelihoods(n, cells, m, ends, seed):
    # a raw sample (with up to two points at the support ends, where only
    # one basis density is positive), its grouping into cells some of which
    # are empty, and simplex weights with some entries at exactly 0
    rng = np.random.default_rng(seed)
    x = rng.beta(rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0), size=n)
    x[: min(ends, n)] = rng.integers(0, 2, size=min(ends, n))
    raw = RawSample(x)
    grouped = group(raw, cells)
    p = rng.dirichlet(np.ones(m + 1)) * (rng.uniform(size=m + 1) < 0.7)
    p[rng.integers(m + 1)] += 0.1
    w = SimplexWeights(p / p.sum())
    for data, support, loglik in (
        (raw, None, loglik_raw),
        (grouped, (0.0, 1.0), lambda w, g: loglik_grouped(w, g, (0.0, 1.0))),
    ):
        a, rows = _problem(data, support, m)
        assert np.all(rows > 0.0)
        ll = _loglik(a, rows, w.p)
        want = loglik(w, data)
        assert not np.isnan(ll)
        assert ll == want or abs(ll - want) <= 1e-12
        elevated = loglik(w.elevate(1), data)
        if np.isfinite(ll):
            assert abs(elevated - ll) <= 1e-10
            p_next, ll_step = em_step(w.p, a, rows)
            assert ll_step == pytest.approx(ll, rel=0.0, abs=1e-12)
            assert np.all(p_next >= 0.0)
            assert abs(p_next.sum() - 1.0) <= 1e-12
        else:
            assert ll == elevated == -np.inf


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(2, 80),
    cells=st.integers(2, 20),
    m0=st.integers(0, 24),
    k=st.integers(2, 6),
    ends=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
# both points on the support ends: at degree 2 no row has mass under
# b_{2,1}, so the Hessian column of that weight has zero curvature
@example(n=2, cells=2, m0=0, k=2, ends=2, seed=0)
def test_certified_fits_bound_their_gap(n, cells, m0, k, ends, seed):
    # the fits of a degree scan on a raw sample (points at the support
    # ends included) and on its grouping: the problems come from one
    # iterator and every later fit starts from the elevated previous one.
    # The returned gap is a gradient bound at simplex weights, computed as
    # a sum of nonnegative terms, so it is >= 0 even under rounding, and a
    # converged fit certifies it at GAP_TOL
    rng = np.random.default_rng(seed)
    x = rng.beta(rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0), size=n)
    x[: min(ends, n)] = rng.integers(0, 2, size=min(ends, n))
    raw = RawSample(x)
    for data, support in ((raw, None), (group(raw, cells), (0.0, 1.0))):
        problems, p0 = _problems(data, support, m0), None
        for m in range(m0, m0 + k + 1):
            rep = _fit(problems, p0)
            assert rep.weights.m == m
            assert rep.gap >= 0.0, (m, rep.gap)
            if rep.stop_reason == "converged":
                assert rep.gap <= GAP_TOL, (m, rep.gap)
            p0 = degree_elevate(rep.weights.p, 1)
