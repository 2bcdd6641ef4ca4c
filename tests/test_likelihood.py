import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernmix import (
    GroupedSample,
    RawSample,
    RoundedSample,
    SimplexWeights,
    basis_matrix,
    beta_cdf,
    beta_density,
    cdf_matrix,
    cell_probabilities,
    degree_elevate,
    loglik_grouped,
    loglik_raw,
    loglik_rounded,
    rounded_to_grouped,
)
from bernmix.likelihood import _problems


def cell_basis_matrix(m, unit_breakpoints):
    """Per-cell basis masses B_mj(u_i) - B_mj(u_{i-1}); rows are cells."""
    return np.diff(cdf_matrix(m, unit_breakpoints), axis=0)


class TestRawLoglik:
    def test_uniform_weights_give_zero(self):
        data = RawSample(np.array([0.1, 0.4, 0.9]))
        assert loglik_raw(SimplexWeights(np.array([1.0])), data) == 0.0

    def test_degree_one_point_mass(self):
        data = RawSample(np.array([0.5]))
        assert loglik_raw(SimplexWeights(np.array([1.0, 0.0])), data) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(4))
        x = rng.uniform(size=20)
        data = RawSample(x)
        naive = sum(
            math.log(sum(p[j] * beta_density(3, j, xi) for j in range(4))) for xi in x
        )
        assert loglik_raw(SimplexWeights(p), data) == pytest.approx(naive, abs=1e-10)

    def test_zero_density_gives_neg_inf(self):
        # all weight on the first component, which vanishes at t = 1
        data = RawSample(np.array([0.2, 1.0]))
        assert loglik_raw(SimplexWeights(np.array([1.0, 0.0])), data) == -np.inf


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sample_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RawSample(np.array([0.2, bad, 0.7]))


class TestGroupedLoglik:
    def test_uniform_four_cells(self):
        g = GroupedSample(np.linspace(0, 1, 5), [1, 1, 1, 1])
        w = SimplexWeights(np.array([1.0]))
        assert loglik_grouped(w, g, (0, 1)) == pytest.approx(4 * math.log(0.25))

    def test_single_populated_cell(self):
        g = GroupedSample([0.0, 0.25, 0.6, 1.0], [0, 7, 0])
        w = SimplexWeights(np.array([1.0]))
        assert loglik_grouped(w, g, (0, 1)) == pytest.approx(7 * math.log(0.35))

    def test_composition_with_cell_probabilities(self):
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(3))
        bp = np.array([0.0, 0.1, 0.35, 0.5, 0.8, 1.0])
        counts = rng.integers(0, 20, size=5)
        g = GroupedSample(bp, counts)
        theta = cell_probabilities(SimplexWeights(p), bp, (0, 1))
        expected = float(np.sum(counts * np.log(theta)))
        assert loglik_grouped(SimplexWeights(p), g, (0, 1)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_populated_zero_probability_cell(self):
        # degree-1 weight on the falling component: zero mass only at the point 1,
        # so force a zero cell with a degenerate weight at degree larger than 1
        w = SimplexWeights(np.array([1.0, 0.0]))
        g = GroupedSample([0.0, 1.0 - 1e-16, 1.0], [1, 1])
        assert loglik_grouped(w, g, (0, 1)) == -np.inf

    def test_all_empty_sample_raises(self):
        # no observation at all: the error of an empty raw sample and of a fit
        g = GroupedSample([0.0, 0.5, 1.0], [0, 0])
        with pytest.raises(ValueError, match="positive total count"):
            loglik_grouped(SimplexWeights(np.array([0.5, 0.5])), g, (0, 1))


class TestProblems:
    @pytest.mark.parametrize("m", [1882, 100_000])
    def test_degree_past_the_evaluator_rejected_before_any_matrix(self, m, monkeypatch):
        import bernmix.likelihood

        def no_matrix(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(bernmix.likelihood, "basis_matrix", no_matrix)
        monkeypatch.setattr(bernmix.likelihood, "cdf_matrix", no_matrix)
        atoms = (np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        grouped = GroupedSample([0.0, 0.5, 1.0], [3, 4])
        for data, support in ((RawSample(np.array([0.2, 0.7])), None), (grouped, (0, 1)), (atoms, None)):
            with pytest.raises(ValueError, match=f"degree {m} is above"):
                next(_problems(data, support, m))

    def test_a_scan_stops_at_the_evaluator_range(self):
        problems = _problems(RawSample(np.array([0.3])), None, 1880)
        assert next(problems)[0].shape == (1, 1881)
        assert next(problems)[0].shape == (1, 1882)
        with pytest.raises(ValueError, match="degree 1882 is above"):
            next(problems)

    @pytest.mark.parametrize(
        "masses, message",
        [
            ([0.5, np.nan], "must be finite"),
            ([np.inf, 0.5], "must be finite"),
            ([0.5, -0.1], "must be nonnegative"),
            ([0.0, 0.0], "positive atom mass"),
        ],
    )
    def test_unusable_atom_masses_rejected(self, masses, message):
        with pytest.raises(ValueError, match=message):
            next(_problems((np.array([0.25, 0.75]), np.array(masses)), None, 3))


class TestRoundedLoglik:
    def test_half_grid_cell(self):
        data = RoundedSample(np.full(6, 0.5), 2)
        w = SimplexWeights(np.array([1.0]))
        assert loglik_rounded(w, data, (0, 1)) == pytest.approx(6 * math.log(0.5))

    def test_boundary_cell_clipped(self):
        data = RoundedSample(np.zeros(4), 1)
        w = SimplexWeights(np.array([1.0]))
        # the tiling of [0, 1] at K = 1 is (0, 0.5] and (0.5, 1]
        assert loglik_rounded(w, data, (0, 1)) == pytest.approx(4 * math.log(0.5))

    def test_matches_explicit_grouping(self):
        rng = np.random.default_rng(4)
        vals = np.round(rng.uniform(size=40), 1)
        data = RoundedSample(vals, 10)
        p = SimplexWeights(rng.dirichlet(np.ones(4)))
        g = rounded_to_grouped(data, (0.0, 1.0))
        assert g.n == 40
        assert g.breakpoints[0] == 0.0 and g.breakpoints[-1] == 1.0
        assert loglik_rounded(p, data, (0.0, 1.0)) == loglik_grouped(p, g, (0.0, 1.0))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            RoundedSample(np.array([0.05, 0.5]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sample_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RoundedSample(np.array([0.5, bad]), 10)


class TestGroupedRawLimit:
    def test_gap_shrinks_with_finer_cells(self):
        rng = np.random.default_rng(100)
        x = rng.uniform(size=100)
        data = RawSample(x)
        p = SimplexWeights(rng.dirichlet(np.ones(5)))
        ll_raw = loglik_raw(p, data)
        gaps = []
        for n_cells in (100, 1000, 10_000):
            bp = np.linspace(0.0, 1.0, n_cells + 1)
            idx = np.clip(np.searchsorted(bp, x, side="left") - 1, 0, n_cells - 1)
            g = GroupedSample(bp, np.bincount(idx, minlength=n_cells))
            shifted = loglik_grouped(p, g, (0, 1)) - float(
                g.counts @ np.log(np.diff(bp))
            )
            gaps.append(abs(shifted - ll_raw))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2


class TestNestednessAndConcavity:
    def test_loglik_invariant_under_elevation(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(size=60)
        data = RawSample(x)
        bp = np.linspace(0, 1, 8)
        idx = np.clip(np.searchsorted(bp, x, side="left") - 1, 0, 6)
        g = GroupedSample(bp, np.bincount(idx, minlength=7))
        for _ in range(10):
            m = int(rng.integers(0, 8))
            r = int(rng.integers(1, 4))
            p = rng.dirichlet(np.ones(m + 1))
            lifted = SimplexWeights(degree_elevate(p, r))
            w = SimplexWeights(p)
            assert loglik_raw(lifted, data) == pytest.approx(
                loglik_raw(w, data), abs=1e-9
            )
            assert loglik_grouped(lifted, g, (0, 1)) == pytest.approx(
                loglik_grouped(w, g, (0, 1)), abs=1e-9
            )

    def test_concave_along_simplex_segments(self):
        rng = np.random.default_rng(33)
        x = rng.beta(2, 3, size=80)
        data = RawSample(x)
        bp = np.linspace(0, 1, 6)
        idx = np.clip(np.searchsorted(bp, x, side="left") - 1, 0, 4)
        g = GroupedSample(bp, np.bincount(idx, minlength=5))
        for _ in range(10):
            m = int(rng.integers(1, 7))
            p = rng.dirichlet(np.ones(m + 1))
            q = rng.dirichlet(np.ones(m + 1))
            for lam in np.linspace(0.1, 0.9, 9):
                mid = SimplexWeights(lam * p + (1 - lam) * q)
                for ll in (
                    lambda w: loglik_raw(w, data),
                    lambda w: loglik_grouped(w, g, (0, 1)),
                ):
                    lhs = ll(mid)
                    rhs = lam * ll(SimplexWeights(p)) + (1 - lam) * ll(SimplexWeights(q))
                    assert lhs >= rhs - 1e-9


# points where one basis function holds (nearly) all the mass, or where
# t^j and (1-t)^(m-j) underflow
EDGE_POINTS = [0.0, 1.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]
EPS = np.finfo(float).eps


def exact_cdfs(m, t):
    """B_mj(t), j = 0..m, as numerators over one denominator: P(Binomial(m+1, t) > j).

    t = p/q exactly (q a power of 2), so every term is an integer over q^(m+1).
    """
    p, q = float(t).as_integer_ratio()
    terms = [math.comb(m + 1, k) * p**k * (q - p) ** (m + 1 - k) for k in range(m + 2)]
    return list(itertools.accumulate(reversed(terms)))[::-1][1:], q ** (m + 1)


def exact_cell_masses(m, t):
    """B_mj(t_i) - B_mj(t_{i-1}), each rounded once (int / int is correctly rounded)."""
    cdfs = [exact_cdfs(m, x) for x in t]
    return np.array(
        [[(hi * d_lo - lo * d_hi) / (d_lo * d_hi) for lo, hi in zip(a, b)]
         for (a, d_lo), (b, d_hi) in zip(cdfs[:-1], cdfs[1:])]
    )


def exact_pmfs(m, t):
    p, q = float(t).as_integer_ratio()
    return [math.comb(m, j) * p**j * (q - p) ** (m - j) / q**m for j in range(m + 1)]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    points=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_POINTS)), max_size=8),
    m0=st.integers(0, 8),
    top=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_recurrence_matches_the_closed_forms(points, m0, top, seed):
    # every degree the problem iterator derives from its first matches the
    # closed forms of basis and, at the last degree, the beta_cdf and
    # beta_density oracle columns and the exact rational values.  The
    # tolerance is (m+1) eps on the CDF and pmf scale: each degree of the
    # recurrence adds about one rounding, and the closed forms (exp of a sum
    # of logs) are themselves off the exact values by up to ~5e-15 at m = 60
    top = max(top, m0)
    rng = np.random.default_rng(seed)
    t = np.unique(np.concatenate(([0.0, 1.0], points)))
    counts = rng.integers(0, 3, size=t.size - 1)
    counts[rng.integers(counts.size)] += 1
    masses = rng.uniform(size=t.size) * (rng.uniform(size=t.size) < 0.7)
    masses[rng.integers(t.size)] += 1.0
    populated, atoms = counts > 0, masses > 0.0
    grouped = _problems(GroupedSample(t, counts), (0.0, 1.0), m0)
    raw = _problems(RawSample(t), None, m0)
    quadrature = _problems((t, masses), None, m0)
    for m in range(m0, top + 1):
        cells, w_cells = next(grouped)
        dens, w_raw = next(raw)
        dens_atoms, w_atoms = next(quadrature)
        tol = (m + 1) * EPS
        np.testing.assert_array_equal(w_cells, counts[populated])
        np.testing.assert_array_equal(w_raw, np.ones(t.size))
        np.testing.assert_array_equal(w_atoms, masses[atoms])
        np.testing.assert_allclose(cells, cell_basis_matrix(m, t)[populated], rtol=0, atol=2 * tol)
        np.testing.assert_allclose(dens, basis_matrix(m, t), rtol=0, atol=2 * tol * (m + 1))
        np.testing.assert_allclose(dens_atoms, basis_matrix(m, t[atoms]), rtol=0, atol=2 * tol * (m + 1))
    cdf_columns = np.array([beta_cdf(top, j, t) for j in range(top + 1)]).T
    density_columns = np.array([beta_density(top, j, t) for j in range(top + 1)]).T
    np.testing.assert_allclose(cells, np.diff(cdf_columns, axis=0)[populated], rtol=0, atol=2 * tol)
    np.testing.assert_allclose(dens, density_columns, rtol=0, atol=2 * tol * (m + 1))
    np.testing.assert_allclose(cells, exact_cell_masses(top, t)[populated], rtol=0, atol=tol)
    exact_pmf = np.array([exact_pmfs(top, x) for x in t])
    np.testing.assert_allclose(dens / (top + 1), exact_pmf, rtol=0, atol=tol)
