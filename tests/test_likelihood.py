import math

import numpy as np
import pytest

from bernmix import (
    GroupedSample,
    RawSample,
    RoundedSample,
    SimplexWeights,
    beta_density,
    cell_probabilities,
    degree_elevate,
    loglik_grouped,
    loglik_raw,
    loglik_rounded,
    rounded_to_grouped,
)


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
