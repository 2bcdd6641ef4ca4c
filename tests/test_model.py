import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from bernmix import (
    BernsteinMixture,
    GroupedSample,
    RawSample,
    SimplexWeights,
    basis_matrix,
    beta_cdf,
    beta_density,
    cdf_matrix,
    cell_probabilities,
    lower_bound_degree,
    rounded_to_grouped,
    select_degree,
    to_unit,
)
from bernmix.cli import read_grouped_csv

CHICKEN_CSV = Path(__file__).resolve().parent.parent / "data" / "chicken_embryo.csv"


@pytest.fixture(scope="module")
def chicken_model():
    """The README's chicken-embryo model: degree 13, zero weight at the top end."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = select_degree(read_grouped_csv(CHICKEN_CSV), (0.0, 21.0), degrees=range(2, 51))
    return BernsteinMixture(trace.best_fit.weights, (0.0, 21.0))


def gl_integral(f, a, b, nodes=64):
    x, w = leggauss(nodes)
    t = 0.5 * (b - a) * (x + 1.0) + a
    return 0.5 * (b - a) * float(w @ f(t))


class TestToUnit:
    def test_endpoints_and_midpoint(self):
        assert to_unit(0.0, (0.0, 21.0)) == 0.0
        assert to_unit(21.0, (0.0, 21.0)) == 1.0
        assert to_unit(10.5, (0.0, 21.0)) == 0.5

    def test_outside_support_raises(self):
        with pytest.raises(ValueError):
            to_unit(-0.1, (0.0, 1.0))
        with pytest.raises(ValueError):
            to_unit(4.5, (0.0, 4.0))


@pytest.mark.parametrize(
    "support",
    [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan), (1.0, 1.0), (1.0, 0.0),
     (-1e308, 1e308)],
)
def test_every_support_needs_finite_ordered_ends(support):
    w = SimplexWeights(np.array([0.5, 0.5]))
    g = GroupedSample([0.0, 0.5, 1.0], [3, 4])
    uses = (
        lambda: to_unit(0.5, support),
        lambda: BernsteinMixture(w, support).pdf(1.0),
        lambda: select_degree(RawSample([0.2, 0.5, 0.7], support)),
        lambda: rounded_to_grouped([0.5, 1.0], 2, support),
        lambda: lower_bound_degree(g, support),
    )
    for use in uses:
        with pytest.raises(ValueError, match="finite ends a < b"):
            use()


class TestSimplexWeights:
    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SimplexWeights(np.array([0.5, bad, 0.5]))

    def test_uniform(self):
        w = SimplexWeights.uniform(4)
        assert w.m == 4
        np.testing.assert_allclose(w.p, 0.2)


class TestDensityAndCdf:
    def test_uniform_models(self):
        unit = BernsteinMixture(SimplexWeights(np.array([1.0])))
        assert unit.pdf(0.3) == 1.0
        wide = BernsteinMixture(SimplexWeights(np.array([1.0])), (0.0, 4.0))
        assert wide.pdf(1.0) == 0.25

    def test_density_is_direct_summation(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        mix = BernsteinMixture(SimplexWeights(p))
        expected = sum(p[j] * beta_density(3, j, 0.6) for j in range(4))
        assert mix.pdf(0.6) == pytest.approx(expected, rel=1e-14)

    def test_cdf_endpoints_and_value(self):
        rng = np.random.default_rng(0)
        mix = BernsteinMixture(SimplexWeights(rng.dirichlet(np.ones(6))), (-2.0, 3.0))
        assert mix.cdf(-2.0) == 0.0
        assert mix.cdf(3.0) == 1.0
        single = BernsteinMixture(SimplexWeights(np.array([1.0, 0.0])))
        assert single.cdf(0.5) == pytest.approx(beta_cdf(1, 0, 0.5), rel=1e-14)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = int(rng.integers(0, 14))
            mix = BernsteinMixture(
                SimplexWeights(rng.dirichlet(np.ones(m + 1))), (-1.0, 2.5)
            )
            assert gl_integral(mix.pdf, -1.0, 2.5) == pytest.approx(1.0, abs=1e-6)

    def test_batch_values_equal_pointwise_values(self):
        # a point's value does not depend on the other points it is
        # evaluated with
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(14))
        mix = BernsteinMixture(SimplexWeights(p), (0.0, 21.0))
        x = np.sort(rng.uniform(0.0, 21.0, size=4103))
        dens, cdf = mix.pdf(x), mix.cdf(x)
        for i in rng.choice(x.size, size=200, replace=False):
            assert dens[i] == mix.pdf(x[i]) and cdf[i] == mix.cdf(x[i])
        u = x / 21.0
        np.testing.assert_allclose(dens, basis_matrix(13, u) @ p / 21.0, rtol=1e-14)
        np.testing.assert_allclose(cdf, cdf_matrix(13, u) @ p, rtol=1e-14, atol=1e-16)

    def test_pdf_at_the_ends_is_the_end_weight(self):
        p = np.random.default_rng(6).dirichlet(np.ones(12))
        mix = BernsteinMixture(SimplexWeights(p))
        assert mix.pdf(0.0) == 12 * p[0] and mix.pdf(1.0) == 12 * p[-1]

    def test_cdf_is_exact_at_the_ends_and_nondecreasing(self, chicken_model):
        rng = np.random.default_rng(7)
        sparse = rng.dirichlet(np.ones(30))
        sparse[:4] = sparse[-6:] = 0.0  # the density vanishes near both ends
        weights = [rng.dirichlet(np.ones(m + 1)) for m in (0, 1, 7, 40)] + [sparse / sparse.sum()]
        models = [chicken_model] + [BernsteinMixture(SimplexWeights(p), (0.0, 21.0)) for p in weights]
        for mix in models:
            a, b = mix.support
            cdf = mix.cdf(np.linspace(a, b, 20_001))
            assert cdf[0] == 0.0 and cdf[-1] == 1.0
            assert mix.cdf(a) == 0.0 and mix.cdf(b) == 1.0
            assert np.all(np.diff(cdf) >= 0.0)

    def test_top_degree_cdf_and_cells(self):
        # the CDF summed at degree m + 1 and raised for m = 1881; uniform
        # weights are the uniform density at every degree, so F(t) = t.
        # At this degree the binomials are rounded near exp(1300), which
        # leaves the pdf 3.6e-13 off 1 and the CDF about half that.
        mix = BernsteinMixture(SimplexWeights(np.full(1882, 1.0 / 1882)))
        t = np.linspace(0.0, 1.0, 2001)
        cdf = mix.cdf(t)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        np.testing.assert_allclose(cdf, t, rtol=0.0, atol=4e-13)
        bp = np.concatenate(([0.0], np.sort(np.random.default_rng(3).uniform(size=19)), [1.0]))
        np.testing.assert_allclose(mix.cell_probabilities(bp), np.diff(bp), rtol=0.0, atol=4e-13)

    def test_cdf_equals_density_quadrature(self):
        rng = np.random.default_rng(2)
        mix = BernsteinMixture(SimplexWeights(rng.dirichlet(np.ones(8))), (0.0, 2.0))
        for x in (0.3, 0.9, 1.7):
            assert mix.cdf(x) == pytest.approx(gl_integral(mix.pdf, 0.0, x), abs=1e-6)


class TestCellProbabilities:
    def test_uniform_mass_is_cell_width(self):
        w = SimplexWeights(np.array([1.0]))
        bp = np.array([0.0, 0.2, 0.5, 1.0])
        np.testing.assert_allclose(
            cell_probabilities(w, bp, (0.0, 1.0)), np.diff(bp), atol=1e-15
        )

    def test_degree_one_example(self):
        w = SimplexWeights(np.array([1.0, 0.0]))
        np.testing.assert_allclose(
            cell_probabilities(w, [0.0, 0.5, 1.0], (0.0, 1.0)), [0.75, 0.25]
        )

    def test_matches_per_cell_quadrature(self):
        rng = np.random.default_rng(42)
        p = rng.dirichlet(np.ones(6))
        mix = BernsteinMixture(SimplexWeights(p))
        bp = np.linspace(0.0, 1.0, 11)
        theta = cell_probabilities(mix.weights, bp, (0.0, 1.0))
        for i in range(10):
            assert theta[i] == pytest.approx(
                gl_integral(mix.pdf, bp[i], bp[i + 1]), abs=1e-9
            )

    def test_sums_to_one_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            m = int(rng.integers(0, 21))
            n_cells = int(rng.integers(1, 51))
            p = rng.dirichlet(np.full(m + 1, 0.7))
            cuts = np.sort(rng.uniform(size=n_cells - 1)) if n_cells > 1 else []
            bp = np.concatenate(([0.0], cuts, [1.0]))
            theta = cell_probabilities(SimplexWeights(p), bp, (0.0, 1.0))
            assert np.all(theta >= 0.0)
            assert abs(theta.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("m", [0, 1, 13, 200, 1000])
    def test_equals_the_beta_cdf_oracle(self, m):
        # the Horner sum rounds each binomial once, from its logarithm: the
        # error grows about linearly with the degree
        rng = np.random.default_rng(m)
        for n_cells in (1, 2, 10, 50):
            p = rng.dirichlet(np.full(m + 1, 0.5))
            bp = np.concatenate(([0.0], np.sort(rng.uniform(size=n_cells - 1)), [1.0]))
            columns = np.column_stack([beta_cdf(m, j, bp) for j in range(m + 1)])
            np.testing.assert_allclose(
                cell_probabilities(SimplexWeights(p), bp, (0.0, 1.0)),
                np.diff(columns, axis=0) @ p,
                rtol=0.0,
                atol=2e-16 * (m + 1),
            )

    def test_two_cell_partition_matches_cdf(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(5))
        mix = BernsteinMixture(SimplexWeights(p), (1.0, 3.0))
        for x in (1.4, 2.0, 2.9):
            theta = mix.cell_probabilities([1.0, x, 3.0])
            np.testing.assert_allclose(
                theta, [mix.cdf(x), 1.0 - mix.cdf(x)], atol=1e-12
            )

    def test_partial_partition_rejected(self):
        # the moment bound reads the same covering check as the cells
        w = SimplexWeights(np.array([1.0]))
        g = GroupedSample([0.0, 0.2, 0.4], [3, 4])
        for use in (
            lambda: cell_probabilities(w, [0.0, 0.4], (0.0, 1.0)),
            lambda: lower_bound_degree(g, (0.0, 1.0)),
        ):
            with pytest.raises(ValueError, match="cover the full support"):
                use()


class TestGroupedSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupedSample([0.0, 0.0, 1.0], [1, 2])
        with pytest.raises(ValueError):
            GroupedSample([0.0, 1.0], [-1])
        with pytest.raises(ValueError):
            GroupedSample([0.0, 0.5, 1.0], [1.5, 2])
        with pytest.raises(ValueError):
            GroupedSample([0.0, 0.5, 1.0], [np.inf, 2])

    @pytest.mark.parametrize(
        "bp", [[0.0, 0.25, np.nan, 0.75, 1.0], [0.0, 0.5, np.nan], [0.0, 0.5, np.inf]]
    )
    def test_rejects_non_finite_breakpoints(self, bp):
        with pytest.raises(ValueError, match="finite"):
            GroupedSample(bp, np.ones(len(bp) - 1, dtype=int))

    def test_totals(self):
        g = GroupedSample([0.0, 0.5, 1.0], [3, 4])
        assert g.n == 7
        assert g.n_cells == 2
        np.testing.assert_allclose(g.widths, [0.5, 0.5])

    @pytest.mark.parametrize("counts", [[1, 10**23, 2], ["1", "2", "3"], [None, 1, 2]])
    def test_counts_that_are_not_numbers_rejected(self, counts):
        # a count past int64 made an object array, which np.isfinite rejects
        # with a TypeError
        with pytest.raises(ValueError, match="counts must be numbers"):
            GroupedSample([0, 1, 2, 3], counts)

    def test_total_past_exact_float_counting_rejected(self):
        # [2**62, 2**62, 4] summed to -9223372036854775804 in int64
        for counts in ([2**62, 2**62, 4], [2**53 - 2, 1, 1], [1e300, 1.0, 1.0]):
            with pytest.raises(ValueError, match=r"total count must be below 2\*\*53"):
                GroupedSample([0, 1, 2, 3], counts)
        assert GroupedSample([0, 1, 2, 3], [2**53 - 3, 1, 1]).n == 2**53 - 1


class TestSampling:
    def test_empty(self):
        mix = BernsteinMixture(SimplexWeights(np.array([1.0])))
        assert mix.sample(0, seed=1).size == 0

    def test_uniform_mean(self):
        mix = BernsteinMixture(SimplexWeights(np.array([1.0])))
        x = mix.sample(100_000, seed=21)
        sigma = np.sqrt(1.0 / 12.0 / x.size)
        assert abs(x.mean() - 0.5) < 3 * sigma

    def test_beta33_component_mean(self):
        # picking e_2 at degree 4 draws from beta(3, 3): mean 1/2, var 1/28
        p = np.zeros(5)
        p[2] = 1.0
        mix = BernsteinMixture(SimplexWeights(p))
        x = mix.sample(100_000, seed=22)
        sigma = np.sqrt(1.0 / 28.0 / x.size)
        assert abs(x.mean() - 0.5) < 3 * sigma

    def test_deterministic_in_seed_and_rescaled(self):
        rng = np.random.default_rng(3)
        mix = BernsteinMixture(SimplexWeights(rng.dirichlet(np.ones(4))), (2.0, 6.0))
        a = mix.sample(500, seed=5)
        b = mix.sample(500, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 2.0 and a.max() <= 6.0
