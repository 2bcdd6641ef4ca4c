import math

import numpy as np
import pytest
from scipy.integrate import simpson

from bernmix import (
    DegenerateDataError,
    GroupedSample,
    RawSample,
    beta_one_family,
    exponential_family,
    kernel_density,
    logistic_family,
    normal_family,
    pareto_family,
    parametric_mle_grouped,
    rule_of_thumb_bandwidth,
)


class TestKernelDensity:
    def test_two_point_value(self):
        kd = kernel_density(RawSample(np.array([0.4, 0.6])), bandwidth=0.1)
        expected = 10.0 * math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert kd(0.5) == pytest.approx(expected, rel=1e-12)

    def test_mass_close_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        kd = kernel_density(RawSample(x, (-10, 10)), "rule")
        h = kd.bandwidth
        grid = np.linspace(x.min() - 5 * h, x.max() + 5 * h, 4001)
        assert simpson(kd(grid), x=grid) > 0.999
        assert np.all(kd(grid) > 0.0)

    def test_rule_bandwidth_formula(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=100)
        sd = x.std(ddof=1)
        iqr = np.percentile(x, 75) - np.percentile(x, 25)
        expected = 0.9 * min(sd, iqr / 1.34) * 100 ** (-0.2)
        assert rule_of_thumb_bandwidth(x) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            rule_of_thumb_bandwidth(np.full(10, 3.3))
        with pytest.raises(ValueError):
            kernel_density(RawSample(np.array([0.5])))


def grouped_from(values, breakpoints):
    idx = np.clip(
        np.searchsorted(breakpoints, values, side="left") - 1,
        0,
        len(breakpoints) - 2,
    )
    return GroupedSample(breakpoints, np.bincount(idx, minlength=len(breakpoints) - 1))


class TestParametricMle:
    def test_exponential_consistency(self):
        rng = np.random.default_rng(8)
        x = rng.exponential(size=400_000)
        x = x[x <= 4.0][:100_000]
        g = grouped_from(x, np.linspace(0.0, 4.0, 11))
        fit = parametric_mle_grouped(exponential_family(), g)
        assert fit.converged
        assert fit.params[0] == pytest.approx(1.0, abs=0.05)

    def test_normal_symmetry(self):
        g = GroupedSample(np.linspace(-3.0, 3.0, 7), [5, 20, 40, 40, 20, 5])
        fit = parametric_mle_grouped(normal_family(), g)
        assert fit.params[0] == pytest.approx(0.0, abs=1e-6)

    def test_beta_one_two_cells_matches_grid(self):
        c = 0.3
        g = GroupedSample(np.array([0.0, c, 1.0]), [18, 42])
        fit = parametric_mle_grouped(beta_one_family(), g)

        def grid_argmax(lo, hi, points):
            alphas = np.linspace(lo, hi, points)
            ll = 18 * alphas * math.log(c) + 42 * np.log1p(-(c**alphas))
            return alphas[np.argmax(ll)]

        coarse = grid_argmax(0.01, 20.0, 200_001)
        fine = grid_argmax(coarse - 1e-3, coarse + 1e-3, 2_000_001)
        assert fit.params[0] == pytest.approx(fine, abs=1e-6)
        # the 18/42 split at c = 0.3 makes the root exactly 1
        assert fit.params[0] == pytest.approx(1.0, abs=1e-6)

    def test_fit_beats_random_feasible_draws_every_family(self):
        rng = np.random.default_rng(21)
        x = rng.logistic(loc=0.3, scale=0.4, size=2000)
        x = x[np.abs(x) <= 3.0]
        symm = grouped_from(x, np.linspace(-3.0, 3.0, 13))
        y = rng.exponential(size=2000)
        y = y[y <= 4.0]
        decay = grouped_from(y, np.linspace(0.0, 4.0, 11))
        z = 0.5 * (1.0 - rng.uniform(size=2000)) ** -0.25
        z = z[z <= 1.6]
        heavy = grouped_from(z, np.linspace(0.5, 1.6, 9))
        unit = grouped_from(rng.beta(2.5, 1.0, size=2000), np.linspace(0.0, 1.0, 9))

        cases = [
            (logistic_family(), symm, lambda: np.array([rng.uniform(-1, 1), rng.uniform(0.1, 2)])),
            (normal_family(), symm, lambda: np.array([rng.uniform(-1, 1), rng.uniform(0.2, 3)])),
            (exponential_family(), decay, lambda: np.array([rng.uniform(0.2, 5.0)])),
            (pareto_family(0.5), heavy, lambda: np.array([rng.uniform(0.5, 9.0)])),
            (beta_one_family(), unit, lambda: np.array([rng.uniform(0.1, 8.0)])),
        ]
        for family, g, draw in cases:
            fit = parametric_mle_grouped(family, g)
            bp = g.breakpoints
            counts = g.counts.astype(float)
            for _ in range(20):
                prm = draw()
                cdfv = family.cdf(bp, prm)
                q = np.diff(cdfv) / (cdfv[-1] - cdfv[0])
                ll = float(counts @ np.log(np.maximum(q, 1e-300)))
                assert fit.loglik >= ll - 1e-9

    def test_renormalized_cells_sum_to_one(self):
        bp = np.linspace(0.5, 1.6, 9)
        fam = pareto_family(0.5)
        for alpha in (0.5, 2.0, 4.0, 9.0):
            cdfv = fam.cdf(bp, np.array([alpha]))
            q = np.diff(cdfv) / (cdfv[-1] - cdfv[0])
            assert abs(q.sum() - 1.0) < 1e-12

    def test_fitted_pdf_integrates_to_one_on_support(self):
        g = GroupedSample(np.linspace(0.0, 4.0, 9), [30, 22, 16, 11, 8, 6, 4, 3])
        fit = parametric_mle_grouped(exponential_family(), g)
        grid = np.linspace(0.0, 4.0, 2001)
        assert simpson(fit.pdf(grid), x=grid) == pytest.approx(1.0, abs=1e-6)

    def test_fitted_pdf_and_cdf_off_the_support(self):
        g = GroupedSample(np.linspace(0.0, 4.0, 9), [30, 22, 16, 11, 8, 6, 4, 3])
        fit = parametric_mle_grouped(exponential_family(), g)
        np.testing.assert_array_equal(fit.pdf(np.array([-1.0, -1e-12, 4.0 + 1e-12, 5.0])), 0.0)
        np.testing.assert_array_equal(fit.cdf(np.array([-1.0, -1e-12])), 0.0)
        np.testing.assert_array_equal(fit.cdf(np.array([4.0 + 1e-12, 5.0])), 1.0)
        assert fit.pdf(-1.0) == 0.0 and fit.cdf(5.0) == 1.0
        # on the support: the family's law renormalised over [0, 4]
        x = np.linspace(0.0, 4.0, 101)
        fam = fit.family
        mass = fam.cdf(4.0, fit.params) - fam.cdf(0.0, fit.params)
        np.testing.assert_array_equal(fit.pdf(x), fam.pdf(x, fit.params) / mass)
        assert fit.cdf(0.0) == 0.0
        assert fit.cdf(4.0) == pytest.approx(1.0, abs=1e-15)


class TestFamilySupport:
    @pytest.mark.parametrize(
        "family, params, below",
        [
            (beta_one_family(), [1.0], [-1.0, -1e-12]),
            (beta_one_family(), [2.5], [-1.0, -1e-12]),
            (exponential_family(), [1.0], [-1.0, -1e-12]),
            (pareto_family(0.5), [4.0], [0.1, 0.5 - 1e-12]),
        ],
        ids=["beta_one", "beta_one_2.5", "exponential", "pareto"],
    )
    def test_density_is_zero_below_the_natural_support(self, family, params, below):
        np.testing.assert_array_equal(family.pdf(np.array(below), np.array(params)), 0.0)
        np.testing.assert_array_equal(family.cdf(np.array(below), np.array(params)), 0.0)

    def test_beta_one_density_is_zero_above_one(self):
        fam = beta_one_family()
        np.testing.assert_array_equal(fam.pdf(np.array([1.0 + 1e-12, 2.0]), np.array([1.0])), 0.0)
        assert fam.pdf(1.0, np.array([3.0])) == 3.0
