import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from bernmix import (
    DegenerateDataError,
    GroupedSample,
    KernelDensity,
    ParametricFit,
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

    def test_matches_the_mean_of_normal_kernels_across_blocks(self):
        # 8000 observations make blocks of 500 points, so 1201 points span three
        rng = np.random.default_rng(17)
        xs = rng.beta(2.0, 5.0, size=8000)
        kd = kernel_density(RawSample(xs), "rule")
        h = kd.bandwidth
        grid = np.linspace(0.0, 1.0, 1201)
        want = np.concatenate([
            np.mean(np.exp(-0.5 * ((chunk[:, None] - xs[None, :]) / h) ** 2), axis=1)
            for chunk in np.array_split(grid, 24)
        ]) / (h * math.sqrt(2 * math.pi))
        got = kd(grid)
        assert got.shape == grid.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        value = kd(0.3)
        assert isinstance(value, float)
        assert value == pytest.approx(float(want[360]), rel=1e-14)

    def test_needs_an_observation(self):
        with pytest.raises(ValueError):
            KernelDensity(np.array([]), 0.1)


def grouped_from(values, breakpoints):
    idx = np.clip(
        np.searchsorted(breakpoints, values, side="left") - 1,
        0,
        len(breakpoints) - 2,
    )
    return GroupedSample(breakpoints, np.bincount(idx, minlength=len(breakpoints) - 1))


def every_family_fixtures(rng):
    """(family, grouped data, random feasible parameters) for each family."""
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
    return [
        (logistic_family(), symm, lambda: np.array([rng.uniform(-1, 1), rng.uniform(0.1, 2)])),
        (normal_family(), symm, lambda: np.array([rng.uniform(-1, 1), rng.uniform(0.2, 3)])),
        (exponential_family(), decay, lambda: np.array([rng.uniform(0.2, 5.0)])),
        (pareto_family(0.5), heavy, lambda: np.array([rng.uniform(0.5, 9.0)])),
        (beta_one_family(), unit, lambda: np.array([rng.uniform(0.1, 8.0)])),
    ]


def grouped_loglik(family, g, z):
    """sum_i n_i log q_i at the unconstrained coordinates z, q renormalised over the span."""
    cdfv = family.cdf(g.breakpoints, family.from_z(z))
    mass = cdfv[-1] - cdfv[0]
    pos = g.counts > 0
    q = np.diff(cdfv)[pos] / mass if mass > 0.0 else np.zeros(pos.sum())
    return float(g.counts[pos] @ np.log(q)) if np.all(q > 0.0) else -np.inf


def moment_start(family, g):
    """The solver's start: the family's moment guess from the cell midpoints."""
    bp, counts = g.breakpoints, g.counts.astype(float)
    n = counts.sum()
    mid = 0.5 * (bp[:-1] + bp[1:])
    mu = float(counts @ mid) / n
    var = float(counts @ (mid - mu) ** 2) / max(n - 1.0, 1.0)
    return np.asarray(family.to_z(family.init(mu, var)), dtype=float)


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
        for family, g, draw in every_family_fixtures(rng):
            fit = parametric_mle_grouped(family, g)
            bp = g.breakpoints
            counts = g.counts.astype(float)
            for _ in range(20):
                prm = draw()
                cdfv = family.cdf(bp, prm)
                q = np.diff(cdfv) / (cdfv[-1] - cdfv[0])
                ll = float(counts @ np.log(np.maximum(q, 1e-300)))
                assert fit.loglik >= ll - 1e-9

    def test_fit_matches_a_scipy_optimiser_and_zeroes_the_gradient(self):
        from scipy.optimize import minimize, minimize_scalar

        for family, g, _ in every_family_fixtures(np.random.default_rng(21)):
            fit = parametric_mle_grouped(family, g)
            assert fit.converged and not fit.boundary_pinned, family.tag
            z0 = moment_start(family, g)

            def nll(z):
                ll = grouped_loglik(family, g, np.atleast_1d(z))
                return -ll if np.isfinite(ll) else 1e300

            if family.n_free == 1:
                bounds = (z0[0] - 20.0, z0[0] + 20.0)
                ref = minimize_scalar(nll, bounds=bounds, method="bounded", options={"xatol": 1e-10})
            else:
                options = {"maxiter": 2000, "xatol": 1e-10, "fatol": 1e-12}
                ref = minimize(nll, z0, method="Nelder-Mead", options=options)
            assert fit.loglik >= -ref.fun - 1e-9, family.tag
            # fourth-order central differences of the loglik at the fitted z
            z, step = family.to_z(fit.params), 1e-3
            grad = []
            for e in np.eye(family.n_free) * step:
                ll = [grouped_loglik(family, g, z + k * e) for k in (-2, -1, 1, 2)]
                grad.append((ll[0] - 8.0 * ll[1] + 8.0 * ll[2] - ll[3]) / (12.0 * step))
            assert np.linalg.norm(grad) <= 1e-6, (family.tag, grad)

    @pytest.mark.parametrize(
        "factory, truth, breakpoints",
        [
            (logistic_family, [0.3, 0.4], np.linspace(-3.0, 3.0, 13)),
            (normal_family, [0.2, 0.9], np.linspace(-3.0, 3.0, 13)),
            (exponential_family, [1.3], np.linspace(0.0, 4.0, 11)),
            (lambda: pareto_family(0.5), [4.0], np.linspace(0.5, 1.6, 9)),
            (beta_one_family, [2.5], np.linspace(0.0, 1.0, 9)),
        ],
        ids=["logistic", "normal", "exponential", "pareto", "beta_one"],
    )
    def test_cell_masses_as_counts_give_back_the_truth(self, factory, truth, breakpoints):
        family = factory()
        cdfv = family.cdf(breakpoints, np.array(truth))
        counts = np.rint(1e9 * np.diff(cdfv) / (cdfv[-1] - cdfv[0])).astype(np.int64)
        fit = parametric_mle_grouped(family, GroupedSample(breakpoints, counts))
        assert fit.converged and not fit.boundary_pinned
        np.testing.assert_allclose(fit.params, truth, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize(
        "factory, breakpoints",
        [
            (logistic_family, np.linspace(-3.0, 3.0, 13)),
            (normal_family, np.linspace(-3.0, 3.0, 13)),
            (exponential_family, np.linspace(0.0, 4.0, 11)),
            (lambda: pareto_family(0.5), np.linspace(0.5, 1.6, 9)),
            (beta_one_family, np.linspace(0.0, 1.0, 9)),
        ],
        ids=["logistic", "normal", "exponential", "pareto", "beta_one"],
    )
    def test_degenerate_groupings_are_flagged(self, factory, breakpoints):
        # all counts in one end cell: the loglik rises towards a parameter
        # at a limit of its range (a scale or a shape at 0 or infinity), so
        # no maximiser exists; pytest turns any RuntimeWarning into an error
        family = factory()
        k = breakpoints.size - 1
        groupings = [[50] + [0] * (k - 1), [0] * (k - 1) + [50]]
        if family.n_free == 2:
            # a location-scale law fits two end cells best as its scale grows
            groupings += [[30] + [0] * (k - 2) + [20], [25] + [0] * (k - 2) + [25]]
        for counts in groupings:
            g = GroupedSample(breakpoints, counts)
            fit = parametric_mle_grouped(family, g)
            assert isinstance(fit, ParametricFit)
            assert not fit.converged or fit.boundary_pinned, counts
            assert np.isfinite(fit.loglik)
            assert fit.loglik >= grouped_loglik(family, g, moment_start(family, g)) - 1e-9

    def test_cdf_derivatives_match_finite_differences(self):
        cases = [
            (logistic_family(), [0.3, 0.4], np.linspace(-3.0, 3.0, 13)),
            (normal_family(), [0.2, 0.9], np.linspace(-3.0, 3.0, 13)),
            (exponential_family(), [1.3], np.linspace(-1.0, 4.0, 11)),
            (pareto_family(0.5), [4.0], np.linspace(0.3, 1.6, 9)),
            (beta_one_family(), [2.5], np.linspace(0.0, 1.2, 9)),
        ]
        for family, truth, x in cases:
            z, step = family.to_z(np.array(truth)), 1e-4
            d1, d2 = family.cdf_dz(x, np.array(truth))
            assert d1.shape == (family.n_free, x.size)
            assert d2.shape == (family.n_free, family.n_free, x.size)
            for i, e in enumerate(np.eye(family.n_free) * step):
                up, down = family.from_z(z + e), family.from_z(z - e)
                np.testing.assert_allclose(
                    (family.cdf(x, up) - family.cdf(x, down)) / (2 * step), d1[i], atol=1e-7
                )
                du, dd = family.cdf_dz(x, up)[0], family.cdf_dz(x, down)[0]
                np.testing.assert_allclose((du - dd) / (2 * step), d2[:, i], atol=1e-7)
            prm = np.array(truth)
            np.testing.assert_allclose(family.sf(x, prm), 1.0 - family.cdf(x, prm), atol=1e-15)

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


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    logistic=st.booleans(),
    loc=st.floats(-2.0, 2.0),
    scale=st.floats(0.05, 3.0),
    widths=st.lists(st.floats(0.05, 1.0), min_size=5, max_size=15),
    n=st.integers(2, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_newton_fit_never_loses_to_its_start(logistic, loc, scale, widths, n, seed):
    # a random normal or logistic truth, a random partition of [-3, 3] and
    # multinomial counts from the truth's cell masses, two cells populated
    family = logistic_family() if logistic else normal_family()
    bp = -3.0 + 6.0 * np.concatenate([[0.0], np.cumsum(widths)]) / sum(widths)
    bp[-1] = 3.0
    cdfv = family.cdf(bp, np.array([loc, scale]))
    counts = np.random.default_rng(seed).multinomial(n, np.diff(cdfv) / (cdfv[-1] - cdfv[0]))
    assume(np.count_nonzero(counts) >= 2)
    g = GroupedSample(bp, counts)
    fit = parametric_mle_grouped(family, g)
    assert np.isfinite(fit.loglik)
    assert fit.loglik >= grouped_loglik(family, g, moment_start(family, g)) - 1e-9
    x = np.linspace(bp[0], bp[-1], 1001)
    f = fit.cdf(x)
    assert f[0] == 0.0 and f[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(f) >= 0.0)
