import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import ks_2samp

from bernmix import (
    BernsteinMixture,
    RawSample,
    ScenarioSpec,
    SimplexWeights,
    acceptance_rejection_diag,
    basis_matrix,
    generate,
    group,
    integrated_squared_error,
    mise,
    scenario_distribution,
)
from bernmix import em
from bernmix.em import EmConfig, _iterate
from bernmix.sim import SCENARIO_TAGS, best_mixture_approximation, true_unit_pdf


def spec_for(tag, n=1000, cells=10, replicates=3, seed=0):
    return ScenarioSpec(tag, n=n, n_cells=cells, replicates=replicates, seed=seed)


class TestGenerators:
    def test_uniform_mean(self):
        x = generate(spec_for("uniform01", n=100_000), 0).values
        assert abs(x.mean() - 0.5) < 3 * np.sqrt(1 / 12 / x.size)

    def test_nn1_is_uniform(self):
        a = generate(spec_for("nn1", n=20_000, seed=1), 0).values
        b = generate(spec_for("uniform01", n=20_000, seed=2), 0).values
        assert ks_2samp(a, b).statistic < 0.01

    def test_truncated_exponential_mean(self):
        x = generate(spec_for("exp1", n=100_000, seed=3), 0).values
        # quadrature moment of the truncated-rescaled law
        f = true_unit_pdf(spec_for("exp1"))
        grid = np.linspace(0, 1, 20_001)
        mean = simpson(grid * f(grid), x=grid)
        var = simpson((grid - mean) ** 2 * f(grid), x=grid)
        assert abs(x.mean() - mean) < 3 * np.sqrt(var / x.size)

    def test_same_seed_identical_different_seed_not(self):
        for tag in SCENARIO_TAGS:
            a = generate(spec_for(tag, n=500, seed=9), 4).values
            b = generate(spec_for(tag, n=500, seed=9), 4).values
            c = generate(spec_for(tag, n=500, seed=10), 4).values
            np.testing.assert_array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_values_cover_unit_interval(self):
        for tag in SCENARIO_TAGS:
            x = generate(spec_for(tag, n=2000, seed=5), 1).values
            assert x.min() >= 0.0 and x.max() <= 1.0

    def test_seeded_ks_sanity(self):
        # different seeds should look like the same law almost always
        rejections = 0
        for trial in range(100):
            a = generate(spec_for("normal01", n=500, seed=trial), 0).values
            b = generate(spec_for("normal01", n=500, seed=1000 + trial), 0).values
            p = ks_2samp(a, b, method="asymp").pvalue
            rejections += p < 0.001
        assert rejections <= 5

    def test_pareto_truncation_from_moments(self):
        a, b = scenario_distribution("pareto").truncation
        assert a == 0.5
        assert b == pytest.approx(2.0 / 3.0 + 4.0 / np.sqrt(18.0), rel=1e-15)
        assert b == pytest.approx(1.6095, abs=5e-5)


# textbook closed forms of the five family laws; pdf, cdf, natural support,
# and the baseline family the truth is at its true parameters
TEXTBOOK_LAWS = {
    "uniform01": (lambda x: np.ones_like(x), lambda x: x, (0.0, 1.0), "beta_one", (1.0,)),
    "exp1": (lambda x: np.exp(-x), lambda x: -np.expm1(-x), (0.0, np.inf), "exponential", (1.0,)),
    "pareto": (
        lambda x: 4.0 * 0.5**4 / x**5,
        lambda x: 1.0 - (0.5 / x) ** 4,
        (0.5, np.inf),
        "pareto",
        (4.0,),
    ),
    "normal01": (
        lambda x: np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi),
        lambda x: 0.5 * np.vectorize(math.erfc)(-x / math.sqrt(2.0)),
        (-np.inf, np.inf),
        "normal",
        (0.0, 1.0),
    ),
    "logistic": (
        lambda x: np.exp(-x / 0.5) / (0.5 * (1.0 + np.exp(-x / 0.5)) ** 2),
        lambda x: 1.0 / (1.0 + np.exp(-x / 0.5)),
        (-np.inf, np.inf),
        "logistic",
        (0.0, 0.5),
    ),
}


class TestScenarioLaws:
    @pytest.mark.parametrize("tag", sorted(TEXTBOOK_LAWS))
    def test_truth_is_the_textbook_law_on_the_truncation(self, tag):
        pdf, cdf, _, _, _ = TEXTBOOK_LAWS[tag]
        dist = scenario_distribution(tag)
        x = np.linspace(*dist.truncation, 20_001)
        np.testing.assert_allclose(dist.pdf(x), pdf(x), rtol=1e-15, atol=0.0)
        # the standard library's erfc and scipy's ndtr are different
        # implementations and part by a few ulps in the lower tail
        rtol = 1e-14 if tag == "normal01" else 1e-15
        np.testing.assert_allclose(dist.cdf(x), cdf(x), rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("tag", sorted(TEXTBOOK_LAWS))
    def test_density_is_zero_off_the_natural_support(self, tag):
        _, _, (lo, hi), _, _ = TEXTBOOK_LAWS[tag]
        dist = scenario_distribution(tag)
        outside = [v for v in (lo - 1.0, lo - 1e-9, hi + 1e-9, hi + 1.0) if np.isfinite(v)]
        np.testing.assert_array_equal(dist.pdf(np.array(outside)), np.zeros(len(outside)))
        if np.isfinite(lo):
            assert dist.cdf(lo - 1.0) == 0.0
        if np.isfinite(hi):
            assert dist.cdf(hi + 1.0) == 1.0

    @pytest.mark.parametrize("tag", sorted(TEXTBOOK_LAWS))
    def test_truth_is_its_parametric_family_at_the_true_parameters(self, tag):
        _, _, _, family_tag, params = TEXTBOOK_LAWS[tag]
        dist = scenario_distribution(tag)
        family = dist.parametric_family()
        assert family.tag == family_tag
        a, b = dist.truncation
        x = np.linspace(a - 1.0, b + 1.0, 1001)
        np.testing.assert_array_equal(dist.pdf(x), family.pdf(x, np.array(params)))
        np.testing.assert_array_equal(dist.cdf(x), family.cdf(x, np.array(params)))


class TestScenarioSpec:
    @pytest.mark.parametrize("field", ["n", "n_cells", "replicates"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_runs_are_rejected(self, field, value):
        kwargs = dict(n=10, n_cells=5, replicates=3)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            ScenarioSpec("exp1", **kwargs)


class TestGrouping:
    def test_half_open_convention(self):
        g = group(RawSample(np.array([0.1, 0.5, 0.9])), 2)
        np.testing.assert_array_equal(g.counts, [2, 1])

    def test_single_cell(self):
        g = group(RawSample(np.array([0.3, 0.6, 0.9, 0.2])), 1)
        np.testing.assert_array_equal(g.counts, [4])

    def test_matches_numpy_histogram(self):
        x = generate(spec_for("uniform01", n=1000, seed=17), 0).values
        g = group(RawSample(x), 10)
        # right-closed cells: mirror with a histogram of -x
        ref, _ = np.histogram(-x, bins=np.linspace(-1.0, 0.0, 11))
        np.testing.assert_array_equal(g.counts, ref[::-1])
        assert g.n == 1000


class TestIntegratedSquaredError:
    @pytest.mark.parametrize("grid", ["2001", "2000", "uneven"])
    def test_matches_scipy_simpson(self, grid):
        rng = np.random.default_rng(29)
        if grid == "uneven":
            x = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(size=1199)]))
        else:
            x = np.linspace(0.0, 1.0, int(grid))
        truth = 1.0 + 0.5 * np.sin(6.0 * x)
        fhat = truth + 0.05 * np.cos(17.0 * x) + 0.01 * rng.normal(size=x.size)
        diff2 = (fhat - truth) ** 2
        plain = integrated_squared_error(fhat, truth, x)
        weighted = integrated_squared_error(fhat, truth, x, weighted=True)
        assert plain == pytest.approx(simpson(diff2, x=x), rel=1e-13, abs=0.0)
        assert weighted == pytest.approx(simpson(diff2 / truth, x=x), rel=1e-13, abs=0.0)

    def test_grid_must_increase(self):
        y = np.ones(5)
        for grid in ([0.0, 0.25, 0.25, 0.75, 1.0], [1.0, 0.75, 0.5, 0.25, 0.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                integrated_squared_error(y, 0.0 * y, np.array(grid))
        with pytest.raises(ValueError, match="one-dimensional"):
            integrated_squared_error(y, 0.0 * y, np.ones((5, 1)))


class TestMise:
    def test_truth_oracle_is_zero_everywhere(self):
        for tag in SCENARIO_TAGS:
            rep = mise(spec_for(tag, n=50, cells=5, replicates=1), "truth")
            assert rep.mise <= 1e-10
            assert rep.weighted_mise <= 1e-10

    def test_quadrature_resolution_stable(self):
        spec = spec_for("normal01", n=200, cells=10, replicates=2, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coarse = mise(spec, "mble", points=2001)
            fine = mise(spec, "mble", points=4001)
        assert coarse.mise == pytest.approx(fine.mise, rel=1e-3)

    def test_report_fields(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = mise(spec_for("exp1", n=100, cells=10, replicates=3, seed=5), "mble")
        assert rep.replicates_used == 3
        assert rep.failures == 0
        assert rep.degree_mean is not None and rep.degree_var is not None
        kern = mise(spec_for("exp1", n=100, cells=10, replicates=3, seed=5), "kernel")
        assert kern.degree_mean is None

    def test_parametric_estimator_runs(self):
        rep = mise(spec_for("exp1", n=200, cells=10, replicates=3, seed=6), "parametric")
        assert rep.mise < 0.05

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            mise(spec_for("exp1"), "magic")

    def test_mble_beats_kernel_on_logistic(self):
        # the companion normal01 ordering runs in the acceptance suite
        spec = ScenarioSpec(
            "logistic", n=100, n_cells=10, replicates=40, seed=314159,
            degrees=tuple(range(1, 41)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mble = mise(spec, "mble")
            kernel = mise(spec, "kernel")
        assert mble.mise < kernel.mise

    def test_too_many_failures_raise_harness_error(self):
        from bernmix import HarnessError

        # n=1 makes the moment lower bound undefined, so every mble
        # replicate fails and the failure share exceeds 5%
        spec = spec_for("uniform01", n=1, cells=5, replicates=3)
        with pytest.raises(HarnessError):
            mise(spec, "mble")

    def test_programming_errors_propagate(self, monkeypatch):
        import bernmix.sim

        def broken(*args):
            raise TypeError("bug in a fit")

        monkeypatch.setattr(bernmix.sim, "_fit_curve", broken)
        with pytest.raises(TypeError, match="bug in a fit"):
            mise(spec_for("uniform01", n=50, cells=5, replicates=2), "kernel")


class TestAcceptanceRejection:
    def test_self_acceptance_is_exact(self):
        rng = np.random.default_rng(2)
        w = SimplexWeights(rng.dirichlet(np.ones(5)))
        pdf = BernsteinMixture(w).pdf
        c, kept = acceptance_rejection_diag(pdf, w, n=5000, seed=3)
        assert c == 1.0
        assert kept == 1.0

    def test_linear_mixture_against_uniform(self):
        w = SimplexWeights(np.array([0.6, 0.4]))
        pdf = lambda t: np.ones_like(np.atleast_1d(np.asarray(t, float)))
        c, kept = acceptance_rejection_diag(pdf, w, n=20_000, seed=4)
        assert c == pytest.approx(1.2, abs=1e-9)
        assert kept == pytest.approx(1 / 1.2, abs=0.02)

    def test_envelope_off_the_grid(self):
        # f_m = 3[0.25(1-t)^2 + 1.1 t(1-t) + 0.2 t^2] peaks at t* = 6/13,
        # between grid points: the grid maximum alone is 2.5e-9 low
        w = SimplexWeights(np.array([0.25, 0.55, 0.2]))
        pdf = lambda t: np.ones_like(np.atleast_1d(np.asarray(t, float)))
        c, _ = acceptance_rejection_diag(pdf, w, n=100, seed=8)
        assert c == pytest.approx(196.95 / 169, rel=1e-14)

    def test_kept_fraction_rises_with_degree(self):
        f = true_unit_pdf(spec_for("normal01"))
        kepts = []
        for m in (4, 8, 16):
            w = best_mixture_approximation(f, m, nodes=256)
            _, kept = acceptance_rejection_diag(f, w, n=20_000, seed=5)
            kepts.append(kept)
        assert kepts[0] < kepts[1] < kepts[2]

    def test_population_fit_recovers_exact_mixture(self):
        # the KL projection of a degree-4 mixture onto degree 4 is itself
        p_true = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        pdf = lambda t: basis_matrix(4, np.atleast_1d(t)) @ p_true
        w = best_mixture_approximation(pdf, 4)
        np.testing.assert_allclose(w.p, p_true, atol=1e-8)
        c, _ = acceptance_rejection_diag(pdf, w, n=1000, seed=6)
        assert c == pytest.approx(1.0, abs=1e-5)

    def test_population_fit_matches_em_envelope(self):
        # EM on the same quadrature atoms, run to a 1e-15 relative change,
        # is the reference for the diagnostic's c_m
        from numpy.polynomial.legendre import leggauss

        f = true_unit_pdf(spec_for("normal01"))
        x, w = leggauss(512)
        t = 0.5 * (x + 1.0)
        mass = 0.5 * w * f(t)
        for m in (4, 8, 16):
            a = basis_matrix(m, t)
            em_weights = _iterate(
                np.full(m + 1, 1.0 / (m + 1)),
                a,
                mass,
                EmConfig(tol=1e-15, max_iter=2_000_000),
            )[0]
            c_em, _ = acceptance_rejection_diag(f, em_weights, n=10, seed=7)
            c_sqp, _ = acceptance_rejection_diag(f, best_mixture_approximation(f, m), n=10, seed=7)
            assert c_sqp == pytest.approx(c_em, abs=1e-4)

    def test_population_fit_at_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(em, "SQP_MAX_STEPS", 1)
        f = true_unit_pdf(spec_for("normal01"))
        with pytest.raises(ValueError, match=r"degree 16 stopped after 1 steps with gap"):
            best_mixture_approximation(f, 16)

    def test_nonpositive_truth_rejected(self):
        w = SimplexWeights(np.array([1.0]))
        pdf = lambda t: np.asarray(t, float)  # vanishes at 0
        with pytest.raises(ValueError):
            acceptance_rejection_diag(pdf, w, n=10, seed=1)
