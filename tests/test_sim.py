import functools
import math
import warnings
from fractions import Fraction

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
    select_degree,
)
from bernmix import em
from bernmix.em import EmConfig, _fit, _gap, _iterate
from bernmix.likelihood import _loglik, _problems
from bernmix.sim import (
    GRID,
    MAX_IRWIN_HALL_K,
    SCENARIO_TAGS,
    _SIMPSON_WEIGHTS,
    _unit_gauss_legendre,
    best_mixture_approximation,
    true_unit_pdf,
)


def spec_for(tag, n=1000, cells=10, replicates=3, seed=0):
    return ScenarioSpec(tag, n=n, n_cells=cells, replicates=replicates, seed=seed)


@functools.lru_cache(maxsize=None)
def _normal01_fit(m):
    """The diagnostic ladder's population fit of normal01 at degree m."""
    return best_mixture_approximation(true_unit_pdf(spec_for("normal01")), m)


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
        # exact rationals: 1 - (0.5/x)^4 in floats cancels near 0.5, by up
        # to 1.6e-13 relative on the truncation grid
        lambda x: np.array([float(1 - (Fraction(1, 2) / Fraction(v)) ** 4) for v in x.tolist()]),
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
        # both normal CDFs are math.erfc, but the law scales u by -sqrt(1/2)
        # (as scipy's ndtr does) where the textbook divides -u by sqrt(2):
        # the arguments part by an ulp or two, and Phi's relative condition
        # number |u| phi(u) / Phi(u), about 17 at u = -4, turns that into up
        # to 2.9e-15 on this grid (under 1e-14 at worst), above the 1e-15 of the rest
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


def _irwin_hall_exact(k, x, power):
    """sum_j (-1)^j C(k, j) (kx - j)_+^power / power! in 60-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        s = k * mpmath.mpf(float(x))
        total = sum(
            (-1) ** j * mpmath.binomial(k, j) * (s - j) ** power
            for j in range(int(mpmath.floor(s)) + 1)
        )
        return float(total / mpmath.factorial(power))


class TestIrwinHall:
    @pytest.mark.parametrize("k", range(2, MAX_IRWIN_HALL_K + 1))
    def test_law_matches_the_exact_sum(self, k):
        # the float sum cancels terms up to k^k/k!: at k = 12 its error is
        # about 6e-11 of the peak density, so 1e-9 leaves room and still
        # fails at k = 16 (5e-9)
        x = np.linspace(0.0, 1.0, 201)[1:-1]
        dist = scenario_distribution(f"nn{k}")
        pdf = np.array([k * _irwin_hall_exact(k, v, k - 1) for v in x])
        cdf = np.array([_irwin_hall_exact(k, v, k) for v in x])
        assert np.max(np.abs(dist.pdf(x) - pdf)) <= 1e-9 * pdf.max()
        assert np.max(np.abs(dist.cdf(x) - cdf)) <= 1e-9


class TestScenarioSpec:
    # n = 2.5 used to draw 2 points, n_cells, replicates or seed = 2.5 to end
    # mise in a TypeError, and seed = -1 to fail every replicate's draw
    @pytest.mark.parametrize(
        "field, value",
        [pytest.param(f, v, id=f"{v}-{f}") for f in ("n", "n_cells", "replicates") for v in (0, -1, 2.5, 2.0, "3")]
        + [pytest.param("seed", v, id=f"{v}-seed") for v in (-1, 2.5, 2.0, "3")],
    )
    def test_empty_runs_are_rejected(self, field, value):
        kwargs = dict(n=10, n_cells=5, replicates=3)
        kwargs[field] = value
        least = 0 if field == "seed" else 1
        with pytest.raises(ValueError, match=f"{field} must be at least {least} and an integer"):
            ScenarioSpec("exp1", **kwargs)

    @pytest.mark.parametrize(
        "degrees, message",
        [(range(1, 1883), "degree 1882 is above"), ((1, 2), "at least three"), ((1, 3, 4), "consecutive")],
    )
    def test_bad_degree_range_fails_before_any_replicate(self, monkeypatch, degrees, message):
        # mise used to count each replicate's ValueError as a failure and
        # end in HarnessError
        import bernmix.sim

        scans = []
        monkeypatch.setattr(bernmix.sim, "select_degree", lambda *a, **k: scans.append(a))
        with pytest.raises(ValueError, match=message):
            mise(ScenarioSpec("exp1", n=100, n_cells=10, replicates=3, degrees=degrees), "mble")
        assert scans == []


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
    def test_one_read_only_grid_whose_weights_sum_to_one(self):
        assert not GRID.flags.writeable and not _SIMPSON_WEIGHTS.flags.writeable
        np.testing.assert_array_equal(GRID, np.linspace(0.0, 1.0, 2001))
        assert _SIMPSON_WEIGHTS.sum() == pytest.approx(1.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("points", ["2001"])
    def test_matches_scipy_simpson(self, points):
        x = np.linspace(0.0, 1.0, int(points))
        rng = np.random.default_rng(29)
        truth = 1.0 + 0.5 * np.sin(6.0 * x)
        fhat = truth + 0.05 * np.cos(17.0 * x) + 0.01 * rng.normal(size=x.size)
        diff2 = (fhat - truth) ** 2
        plain = integrated_squared_error(fhat, truth)
        weighted = integrated_squared_error(fhat, truth, weighted=True)
        assert plain == pytest.approx(simpson(diff2, x=x), rel=1e-13, abs=0.0)
        assert weighted == pytest.approx(simpson(diff2 / truth, x=x), rel=1e-13, abs=0.0)


class TestMise:
    def test_truth_oracle_is_zero_everywhere(self):
        for tag in SCENARIO_TAGS:
            rep = mise(spec_for(tag, n=50, cells=5, replicates=1), "truth")
            assert rep.mise <= 1e-10
            assert rep.weighted_mise <= 1e-10

    def test_quadrature_resolution_stable(self):
        # doubling the grid moves the MBLE MISE by well under 0.1%: score the
        # same fitted curves by scipy's Simpson rule on 4001 points
        spec = spec_for("normal01", n=200, cells=10, replicates=2, seed=3)
        truth = true_unit_pdf(spec)
        a, b = scenario_distribution("normal01").truncation
        x = np.linspace(0.0, 1.0, 4001)
        fine = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coarse = mise(spec, "mble")
            for rep in range(spec.replicates):
                trace = select_degree(group(generate(spec, rep), spec.n_cells), (0.0, 1.0))
                fitted = BernsteinMixture(trace.best_fit.weights).pdf(x)
                fine.append(simpson((fitted - truth(x)) ** 2, x=x) / (b - a))
        assert coarse.replicates_used == spec.replicates
        assert coarse.mise == pytest.approx(np.mean(fine), rel=1e-3)

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

    @pytest.mark.parametrize("nodes", [256, 512])
    @pytest.mark.parametrize("tag", SCENARIO_TAGS)
    def test_population_fit_is_certified_on_every_truth(self, tag, nodes):
        # with a Hessian ridge scaled by the mean curvature, nn4 crawled in
        # its flat directions and stopped at the step cap for m >= 16.  The
        # uniform-start fit is checked too: from there nn4 at m = 64 ends
        # with weights near 1e-12 that carry rows of mass near 1e-19, so
        # its gap moves above GAP_TOL if the returned weights are not the
        # ones the solver certified
        f = true_unit_pdf(spec_for(tag))
        t, half = _unit_gauss_legendre(nodes)
        atoms = (t, half * f(t))
        for m in (4, 8, 16, 32, 64):
            uniform = _fit(_problems(atoms, None, m))
            assert uniform.converged, (m, uniform.gap)
            a, w = next(_problems(atoms, None, m))
            for p in (best_mixture_approximation(f, m, nodes=nodes).p, uniform.weights.p):
                assert _gap(a, w, p, a @ p) <= em.GAP_TOL, m

    def test_bernstein_start_moves_nothing_beyond_the_certificate(self):
        # the start B_m f changes the solver's path, not the fit: the loglik
        # agrees with the uniform start's within the two certificates, and
        # so does c_m where the optimal weights are unique to 1e-6
        f = true_unit_pdf(spec_for("normal01"))
        t, half = _unit_gauss_legendre(512)
        atoms = (t, half * f(t))
        for m in (4, 8, 16, 32):
            started = best_mixture_approximation(f, m)
            uniform = _fit(_problems(atoms, None, m))
            a, w = next(_problems(atoms, None, m))
            assert abs(_loglik(a, w, started.p) - uniform.loglik) <= 2 * em.GAP_TOL, m
            if m <= 16:
                c_started, _ = acceptance_rejection_diag(f, started, n=10, seed=7)
                c_uniform, _ = acceptance_rejection_diag(f, uniform.weights, n=10, seed=7)
                assert abs(c_started - c_uniform) <= 1e-6, m

    def test_ladder_makes_few_qp_solves(self, monkeypatch):
        # the first Newton QP from B_m f itself collapsed the free set
        # (33 -> 8 entries at m = 32) and the active-set loop then added
        # entries back one solve at a time: 236 solves for this ladder;
        # one EM step on B_m f first keeps it near 109
        solve = np.linalg.solve
        calls = []

        def counted(*args):
            calls.append(None)
            return solve(*args)

        monkeypatch.setattr(em.np.linalg, "solve", counted)
        f = true_unit_pdf(spec_for("normal01"))
        for m in (4, 8, 16, 32):
            best_mixture_approximation(f, m, nodes=512)
        assert len(calls) <= 120

    @pytest.mark.parametrize("seed", [808, 7])
    def test_bracket_search_matches_the_33_point_search(self, seed):
        # oracle: the diagnostic with the bracket search refined by 33
        # points a sweep (8 sweeps), where it now takes 513 (4 sweeps),
        # and the accepted count drawn from Binomial(n, 1/c_m)
        f = true_unit_pdf(spec_for("normal01"))
        grid = np.linspace(0.0, 1.0, 4001)
        fg = f(grid)
        for m in (4, 8, 16, 32):
            w = best_mixture_approximation(f, m, nodes=512)
            fm = BernsteinMixture(w).pdf
            ratios = fm(grid) / fg
            i = int(np.argmax(ratios))
            c_old = float(ratios[i])
            lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
            while hi - lo > 1e-12:
                t = np.linspace(lo, hi, 33)
                ratios = fm(t) / f(t)
                i = int(np.argmax(ratios))
                c_old = max(c_old, float(ratios[i]))
                lo, hi = t[max(i - 1, 0)], t[min(i + 1, t.size - 1)]
            kept_old = np.random.default_rng(seed).binomial(10_000, min(1.0, 1.0 / c_old)) / 10_000
            c, kept = acceptance_rejection_diag(f, w, n=10_000, seed=seed)
            assert abs(c - c_old) <= 1e-15 * c_old, m
            assert kept == kept_old, m

    @pytest.mark.parametrize(
        "bad",
        [
            lambda f, t: np.where(t < 0.001, np.inf, f(t)),  # inf near 0
            lambda f, t: np.full(np.shape(t), np.nan),  # NaN everywhere
            lambda f, t: np.where(t > 0.9, np.nan, f(t)),  # NaN on (0.9, 1]
            lambda f, t: np.zeros(np.shape(t)),  # no mass at all
            lambda f, t: f(t) - 0.2,  # negative in the tails
        ],
        ids=["inf", "all-nan", "nan-tail", "all-zero", "negative"],
    )
    def test_unusable_truth_is_rejected_before_the_fit(self, bad, monkeypatch):
        # an inf atom mass made the objective NaN, and the line search
        # then looped for ever; NaN and all-zero masses fitted garbage
        import bernmix.sim

        def no_fit(*args):
            raise AssertionError("the solver was reached")

        monkeypatch.setattr(bernmix.sim, "_fit", no_fit)
        f = true_unit_pdf(spec_for("normal01"))
        with pytest.raises(ValueError, match="atom mass"):
            best_mixture_approximation(lambda t: bad(f, np.asarray(t, float)), 8)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_truth_rejected_before_any_draw(self, value, monkeypatch):
        # a NaN truth gave (nan, 0.0), an inf one (0.0, 0.0)
        import bernmix.sim

        def no_draw(*args):
            raise AssertionError("a draw was made")

        monkeypatch.setattr(bernmix.sim.np.random, "default_rng", no_draw)
        w = SimplexWeights(np.array([0.6, 0.4]))
        pdf = lambda t: np.where(np.asarray(t, float) > 0.5, value, 1.0)
        with pytest.raises(ValueError, match="finite and strictly positive"):
            acceptance_rejection_diag(pdf, w, n=10, seed=1)

    @pytest.mark.parametrize("m", [1882, 100_000])
    def test_degree_past_the_evaluator_rejected_before_any_matrix(self, m, monkeypatch):
        import bernmix.likelihood

        def no_matrix(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(bernmix.likelihood, "basis_matrix", no_matrix)
        f = true_unit_pdf(spec_for("normal01"))
        with pytest.raises(ValueError, match=f"degree {m} is above"):
            best_mixture_approximation(f, m)

    def test_population_fit_at_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(em, "SQP_MAX_STEPS", 1)
        f = true_unit_pdf(spec_for("normal01"))
        with pytest.raises(ValueError, match=r"degree 16 stopped after 1 steps with gap"):
            best_mixture_approximation(f, 16)

    @pytest.mark.parametrize("n", [1, 7, 10_000])
    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_kept_is_the_seeded_binomial_draw(self, m, n):
        f = true_unit_pdf(spec_for("normal01"))
        w = _normal01_fit(m)
        for seed in (0, 5, 808, 2024):
            c, kept = acceptance_rejection_diag(f, w, n=n, seed=seed)
            assert kept == np.random.default_rng(seed).binomial(n, min(1.0, 1.0 / c)) / n, seed

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_monte_carlo_acceptance_matches_the_exact_rate(self, m):
        # oracle: exact draws from the truth (the scenario's own sampler),
        # each accepted when u <= f_m(x) / (c_m f(x)); the accepted share
        # and the diagnostic's kept both lie within 4 standard errors of
        # the exact rate 1/c_m
        n = 20_000
        spec = spec_for("normal01", n=n, seed=11)
        f = true_unit_pdf(spec)
        w = _normal01_fit(m)
        c, _ = acceptance_rejection_diag(f, w, n=1, seed=0)
        rate = 1.0 / c
        four_se = 4.0 * math.sqrt(rate * (1.0 - rate) / n)
        x = generate(spec, 0).values
        u = np.random.default_rng(12).uniform(size=n)
        accepted = np.mean(u <= BernsteinMixture(w).pdf(x) / (c * f(x)))
        assert abs(accepted - rate) <= four_se, (accepted, rate)
        for seed in (808, 2024):
            _, kept = acceptance_rejection_diag(f, w, n=n, seed=seed)
            assert abs(kept - rate) <= four_se, (seed, kept, rate)

    def test_truth_is_evaluated_once_on_the_grid(self):
        # then once in each of the four 513-point sweeps, and at no draw
        f = true_unit_pdf(spec_for("normal01"))
        grid = np.linspace(0.0, 1.0, 4001)
        for m in (4, 8, 16, 32):
            calls = []

            def recorded(t):
                calls.append(np.array(t, dtype=float))
                return f(t)

            acceptance_rejection_diag(recorded, _normal01_fit(m), n=10_000, seed=2)
            assert sum(np.array_equal(t, grid) for t in calls) == 1, m
            assert [t.size for t in calls] == [4001] + 4 * [513], m

    @pytest.mark.parametrize("n", [0, -3, 2.5, "10"])
    def test_draw_count_must_be_a_positive_integer(self, n):
        calls = []

        def recorded(t):
            calls.append(t)
            return np.ones_like(np.asarray(t, float))

        w = SimplexWeights(np.array([0.6, 0.4]))
        with pytest.raises(ValueError, match="n must be an integer of at least 1"):
            acceptance_rejection_diag(recorded, w, n=n, seed=1)
        assert calls == []

    def test_nonpositive_truth_rejected(self):
        w = SimplexWeights(np.array([1.0]))
        pdf = lambda t: np.asarray(t, float)  # vanishes at 0
        with pytest.raises(ValueError):
            acceptance_rejection_diag(pdf, w, n=10, seed=1)
