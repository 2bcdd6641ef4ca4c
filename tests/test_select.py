import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from bernmix import (
    BernsteinMixture,
    DegenerateDataError,
    EmConfig,
    GroupedSample,
    RawSample,
    SelectionError,
    SimplexWeights,
    change_point,
    em_raw,
    generate,
    group,
    lower_bound_degree,
    select_degree,
)
from bernmix.cli import read_grouped_csv
from bernmix.em import GAP_TOL
from bernmix.likelihood import _loglik, _problem, loglik_grouped, loglik_raw
from bernmix.sim import ScenarioSpec, scenario_distribution

CHICKEN_CSV = Path(__file__).resolve().parent.parent / "data" / "chicken_embryo.csv"


def r_profile_reference(logliks):
    """Direct transcription of the change-point likelihood ratio."""
    ll = np.asarray(logliks, dtype=float)
    k = ll.size - 1
    out = []
    for tau in range(1, k + 1):
        if tau == k:
            out.append(0.0)
            continue
        total = max(ll[-1] - ll[0], 1e-12)
        g1 = max(ll[tau] - ll[0], 1e-12)
        g2 = max(ll[-1] - ll[tau], 1e-12)
        out.append(
            k * math.log(total / k)
            - tau * math.log(g1 / tau)
            - (k - tau) * math.log(g2 / (k - tau))
        )
    return np.array(out)


class TestLowerBound:
    def test_uniform_counts_fine_cells(self):
        bp = np.linspace(0.0, 1.0, 101)
        g = GroupedSample(bp, np.full(100, 50))
        assert lower_bound_degree(g, (0.0, 1.0)) == 1

    def test_hand_moment_formula(self):
        bp = np.linspace(0.0, 1.0, 6)
        counts = np.array([10, 20, 40, 20, 10])
        g = GroupedSample(bp, counts)
        mid = 0.5 * (bp[:-1] + bp[1:])
        n = counts.sum()
        mu = float(counts @ mid) / n
        var = (float(counts @ mid**2) - n * mu * mu) / (n - 1)
        expected = max(1, math.ceil(mu * (1 - mu) / var - 3))
        assert lower_bound_degree(g, (0.0, 1.0)) == expected

    def test_population_nearly_normal(self):
        # exact cell probabilities of the k-fold uniform mean at 1000 cells
        bp = np.linspace(0.0, 1.0, 1001)
        for k in (2, 3, 4):
            cdf = scenario_distribution(f"nn{k}").cdf(bp)
            counts = np.round(np.diff(cdf) * 10**12).astype(np.int64)
            g = GroupedSample(bp, counts)
            assert lower_bound_degree(g, (0.0, 1.0)) == 3 * (k - 1)

    def test_degenerate_single_cell(self):
        g = GroupedSample([0.0, 0.5, 1.0], [25, 0])
        with pytest.raises(DegenerateDataError):
            lower_bound_degree(g, (0.0, 1.0))

    def test_one_populated_cell_of_seven_is_degenerate(self):
        # the midpoint mean of three equal midpoints sits an ulp off them,
        # and the uncentred sum of squares read that as a bound of ~7.6e16
        g = GroupedSample(np.linspace(0.0, 1.0, 8), [3, 0, 0, 0, 0, 0, 0])
        with pytest.raises(DegenerateDataError):
            lower_bound_degree(g, (0.0, 1.0))

    def test_one_populated_cell_is_degenerate_on_any_partition(self):
        for cells in range(1, 41):
            for count in (2, 3, 7, 100):
                for j in range(cells):
                    counts = np.zeros(cells, dtype=int)
                    counts[j] = count
                    g = GroupedSample(np.linspace(0.0, 1.0, cells + 1), counts)
                    with pytest.raises(DegenerateDataError):
                        lower_bound_degree(g, (0.0, 1.0))

    @pytest.mark.parametrize("value", [0.1, 0.3, 0.7, 1.0 / 3.0])
    @pytest.mark.parametrize("n", [3, 7, 10])
    def test_constant_raw_sample_is_degenerate(self, value, n):
        # the same ulp residue made the default degrees of some constant
        # samples start near 1e32
        with pytest.raises(DegenerateDataError):
            select_degree(RawSample(np.full(n, value)))


class TestChangePoint:
    def test_synthetic_sequence(self):
        tau, r = change_point([0.0, 10.0, 20.0, 21.0, 22.0, 23.0])
        assert tau == 2
        np.testing.assert_allclose(
            r, r_profile_reference([0.0, 10.0, 20.0, 21.0, 22.0, 23.0]), atol=1e-12
        )
        assert tau == int(np.argmax(r)) + 1

    def test_equal_increments_tie_breaks_small(self):
        tau, r = change_point([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert tau == 1
        np.testing.assert_allclose(r, 0.0, atol=1e-12)

    def test_shift_invariance(self):
        ll = np.array([0.0, 7.0, 12.0, 12.5, 12.7, 12.8, 12.85])
        tau1, r1 = change_point(ll)
        tau2, r2 = change_point(ll + 137.25)
        assert tau1 == tau2
        np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_flat_profile_raises(self):
        with pytest.raises(SelectionError):
            change_point([3.0, 3.0, 3.0, 3.0])

    def test_randomized_brute_force_agreement(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            k = int(rng.integers(3, 30))
            incs = rng.exponential(scale=1.0, size=k) * rng.choice([5.0, 1.0], size=k)
            ll = np.concatenate(([0.0], np.cumsum(incs)))
            tau, r = change_point(ll)
            ref = r_profile_reference(ll)
            np.testing.assert_allclose(r, ref, atol=1e-10)
            assert tau == int(np.argmax(ref)) + 1


class TestSelectDegree:
    def test_selects_on_grouped_data(self):
        rng = np.random.default_rng(3)
        truth = SimplexWeights(rng.dirichlet(np.ones(5)))
        x = BernsteinMixture(truth).sample(800, seed=10)
        g = group(RawSample(x), 20)
        trace = select_degree(g, (0.0, 1.0), degrees=range(1, 16))
        assert trace.m_hat == trace.degrees[trace.tau_hat]
        assert trace.logliks.size == 15
        assert np.all(trace.increments >= -1e-6)
        assert trace.best_fit.weights.m == trace.m_hat
        assert all(f.stop_reason == "converged" and f.converged for f in trace.fits)
        assert max(f.gap for f in trace.fits) <= 1e-6
        assert trace.elapsed_s.shape == trace.degrees.shape
        assert np.all(trace.elapsed_s > 0.0)
        assert trace.elapsed_s[3] == trace.fits[3].elapsed_s

    def test_warm_start_matches_cold_logliks(self):
        rng = np.random.default_rng(8)
        x = rng.beta(2, 4, size=300)
        data = RawSample(x)
        warm = select_degree(data, degrees=range(1, 8))
        tight = EmConfig(tol=1e-13, max_iter=300_000)
        cold = np.array([em_raw(data, m, tight).loglik for m in range(1, 8)])
        np.testing.assert_allclose(warm.logliks, cold, atol=1e-4)
        tau_hat, _ = change_point(cold)
        assert warm.m_hat == warm.degrees[tau_hat]

    def test_desk_scale_replicate_scan_is_nested(self):
        # replicate 42 of the C05 spec: an EM scan stopped on the relative
        # loglik change lost 1.1e-5 nats from degree to degree here
        spec = ScenarioSpec(
            "normal01", n=100, n_cells=10, seed=314159, degrees=tuple(range(1, 41))
        )
        g = group(generate(spec, 42), spec.n_cells)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = select_degree(g, (0.0, 1.0), degrees=spec.degrees)
        assert not [w for w in caught if "nested degree scan" in str(w.message)]
        assert trace.increments.min() >= -1e-6
        assert max(f.gap for f in trace.fits) <= 1e-6

    def test_warns_when_start_not_below_bound(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(size=400)  # bound is 1
        data = RawSample(x)
        with pytest.warns(UserWarning):
            select_degree(data, degrees=range(3, 9))

    def test_non_consecutive_degrees_rejected(self):
        data = RawSample(np.random.default_rng(0).uniform(size=50))
        with pytest.raises(ValueError):
            select_degree(data, degrees=[1, 3, 5])

    def test_raw_support_other_than_the_samples_is_rejected(self):
        # raw data are scaled by their own support; a different one used
        # to be ignored without a word
        data = RawSample(np.random.default_rng(0).uniform(size=50))
        with pytest.raises(ValueError, match="own support"):
            select_degree(data, (0.0, 5.0), degrees=range(6))
        same = select_degree(data, [0, 1], degrees=range(6))
        np.testing.assert_array_equal(same.logliks, select_degree(data, degrees=range(6)).logliks)

    def test_recovers_at_least_true_degree(self):
        # bimodal degree-4 mixture: no cubic has two interior modes, so
        # the scan should essentially never pick less than 4
        truth = SimplexWeights(np.array([0.0, 0.5, 0.0, 0.5, 0.0]))
        hits = 0
        reps = 50
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(reps):
                x = BernsteinMixture(truth).sample(2000, seed=500 + i)
                g = group(RawSample(x), 50)
                trace = select_degree(g, (0.0, 1.0), degrees=range(1, 13))
                hits += trace.m_hat >= 4
        assert hits >= 0.9 * reps

    def test_chicken_embryo_scan_outer_steps(self):
        # a count, not a timing: the scan takes 158 outer steps when each
        # degree starts from the elevated previous fit, and 184 when the
        # start frees every entry (elevated fit mixed with 1% uniform)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = select_degree(read_grouped_csv(CHICKEN_CSV), (0.0, 21.0), degrees=range(2, 51))
        assert trace.m_hat == 13
        assert sum(f.iterations for f in trace.fits) <= 160
        assert all(f.stop_reason == "converged" and f.gap <= GAP_TOL for f in trace.fits)

    def test_scan_logliks_equal_the_likelihood_functions(self):
        rng = np.random.default_rng(21)
        raw = RawSample(rng.beta(2, 5, size=150))
        grouped = group(raw, 10)
        for data, loglik in (
            (raw, lambda w: loglik_raw(w, raw)),
            (grouped, lambda w: loglik_grouped(w, grouped, (0.0, 1.0))),
        ):
            trace = select_degree(data, (0.0, 1.0), degrees=range(1, 13))
            for fit in trace.fits:
                assert fit.loglik == pytest.approx(loglik(fit.weights), rel=0.0, abs=1e-12)

    def test_mass_matrix_loglik_of_an_excluded_cell_is_minus_inf(self):
        # all weight on the first component: its mass on (0.99, 1] is
        # 0.01**201, 0 in floating point, and a point at 1 has density 0
        m = 200
        w = SimplexWeights(np.eye(m + 1)[0])
        g = GroupedSample([0.0, 0.5, 0.99, 1.0], [3, 4, 1])
        a, counts = _problem(g, (0.0, 1.0), m)
        assert _loglik(a, counts, w.p) == loglik_grouped(w, g, (0.0, 1.0)) == -np.inf
        raw = RawSample(np.array([0.2, 1.0]))
        b, ones = _problem(raw, None, m)
        assert _loglik(b, ones, w.p) == loglik_raw(w, raw) == -np.inf
