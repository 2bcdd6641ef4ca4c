import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import gammaln

from bernmix import basis_matrix, beta_cdf, beta_density, cdf_matrix, degree_elevate
from bernmix.basis import _bernstein_sum, _log_binomials

GL_NODES, GL_WEIGHTS = leggauss(64)
GL_T = 0.5 * (GL_NODES + 1.0)  # map to [0, 1]
GL_W = 0.5 * GL_WEIGHTS


class TestBetaDensity:
    def test_degree_zero_is_uniform(self):
        assert beta_density(0, 0, 0.37) == 1.0

    def test_closed_form_midpoint(self):
        # 3 * C(2,1) * 0.5 * 0.5
        assert beta_density(2, 1, 0.5) == pytest.approx(1.5, rel=1e-15)

    def test_large_degree_matches_exact_binomial(self):
        # independent route: exact integer binomial coefficient
        expected = 41 * math.comb(40, 20) * 0.5**40
        assert beta_density(40, 20, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_endpoint_convention(self):
        assert beta_density(5, 0, 0.0) == 6.0
        assert beta_density(5, 5, 1.0) == 6.0
        assert beta_density(5, 2, 0.0) == 0.0
        assert beta_density(5, 3, 1.0) == 0.0

    def test_integrates_to_one_all_degrees(self):
        # Gauss-Legendre at 64 nodes integrates degree <= 127 exactly
        for m in range(51):
            vals = basis_matrix(m, GL_T)
            integrals = GL_W @ vals
            np.testing.assert_allclose(integrals, 1.0, atol=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_density(3, 4, 0.5)
        with pytest.raises(ValueError):
            beta_density(3, -1, 0.5)
        with pytest.raises(ValueError):
            beta_density(3, 1, 1.5)


class TestBetaCdf:
    def test_endpoints(self):
        for m, j in [(0, 0), (7, 3), (25, 25)]:
            assert beta_cdf(m, j, 0.0) == 0.0
            assert beta_cdf(m, j, 1.0) == 1.0

    def test_degree_one_closed_form(self):
        # 1 - (1-t)^2 at t = 0.5
        assert beta_cdf(1, 0, 0.5) == pytest.approx(0.75, rel=1e-15)

    def test_matches_density_quadrature(self):
        val, err = quad(lambda t: beta_density(13, 7, t), 0.0, 0.4, epsabs=1e-13)
        assert beta_cdf(13, 7, 0.4) == pytest.approx(val, abs=1e-10)

    def test_matches_scipy_incomplete_beta(self):
        from scipy.special import betainc

        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(0, 60))
            j = int(rng.integers(0, m + 1))
            t = float(rng.uniform())
            assert beta_cdf(m, j, t) == pytest.approx(
                betainc(j + 1, m - j + 1, t), abs=1e-12
            )

    def test_nondecreasing_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1000)
        for m in range(51):
            vals = cdf_matrix(m, grid)
            assert np.all(np.diff(vals, axis=0) >= -1e-12)

    def test_derivative_is_density(self):
        h = 1e-7
        t = np.linspace(0.05, 0.95, 19)
        for m, j in [(4, 2), (13, 7), (30, 11)]:
            num = (beta_cdf(m, j, t + h) - beta_cdf(m, j, t - h)) / (2 * h)
            np.testing.assert_allclose(num, beta_density(m, j, t), atol=1e-6)


class TestMatrices:
    def test_matrix_agrees_with_scalar_calls(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(size=7)
        m = 9
        dens = basis_matrix(m, t)
        cdfs = cdf_matrix(m, t)
        for j in range(m + 1):
            np.testing.assert_allclose(dens[:, j], beta_density(m, j, t), rtol=1e-13)
            np.testing.assert_allclose(cdfs[:, j], beta_cdf(m, j, t), rtol=1e-12)

    def test_endpoint_rows(self):
        m = 6
        dens = basis_matrix(m, np.array([0.0, 1.0]))
        assert dens[0, 0] == m + 1 and dens[1, m] == m + 1
        assert dens[0, 1:].sum() == 0.0 and dens[1, :m].sum() == 0.0


class TestLogBinomials:
    @pytest.mark.parametrize("m", [0, 1, 13, 40, 200, 600])
    def test_matches_log_gamma_form(self, m):
        k = np.arange(m + 1)
        oracle = gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
        np.testing.assert_allclose(_log_binomials(m), oracle, rtol=0.0, atol=1e-12)

    def test_rounds_the_exact_integer_once(self):
        for m in (13, 40, 600):
            exact = [math.log(math.comb(m, k)) for k in range(m + 1)]
            assert _log_binomials(m).tolist() == exact

    def test_cached_row_is_read_only(self):
        row = _log_binomials(17)
        assert _log_binomials(17) is row
        with pytest.raises(ValueError):
            row[3] = 0.0

    def test_degree_in_the_thousand_range_stays_finite(self):
        # C(1001, k) overflows a float, its log does not
        m = 1000
        t = np.array([1e-3, 0.25, 0.5, 0.73, 0.999])
        dens = basis_matrix(m, t)
        cdfs = cdf_matrix(m, t)
        assert np.all(np.isfinite(dens)) and np.all(np.isfinite(cdfs))
        for j in range(m + 1):
            np.testing.assert_allclose(dens[:, j], beta_density(m, j, t), rtol=1e-13)
            np.testing.assert_allclose(cdfs[:, j], beta_cdf(m, j, t), rtol=0.0, atol=1e-14)


def exact_bernstein_sum(c, t):
    """sum_k c_k C(n,k) t^k (1-t)^(n-k) in exact rational arithmetic."""
    n, t = len(c) - 1, Fraction(t)
    return sum(Fraction(ck) * math.comb(n, k) * t**k * (1 - t) ** (n - k) for k, ck in enumerate(c))


class TestBernsteinSum:
    EXACT_POINTS = (0.0, 1e-300, 1e-3, 0.5, 0.999, 1.0 - 2.0**-53, 1.0)

    @pytest.mark.parametrize("m", [0, 1, 5, 32, 60])
    def test_matches_exact_rational_sum(self, m):
        c = np.random.default_rng(m).dirichlet(np.ones(m + 1))
        got = _bernstein_sum(c, np.array(self.EXACT_POINTS))
        bound = 4 * (m + 1) * np.finfo(float).eps
        for t, value in zip(self.EXACT_POINTS, got):
            exact = float(exact_bernstein_sum(c, t))
            assert abs(value - exact) <= bound * exact, (t, value, exact)

    @pytest.mark.parametrize("m", [1100, 1500, 1881])
    def test_past_the_binomial_overflow_matches_the_basis_matrix(self, m):
        # C(m, k) itself overflows a float past m of about 1030; 1881 is the
        # last degree the evaluator covers
        p = np.random.default_rng(m).dirichlet(np.ones(m + 1))
        t = np.concatenate((np.linspace(0.0, 1.0, 1001), [1e-6, 0.4999, 0.5001, 1.0 - 1e-6]))
        vals = (m + 1) * _bernstein_sum(p, t)
        assert np.all(np.isfinite(vals))
        np.testing.assert_allclose(vals, basis_matrix(m, t) @ p, rtol=1e-12, atol=0.0)

    def test_degree_past_the_range_is_refused(self):
        _bernstein_sum(np.full(1882, 1.0 / 1882), np.array([0.5]))
        with pytest.raises(ValueError, match="degree 1882"):
            _bernstein_sum(np.full(1883, 1.0 / 1883), np.array([0.5]))

    def test_ends_are_the_end_weights(self):
        c = np.random.default_rng(3).dirichlet(np.ones(9))
        assert _bernstein_sum(c, np.array([0.0, 1.0])).tolist() == [c[0], c[-1]]

    def test_value_alone_equals_value_in_any_batch(self):
        rng = np.random.default_rng(8)
        c = rng.dirichlet(np.ones(21))
        t = np.concatenate((rng.uniform(size=5000), [0.0, 0.5, 1.0]))
        batch = _bernstein_sum(c, t)
        for i in rng.choice(t.size, size=100, replace=False):
            assert _bernstein_sum(c, t[i : i + 1])[0] == batch[i]
        order = rng.permutation(t.size)
        assert np.array_equal(_bernstein_sum(c, t[order]), batch[order])
        assert np.array_equal(_bernstein_sum(c, t[::7]), batch[::7])
        # batches that leave one half of [0, 1] empty, and the empty batch
        for part in (t <= 0.5, t > 0.5):
            assert np.array_equal(_bernstein_sum(c, t[part]), batch[part])
        assert _bernstein_sum(c, np.array([0.5])).tolist() == batch[t == 0.5].tolist()
        assert _bernstein_sum(c, np.empty(0)).shape == (0,)


class TestDegreeElevate:
    def test_uniform_single_step(self):
        np.testing.assert_allclose(degree_elevate([1.0], 1), [0.5, 0.5])

    def test_density_unchanged_on_grid(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(20):
            m = int(rng.integers(0, 12))
            p = rng.dirichlet(np.ones(m + 1))
            r = int(rng.integers(1, 4))
            before = basis_matrix(m, grid) @ p
            after = basis_matrix(m + r, grid) @ degree_elevate(p, r)
            np.testing.assert_allclose(after, before, atol=1e-12)

    def test_two_step_example(self):
        p4 = degree_elevate([0.2, 0.5, 0.3], 2)
        grid = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(
            basis_matrix(4, grid) @ p4,
            basis_matrix(2, grid) @ np.array([0.2, 0.5, 0.3]),
            atol=1e-12,
        )

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(0, 15))
            p = rng.dirichlet(np.full(m + 1, 0.5))
            out = degree_elevate(p, int(rng.integers(1, 5)))
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) < 1e-12
