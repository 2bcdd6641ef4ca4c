"""Self-tests of the benchmark oracle.

    python3 -m pytest -q perfbench/test_oracle.py

The oracle agrees with bernmix on small cases, and each check rejects a
perturbed output.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bernmix as bm  # noqa: E402
import oracle  # noqa: E402


def _weights(rng, m):
    p = rng.uniform(0.05, 1.0, size=m + 1)
    return p / p.sum()


def _grouped(rng, cells=8, n=60):
    bp = np.concatenate(([0.0], np.sort(rng.uniform(0.02, 0.98, cells - 1)), [1.0]))
    return bp, rng.multinomial(n, np.full(cells, 1.0 / cells))


@pytest.mark.parametrize("m", [0, 1, 4, 9])
def test_loglik_raw_agrees_with_bernmix(m):
    rng = np.random.default_rng(m)
    p, u = _weights(rng, m), np.append(rng.uniform(size=40), [0.0, 1.0])
    want = bm.loglik_raw(bm.SimplexWeights(p), bm.RawSample(u))
    assert oracle.loglik_raw(p, u) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [1, 3, 12])
def test_loglik_grouped_agrees_with_bernmix(m):
    rng = np.random.default_rng(10 + m)
    p = _weights(rng, m)
    bp, counts = _grouped(rng)
    want = bm.loglik_grouped(bm.SimplexWeights(p), bm.GroupedSample(bp, counts), (0.0, 1.0))
    assert oracle.loglik_grouped(p, bp, counts) == pytest.approx(want, rel=1e-12)


def test_change_point_and_lower_bound_agree_with_bernmix():
    rng = np.random.default_rng(3)
    bp, counts = _grouped(rng, cells=10, n=200)
    g = bm.GroupedSample(bp, counts)
    trace = bm.select_degree(g, (0.0, 1.0), degrees=range(1, 12))
    assert trace.degrees[oracle.change_point_index(trace.logliks)] == trace.m_hat
    assert oracle.moment_lower_bound(bp, counts) == bm.lower_bound_degree(g, (0.0, 1.0))


def test_elevation_keeps_the_density():
    p = _weights(np.random.default_rng(4), 3)
    u = np.linspace(0.0, 1.0, 11)
    up = oracle.elevate(p, 7)
    assert np.allclose(up, bm.degree_elevate(p, 4), rtol=0, atol=1e-15)
    assert np.allclose(oracle.basis_pdf(7, u) @ up, oracle.basis_pdf(3, u) @ p, rtol=1e-13)


def test_gap_is_nonnegative_and_small_at_a_tight_fit():
    rng = np.random.default_rng(5)
    bp, counts = _grouped(rng, n=300)
    assert oracle.gap_grouped(_weights(rng, 4), bp, counts) > 0.0
    fit = bm.em_grouped(bm.GroupedSample(bp, counts), (0.0, 1.0), 2, bm.EmConfig(tol=1e-15))
    assert 0.0 <= oracle.gap_grouped(fit.weights.p, bp, counts) < 1e-4


def test_ise_agrees_with_the_harness_quadrature():
    spec = bm.ScenarioSpec("exp1", n=100, n_cells=10, replicates=1, seed=9, degrees=tuple(range(1, 41)))
    trace = bm.select_degree(bm.group(bm.generate(spec, 0), 10), (0.0, 1.0), degrees=spec.degrees)
    got = oracle.ise(trace.best_fit.weights.p, "exp1")
    want = bm.mise(spec, "mble").mise
    assert got == pytest.approx(want, rel=oracle.ISE_RTOL)


def _scan():
    rng = np.random.default_rng(6)
    bp, counts = _grouped(rng, cells=10, n=150)
    trace = bm.select_degree(bm.GroupedSample(bp, counts), (0.0, 1.0), degrees=range(2, 9))
    scan = {
        "degrees": [int(m) for m in trace.degrees],
        "logliks": trace.logliks.tolist(),
        "m_hat": trace.m_hat,
        "weights": [f.weights.p.tolist() for f in trace.fits],
    }
    return scan, (lambda p: oracle.loglik_grouped(p, bp, counts)), (lambda p: oracle.gap_grouped(p, bp, counts))


def test_scan_check_passes_on_the_program_output():
    scan, loglik, gap = _scan()
    errors, gap_max = oracle.check_scan(scan, loglik, gap, "scan")
    assert errors == [] and gap_max >= 0.0


def test_scan_check_fails_on_permuted_weights():
    scan, loglik, gap = _scan()
    scan["weights"][-1] = scan["weights"][-1][::-1]
    errors, _ = oracle.check_scan(scan, loglik, gap, "scan")
    assert any("loglik" in e for e in errors)


def test_scan_check_fails_on_a_wrong_m_hat():
    scan, loglik, gap = _scan()
    scan["m_hat"] += 1
    errors, _ = oracle.check_scan(scan, loglik, gap, "scan")
    assert any("m_hat" in e for e in errors)


def test_simplex_check_fails_off_the_simplex():
    assert oracle.check_simplex([0.5, 0.5], "w") == []
    assert oracle.check_simplex([0.6, 0.5], "w") != []
    assert oracle.check_simplex([1.1, -0.1], "w") != []


def _eval_rows():
    p = _weights(np.random.default_rng(7), 6)
    model = bm.BernsteinMixture(bm.SimplexWeights(p), (0.0, 21.0))
    x = np.linspace(0.0, 21.0, 2001)
    return x, model.pdf(x), model.cdf(x), p


def test_eval_check_passes_on_the_program_output():
    x, dens, cdf, p = _eval_rows()
    assert oracle.check_eval(x, dens, cdf, p, (0.0, 21.0), "eval") == []


def test_eval_check_fails_on_a_shifted_cdf():
    x, dens, cdf, p = _eval_rows()
    shifted = np.append(cdf[1:], 1.0)
    assert oracle.check_eval(x, dens, shifted, p, (0.0, 21.0), "eval") != []


def test_eval_check_fails_on_a_wrong_density():
    x, dens, cdf, p = _eval_rows()
    assert oracle.check_eval(x, dens * 1.001, cdf, p, (0.0, 21.0), "eval") != []
