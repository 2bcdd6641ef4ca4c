"""Acceptance suite: one test per exit criterion, run at stated tolerances.

Each test prints one "ACCEPTANCE <k>: PASS" line (visible with -s or -rA);
a failing criterion fails its test.  The Monte Carlo criteria share fixed
seeds so the whole suite is reproducible run to run.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import bernmix as bm
import bernmix.cli
from bernmix.em import em_step
from bernmix.sim import best_mixture_approximation, true_unit_pdf

pytestmark = [
    pytest.mark.filterwarnings("ignore:.*lower bound.*"),
    pytest.mark.filterwarnings("ignore:.*nested degree scan.*"),
]


def cell_basis_matrix(m, unit_breakpoints):
    """Per-cell basis masses B_mj(u_i) - B_mj(u_{i-1}); rows are cells."""
    return np.diff(bm.cdf_matrix(m, unit_breakpoints), axis=0)


DATA_DIR = Path(__file__).resolve().parent.parent / "data"
CHICKEN_CSV = DATA_DIR / "chicken_embryo.csv"

MISE_SEED = 314159
PAPER_DEGREES = "1..40"


def report(k, detail):
    print(f"ACCEPTANCE {k}: PASS — {detail}")


def random_instance(rng, i, kind, n_max=500):
    m = int(rng.integers(0, 16))
    n = int(rng.integers(20, n_max + 1))
    truth = bm.SimplexWeights(rng.dirichlet(np.ones(m + 1)))
    x = bm.BernsteinMixture(truth).sample(n, seed=10_000 + i)
    data = bm.RawSample(x)
    if kind == "raw":
        return m, data, None
    return m, data, bm.group(data, int(rng.integers(5, 31)))


def test_c01_em_ascent_and_fixed_point():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_extra = 0.0
    for i in range(200):
        kind = "raw" if i % 5 < 2 else "grouped"
        m, data, grouped = random_instance(
            rng, i, kind, n_max=300 if kind == "raw" else 500
        )
        if kind == "raw":
            rep = bm.em_raw(data, m, bm.EmConfig(tol=1e-11, max_iter=300_000))
            b = bm.basis_matrix(m, data.unit_values())
            step = lambda p: em_step(p, b, np.ones(data.n))
        else:
            rep = bm.em_grouped(
                grouped, (0, 1), m, bm.EmConfig(tol=1e-12, max_iter=300_000)
            )
            pos = grouped.counts > 0
            a_mat = cell_basis_matrix(m, grouped.breakpoints)[pos]
            cnt = grouped.counts[pos].astype(float)
            step = lambda p: em_step(p, a_mat, cnt)
        assert np.all(np.diff(rep.loglik_trace) >= -1e-10)
        p_next, ll_here = step(rep.weights.p)
        _, ll_next = step(p_next)
        extra = abs(ll_next - ll_here)
        worst_extra = max(worst_extra, extra)
        assert extra < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(1, f"200 instances, worst extra-update dll {worst_extra:.2e}, {elapsed:.1f}s")


def exhaustive_simplex_best(loglik_of_matrix):
    """Degree-2 grid search: step 0.01 everywhere, 0.001 near the winner."""

    def grid(step, p0_rng=(0.0, 1.0), p1_box=None):
        pts = []
        for p0 in np.arange(p0_rng[0], p0_rng[1] + 1e-12, step):
            lo, hi = (0.0, 1.0 - p0) if p1_box is None else p1_box
            hi = min(hi, 1.0 - p0)
            if hi < lo - 1e-12:
                continue
            for p1 in np.arange(lo, hi + 1e-12, step):
                pts.append((p0, p1, max(1.0 - p0 - p1, 0.0)))
        return np.asarray(pts)

    coarse = grid(0.01)
    lls = loglik_of_matrix(coarse)
    best = int(np.argmax(lls))
    p0c, p1c = coarse[best, 0], coarse[best, 1]
    fine = grid(
        0.001,
        (max(0.0, p0c - 0.01), min(1.0, p0c + 0.01)),
        (max(0.0, p1c - 0.01), p1c + 0.01),
    )
    return max(float(lls[best]), float(loglik_of_matrix(fine).max()))


def test_c02_brute_force_oracle_equivalence():
    rng = np.random.default_rng(202)
    t0 = time.time()
    for i in range(10):
        n = int(rng.integers(30, 80))
        x = rng.beta(rng.uniform(1, 4), rng.uniform(1, 4), size=n)
        data = bm.RawSample(x)
        if i % 2:
            rep = bm.em_raw(data, 2, bm.EmConfig(tol=1e-11))
            b = bm.basis_matrix(2, data.unit_values())
            best = exhaustive_simplex_best(
                lambda pts: np.log(np.maximum(b @ pts.T, 1e-300)).sum(axis=0)
            )
        else:
            grouped = bm.group(data, 8)
            rep = bm.em_grouped(grouped, (0, 1), 2, bm.EmConfig(tol=1e-11))
            a_mat = cell_basis_matrix(2, grouped.breakpoints)
            cnt = grouped.counts.astype(float)
            best = exhaustive_simplex_best(
                lambda pts: cnt @ np.log(np.maximum(a_mat @ pts.T, 1e-300))
            )
        assert abs(rep.loglik - best) < 1e-3
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(2, f"10 datasets within 1e-3 of grid search, {elapsed:.1f}s")


def test_c03_nestedness_degree_elevation():
    rng = np.random.default_rng(303)
    for i in range(50):
        m = int(rng.integers(0, 10))
        r = int(rng.integers(1, 4))
        p = bm.SimplexWeights(rng.dirichlet(np.ones(m + 1)))
        lifted = p.elevate(r)
        n = int(rng.integers(20, 200))
        x = bm.BernsteinMixture(
            bm.SimplexWeights(rng.dirichlet(np.ones(4)))
        ).sample(n, seed=3000 + i)
        data = bm.RawSample(x)
        grouped = bm.group(data, int(rng.integers(4, 20)))
        assert abs(bm.loglik_raw(lifted, data) - bm.loglik_raw(p, data)) < 1e-9
        assert (
            abs(
                bm.loglik_grouped(lifted, grouped, (0, 1))
                - bm.loglik_grouped(p, grouped, (0, 1))
            )
            < 1e-9
        )
    report(3, "raw and grouped logliks invariant under elevation (r <= 3)")


def test_c04_grouped_to_raw_limit():
    rng = np.random.default_rng(404)
    x = rng.uniform(size=100)
    data = bm.RawSample(x)
    p = bm.SimplexWeights(rng.dirichlet(np.ones(6)))
    ll_raw = bm.loglik_raw(p, data)
    gaps = []
    for n_cells in (100, 1000, 10_000, 100_000):
        grouped = bm.group(data, n_cells)
        width_term = float(grouped.counts @ np.log(grouped.widths))
        gap = abs(bm.loglik_grouped(p, grouped, (0, 1)) - width_term - ll_raw)
        gaps.append(gap)
    assert all(gaps[i] > gaps[i + 1] for i in range(3))
    assert gaps[-1] < 1e-3
    report(4, f"gap decreases {['%.2e' % g for g in gaps]}; at 1e5 cells {gaps[-1]:.2e}")


@pytest.fixture(scope="module")
def desk_scale_normal01(tmp_path_factory):
    out = tmp_path_factory.mktemp("mise") / "normal01.csv"
    t0 = time.time()
    code = bm.cli.main(
        [
            "simulate", "--scenario", "normal01", "--n", "100", "--cells", "10",
            "--replicates", "100", "--estimators", "mble,kernel",
            "--seed", str(MISE_SEED), "--degrees", PAPER_DEGREES, "--out", str(out),
        ]
    )
    assert code == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    table = {r[3]: r for r in rows}
    return table, time.time() - t0


def test_c05_table1_ordering_desk_scale(desk_scale_normal01):
    table, elapsed = desk_scale_normal01
    mise_mble = float(table["mble"][4])
    mise_kernel = float(table["kernel"][4])
    degree_mean = float(table["mble"][6])
    assert mise_mble < mise_kernel
    assert 5e-5 <= mise_mble <= 5e-3
    assert 8.0 <= degree_mean <= 20.0
    assert elapsed < 600.0
    report(
        5,
        f"mise mble {mise_mble:.5f} < kernel {mise_kernel:.5f}, "
        f"E(m) {degree_mean:.2f}, {elapsed:.0f}s",
    )


def test_c06_mise_shrinks_with_sample_size(desk_scale_normal01):
    table, _ = desk_scale_normal01
    normal_small = float(table["mble"][4])
    degrees = tuple(range(1, 41))
    values = {"normal01": {100: normal_small}, "exp1": {}}
    runs = [("normal01", 500, 20), ("exp1", 100, 10), ("exp1", 500, 20)]
    for tag, n, cells in runs:
        spec = bm.ScenarioSpec(
            tag, n=n, n_cells=cells, replicates=100, seed=MISE_SEED, degrees=degrees
        )
        values[tag][n] = bm.mise(spec, "mble").mise
    assert values["normal01"][500] < values["normal01"][100]
    assert values["exp1"][500] < values["exp1"][100]
    report(
        6,
        "mise(n=500) < mise(n=100): "
        f"normal01 {values['normal01'][500]:.5f} < {values['normal01'][100]:.5f}, "
        f"exp1 {values['exp1'][500]:.5f} < {values['exp1'][100]:.5f}",
    )


def test_c07_uniqueness_across_inits():
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(20):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(50, 301))
        truth = bm.SimplexWeights(rng.dirichlet(np.ones(m + 1)))
        x = bm.BernsteinMixture(truth).sample(n, seed=7000 + i)
        data = bm.RawSample(x)
        finals = []
        for _ in range(10):
            init = bm.SimplexWeights(
                0.95 * rng.dirichlet(np.ones(m + 1)) + 0.05 / (m + 1)
            )
            rep = bm.em_raw(data, m, bm.EmConfig(tol=1e-12, init=init))
            finals.append(rep.loglik)
        spread = max(finals) - min(finals)
        worst = max(worst, spread)
        assert spread < 1e-6
    report(7, f"20 instances x 10 inits, worst loglik spread {worst:.2e}")


def test_c08_acceptance_rejection_diagnostic():
    f = true_unit_pdf(bm.ScenarioSpec("normal01", n=1, n_cells=1))
    cs, kepts = [], []
    t0 = time.time()
    for m in (4, 8, 16, 32):
        weights = best_mixture_approximation(f, m)
        c, kept = bm.acceptance_rejection_diag(f, weights, n=10_000, seed=808)
        cs.append(c)
        kepts.append(kept)
    elapsed = time.time() - t0
    mc_tol = 0.005
    assert all(cs[i + 1] <= cs[i] + mc_tol for i in range(3))
    assert all(kepts[i + 1] >= kepts[i] - mc_tol for i in range(3))
    assert cs[-1] < 1.01
    assert kepts[-1] > 0.99
    report(
        8,
        "c_m " + "->".join(f"{c:.4f}" for c in cs)
        + ", 1/c_m " + "->".join(f"{1 / c:.4f}" for c in cs)
        + ", kept " + "->".join(f"{k:.4f}" for k in kepts)
        + f", {elapsed:.3f}s",
    )


def test_c09_lower_bound_population_values():
    from bernmix.sim import scenario_distribution

    bp = np.linspace(0.0, 1.0, 1001)
    uniform = bm.GroupedSample(bp, np.round(np.diff(bp) * 1e12).astype(np.int64))
    assert bm.lower_bound_degree(uniform, (0.0, 1.0)) == 1
    got = {}
    for k in (2, 3, 4):
        cdf = scenario_distribution(f"nn{k}").cdf(bp)
        counts = np.round(np.diff(cdf) * 1e12).astype(np.int64)
        got[k] = bm.lower_bound_degree(bm.GroupedSample(bp, counts), (0.0, 1.0))
        assert got[k] == 3 * (k - 1)
    report(9, f"uniform -> 1, nn(k) -> {got}")


def test_c10_change_point_selector():
    tau, r = bm.change_point([0.0, 10.0, 20.0, 21.0, 22.0, 23.0])
    brute = 1 + int(np.argmax([r[t - 1] for t in range(1, 6)]))
    assert tau == 2 and brute == 2
    tau_tie, r_tie = bm.change_point([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert tau_tie == 1
    assert np.allclose(r_tie, r_tie[0])
    report(10, f"synthetic tau {tau}, tie case returns smallest ({tau_tie})")


def test_c11_chicken_embryo_degree_13(tmp_path):
    if not CHICKEN_CSV.exists():
        pytest.skip(
            "chicken-embryo CSV not present at data/chicken_embryo.csv; "
            "see README for the entry instructions"
        )
    out = tmp_path / "chicken_model.json"
    code = bm.cli.main(
        [
            "fit", "--grouped", str(CHICKEN_CSV), "--support", "0,21",
            "--select", "--degrees", "2..50", "--out", str(out),
        ]
    )
    assert code == 0
    import json

    doc = json.loads(out.read_text())
    assert doc["selection"]["m_hat"] == 13
    assert doc["degree"] == 13
    report(11, "chicken-embryo selection over 2..50 returns degree 13")
