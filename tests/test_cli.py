import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernmix.em
import bernmix.likelihood
import bernmix.sim
from bernmix import BernsteinMixture, SimplexWeights, beta_cdf
from bernmix.cli import _EVAL_BLOCK, _fmt, main, read_grouped_csv, read_model_json

ROOT = Path(__file__).resolve().parent.parent
CHICKEN_CSV = ROOT / "data" / "chicken_embryo.csv"


def write(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def grouped_csv(tmp_path):
    path = tmp_path / "grouped.csv"
    write(
        path,
        "lower,upper,count\n0,0.25,4\n0.25,0.5,9\n0.5,0.75,8\n0.75,1,3\n",
    )
    return path


class TestFit:
    def test_fixed_degree_fit(self, grouped_csv, tmp_path):
        out = tmp_path / "model.json"
        code = main(["fit", "--grouped", str(grouped_csv), "--degree", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["degree"] == 2
        assert doc["converged"] is True
        assert doc["selection"] is None
        assert abs(sum(doc["weights"]) - 1.0) < 1e-12

    def test_single_cell_degree_zero(self, tmp_path):
        path = tmp_path / "one.csv"
        write(path, "lower,upper,count\n0,1,12\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--grouped", str(path), "--degree", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["weights"] == [1.0]
        assert doc["loglik"] == 0.0

    def test_gap_between_cells_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        write(path, "lower,upper,count\n0,0.4,3\n0.5,1,4\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--grouped", str(path), "--degree", "1", "--out", str(out)]) == 2
        assert "contiguous" in capsys.readouterr().err

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write(path, "lower,upper,count\n0,0.5,3\n0.5,1,x\n")
        assert main(["fit", "--grouped", str(path), "--degree", "1", "--out", "m.json"]) == 2
        assert ":3:" in capsys.readouterr().err

    def test_select_writes_trace(self, grouped_csv, tmp_path):
        out = tmp_path / "model.json"
        code = main(
            ["fit", "--grouped", str(grouped_csv), "--select", "--degrees", "1..6", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        sel = doc["selection"]
        assert sel["degrees"] == [1, 2, 3, 4, 5, 6]
        assert sel["m_hat"] == doc["degree"]
        assert len(sel["r_profile"]) == 5
        assert len(sel["gaps"]) == len(sel["steps"]) == 6
        assert all(0.0 <= g <= 1e-6 for g in sel["gaps"])
        assert all(isinstance(k, int) and k >= 0 for k in sel["steps"])

    def test_select_model_is_byte_identical_across_runs(self, grouped_csv, tmp_path):
        # per-fit wall times stay out of the file
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            args = ["fit", "--grouped", str(grouped_csv), "--select", "--degrees", "1..6"]
            assert main(args + ["--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "elapsed" not in outs[0].read_text()

    def test_select_warning_is_one_stderr_note(self, tmp_path):
        # the README's chicken-embryo command: its first degree 2 is not
        # below the lower bound 1, and a fresh process shows what a user sees
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / "model.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bernmix.cli", "fit", "--grouped", str(CHICKEN_CSV),
             "--support", "0,21", "--select", "--degrees", "2..50", "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "bernmix: note: first degree 2 is not below the estimated lower bound 1; "
            "the change point may sit at the left edge"
        ]
        assert "UserWarning" not in proc.stderr and "cli.py" not in proc.stderr
        assert json.loads(out.read_text())["degree"] == 13

    def test_raw_fit_needs_support(self, tmp_path, capsys):
        path = tmp_path / "raw.txt"
        write(path, "0.1\n0.4\n0.7\n")
        assert main(["fit", "--raw", str(path), "--degree", "1", "--out", "m.json"]) == 2

    def test_nan_raw_value_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "raw.txt"
        write(path, "0.12\n0.37\nnan\n0.55\n")
        out = tmp_path / "m.json"
        code = main(["fit", "--raw", str(path), "--support", "0,1", "--degree", "3", "--out", str(out)])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_cell_bound_reports_line(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        write(path, "lower,upper,count\n0,0.5,3\n0.5,inf,4\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--grouped", str(path), "--degree", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ":3:" in err and "finite" in err
        assert not out.exists()

    def test_raw_and_rounded_fit(self, tmp_path):
        path = tmp_path / "raw.txt"
        rng = np.random.default_rng(1)
        vals = np.round(rng.beta(2, 3, size=60), 1)
        write(path, "\n".join(str(v) for v in vals) + "\n")
        out = tmp_path / "m.json"
        code = main(
            ["fit", "--raw", str(path), "--support", "0,1", "--rounded", "10",
             "--degree", "3", "--out", str(out)]
        )
        assert code == 0
        model = read_model_json(out)
        assert model.m == 3

    def test_solver_step_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # one outer SQP step leaves the chicken-embryo degree-13 fit far
        # from its certificate; the model is still written
        monkeypatch.setattr(bernmix.em, "SQP_MAX_STEPS", 1)
        out = tmp_path / "m.json"
        code = main(["fit", "--grouped", str(CHICKEN_CSV), "--support", "0,21", "--degree", "13", "--out", str(out)])
        assert code == 3
        assert json.loads(out.read_text())["converged"] is False
        gap = re.fullmatch(r"fit did not converge within 1 steps \(optimality gap (\S+)\)\n", capsys.readouterr().err)
        assert gap and float(gap[1]) > bernmix.em.GAP_TOL

    def test_fixed_degree_fit_is_the_certified_scan_fit(self, tmp_path):
        # fit --degree runs the solver of the --select scan: the same
        # loglik at degree 13, and weights whose gradient bound, taken on
        # cell masses of the independent beta_cdf oracle, is at most 1e-8
        fixed, scan = tmp_path / "fixed.json", tmp_path / "scan.json"
        data = ["--grouped", str(CHICKEN_CSV), "--support", "0,21"]
        assert main(["fit", *data, "--degree", "13", "--out", str(fixed)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the scan's left-edge note
            assert main(["fit", *data, "--select", "--degrees", "2..50", "--out", str(scan)]) == 0
        doc, sel = json.loads(fixed.read_text()), json.loads(scan.read_text())["selection"]
        assert doc["converged"] is True
        assert doc["loglik"] == pytest.approx(sel["logliks"][sel["degrees"].index(13)], rel=0.0, abs=1e-9)
        grouped = read_grouped_csv(CHICKEN_CSV)
        t = grouped.breakpoints / 21.0
        cdfs = np.array([beta_cdf(13, j, t) for j in range(14)]).T
        pos = grouped.counts > 0
        mass = np.diff(cdfs, axis=0)[pos]
        counts = grouped.counts[pos]
        grad = mass.T @ (counts / (mass @ np.array(doc["weights"])))
        assert grad.max() - counts.sum() <= 1e-8

    def test_exactly_one_input_mode(self, grouped_csv):
        assert main(["fit", "--grouped", str(grouped_csv), "--raw", "x", "--degree", "1", "--out", "m.json"]) == 2

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_rounded_grid_density_below_one_is_input_error(self, tmp_path, capsys, k):
        raw = tmp_path / "raw.txt"
        write(raw, "0.2\n0.5\n0.7\n")
        out = tmp_path / "m.json"
        argv = ["fit", "--raw", str(raw), "--support", "0,1", "--rounded", k, "--degree", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "grid density" in capsys.readouterr().err
        assert not out.exists()

    def test_support_and_degrees_accept_a_leading_minus(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        write(raw, "-0.6\n-0.2\n0.1\n0.5\n0.8\n")
        out = tmp_path / "m.json"
        assert main(["fit", "--raw", str(raw), "--support", "-1,1", "--degree", "2", "--out", str(out)]) == 0
        assert read_model_json(out).support == (-1.0, 1.0)
        # the attached form keeps working
        assert main(["fit", "--raw", str(raw), "--support=-1,1", "--degree", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["fit", "--raw", str(raw), "--support", "-1,1", "--select", "--degrees", "-1..3", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "nonnegative degrees" in err and "expected one argument" not in err

    @pytest.mark.parametrize("degree", ["-1", "-2"])
    def test_negative_degree_is_input_error(self, grouped_csv, tmp_path, capsys, degree):
        raw = tmp_path / "raw.txt"
        write(raw, "0.2\n0.5\n0.7\n")
        out = tmp_path / "m.json"
        for data in (["--grouped", str(grouped_csv)], ["--raw", str(raw), "--support", "0,1"]):
            assert main(["fit", *data, "--degree", degree, "--out", str(out)]) == 2
            assert "degree must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "degree",
        [["--degree", "1882"], ["--degree", "100000"], ["--select", "--degrees", "2..1882"],
         ["--select", "--degrees", "0..100000"], ["--select", "--degrees", "0..1000000000000000000"],
         ["--select", "--degrees", "0..1" + "0" * 30]],
    )
    def test_degree_past_the_evaluator_is_input_error(self, tmp_path, capsys, monkeypatch, degree):
        # --degree 100000 ended in numpy's _ArrayMemoryError traceback
        # while allocating a 74.5 GiB Hessian
        raw = tmp_path / "raw.txt"
        write(raw, "0.2\n0.5\n0.7\n")
        out = tmp_path / "m.json"

        def no_matrix(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(bernmix.likelihood, "basis_matrix", no_matrix)
        assert main(["fit", "--raw", str(raw), "--support", "0,1", *degree, "--out", str(out)]) == 2
        assert "above the evaluator's range (1881)" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def make_model(self, tmp_path, support=(0.0, 4.0)):
        out = tmp_path / "uniform.json"
        path = tmp_path / "one.csv"
        write(path, f"lower,upper,count\n{support[0]},{support[1]},5\n")
        assert main(["fit", "--grouped", str(path), "--degree", "0", "--out", str(out)]) == 0
        return out

    def random_model(self, tmp_path, seed, support=(0.0, 21.0)):
        """A degree-13 model file with Dirichlet(1) weights drawn from seed."""
        rng = np.random.default_rng(seed)
        doc = {
            "degree": 13,
            "weights": [float(v) for v in rng.dirichlet(np.ones(14))],
            "support": list(support),
            "loglik": -1.0,
            "converged": True,
            "selection": None,
        }
        path = tmp_path / "m.json"
        write(path, json.dumps(doc))
        return path

    def test_point_eval(self, tmp_path, capsys):
        model = self.make_model(tmp_path)
        assert main(["eval", "--model", str(model), "--points", "1.0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x,density,cdf"
        x, dens, cdf = out[1].split(",")
        assert float(dens) == 0.25 and float(cdf) == 0.25

    def test_grid_eval_row_count(self, tmp_path, capsys):
        model = self.make_model(tmp_path, (0.0, 1.0))
        assert main(["eval", "--model", str(model), "--grid", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 6
        xs = [float(r.split(",")[0]) for r in rows[1:]]
        assert xs == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_outside_support_flagged(self, tmp_path, capsys):
        model = self.make_model(tmp_path)
        assert main(["eval", "--model", str(model), "--points", "1.0,9.5"]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("point 9.5 outside the support")
        assert "NaN,NaN" in captured.out

    @pytest.mark.parametrize("points", ["nan,1", "0.5,inf", "-inf"])
    def test_non_finite_point_is_input_error(self, tmp_path, capsys, points):
        # "nan" was reported as a point outside the support, with exit 4
        model = self.make_model(tmp_path)
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(model), "--points", points, "--out", str(out)]) == 2
        assert "--points must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_rows_match_library_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(6)
        weights = SimplexWeights(rng.dirichlet(np.ones(4)))
        doc = {
            "degree": 3,
            "weights": [float(v) for v in weights.p],
            "support": [0.0, 2.0],
            "loglik": -1.0,
            "converged": True,
            "selection": None,
        }
        model_path = tmp_path / "m.json"
        write(model_path, json.dumps(doc))
        out_path = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(model_path), "--grid", "8", "--out", str(out_path)]) == 0
        mix = BernsteinMixture(weights, (0.0, 2.0))
        for row in out_path.read_text().strip().splitlines()[1:]:
            x, dens, cdf = (float(v) for v in row.split(","))
            assert dens == mix.pdf(x)
            assert cdf == mix.cdf(x)

    def test_mixed_points_match_per_point_eval(self, tmp_path, capsys):
        model = self.random_model(tmp_path, 9)
        points = ["-1", "0", "3.7", "1e9", "10.5", "21", "21.5", "0.001", "20.999"]
        code = main(["eval", "--model", str(model), "--points=" + ",".join(points)])
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()[1:]
        assert len(rows) == len(points)
        assert captured.err.count("outside") == 3
        codes = []
        for x, row in zip(points, rows):
            codes.append(main(["eval", "--model", str(model), "--points=" + x]))
            alone = capsys.readouterr().out.strip().splitlines()[1]
            got = np.array([float(v) for v in row.split(",")])
            want = np.array([float(v) for v in alone.split(",")])
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0, equal_nan=True)
        assert codes.count(4) == 3
        assert code == max(codes) == 4

    def test_output_is_the_per_row_fmt_spelling(self, tmp_path, capsys):
        model_path = self.random_model(tmp_path, 12)
        model = read_model_json(str(model_path))
        block = _EVAL_BLOCK
        points = ["-0", "3.7", "-1e-300", "-5", "21", "1e308", "1e-310", "21.000000001", "-1e308"]
        # outside points on both sides of the edge between the first two blocks
        edge = [repr(v) for v in np.linspace(0.0, 21.0, block + 3).tolist()]
        edge[block - 1], edge[block] = "-1e-300", "21.5"
        cases = [
            (["--grid", str(g)], np.linspace(0.0, 21.0, g + 1))
            for g in (1, 2000, block - 2, block - 1, block, block + 1, 3 * block + 5)
        ] + [
            (["--points=" + ",".join(p)], np.array([float(v) for v in p])) for p in (points, edge)
        ]
        out = tmp_path / "eval.csv"
        for flags, xs in cases:
            inside = (xs >= 0.0) & (xs <= 21.0)
            dens, cdf = np.full(xs.shape, np.nan), np.full(xs.shape, np.nan)
            dens[inside], cdf[inside] = model.pdf(xs[inside]), model.cdf(xs[inside])
            want = "x,density,cdf\n" + "".join(
                ",".join(map(_fmt, row)) + "\n" for row in zip(xs, dens, cdf)
            )
            code = 0 if inside.all() else 4
            assert main(["eval", "--model", str(model_path)] + flags) == code
            captured = capsys.readouterr()
            assert captured.out == want, flags[0][:12]
            outside = [f"point {float(x)!r} outside the support [0.0, 21.0]" for x in xs[~inside]]
            assert captured.err.splitlines() == outside
            assert main(["eval", "--model", str(model_path)] + flags + ["--out", str(out)]) == code
            assert out.read_text(encoding="utf-8") == want, flags[0][:12]
            assert capsys.readouterr() == ("", captured.err)

    @pytest.mark.parametrize(
        "support, grid",
        [
            ((0.0, 21.0), 3 * _EVAL_BLOCK + 5),
            ((-3.7, 0.001), 5000),
            ((1e-300, 3e-300), 4099),
            # the step (b - a) / g underflows to zero, where linspace scales by
            # b - a last; the density overflows there
            pytest.param((0.0, 1e-320), 4097, marks=pytest.mark.filterwarnings("ignore:overflow")),
        ],
    )
    def test_grid_x_is_linspace_bit_for_bit(self, tmp_path, support, grid):
        # the blocks build their own points instead of slicing one linspace
        model_path = self.random_model(tmp_path, 3, support)
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(model_path), "--grid", str(grid), "--out", str(out)]) == 0
        xs = np.array([float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]])
        want = np.linspace(*support, grid + 1)
        np.testing.assert_array_equal(xs.view(np.int64), want.view(np.int64))

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # the whole CSV text used to be built first: a 48 MB peak at --grid
        # 200000 against 5 MB at 20000; tracemalloc counts numpy's buffers
        # and repeats exactly
        model_path = self.random_model(tmp_path, 5)
        out = tmp_path / "eval.csv"

        def peak(grid):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert main(["eval", "--model", str(model_path), "--grid", str(grid), "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            peak(2000)
            small, large = peak(2000), peak(200_000)
        finally:
            tracemalloc.stop()
        assert large - small <= 0.5e6, (small, large)


class TestSimulate:
    def test_csv_columns_and_determinism(self, tmp_path):
        args = [
            "simulate", "--scenario", "uniform01", "--n", "60", "--cells", "5",
            "--replicates", "3", "--estimators", "kernel,truth", "--seed", "11",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--json", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == (
            "scenario,n,cells,estimator,mise,weighted_mise,degree_mean,degree_var,replicates"
        )
        assert len(lines) == 3
        truth_row = lines[2].split(",")
        assert truth_row[3] == "truth"
        assert float(truth_row[4]) <= 1e-10
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc[0]["estimator"] == "kernel"

    def test_mble_rows_carry_degree_stats(self, tmp_path):
        # the mble-below-kernel ordering needs full replicates and is
        # asserted in the acceptance suite; this exercises the plumbing
        out = tmp_path / "r.csv"
        code = main([
            "simulate", "--scenario", "normal01", "--n", "100", "--cells", "10",
            "--replicates", "3", "--estimators", "mble,kernel", "--seed", "2",
            "--degrees", "1..25", "--out", str(out),
        ])
        assert code == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        mise = {r[3]: float(r[4]) for r in rows}
        assert mise["mble"] > 0.0 and mise["kernel"] > 0.0
        assert rows[0][6] != "" and rows[1][6] == ""

    def test_scan_warning_is_one_stderr_note(self, tmp_path):
        # every replicate's scan warns that degree 1 is not below the lower
        # bound 1; a fresh process shows what a user sees
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "bernmix.cli", "simulate", "--scenario", "exp1", "--n", "100",
             "--cells", "10", "--replicates", "3", "--degrees", "1..40", "--estimators", "mble",
             "--out", str(tmp_path / "mise.csv")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "UserWarning" not in proc.stderr and "sim.py" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "bernmix: note: first degree 1 is not below the estimated lower bound 1; "
            "the change point may sit at the left edge"
        ]

    def test_unknown_scenario_is_input_error(self, tmp_path, monkeypatch):
        assert main([
            "simulate", "--scenario", "cauchy", "--n", "10", "--cells", "2",
            "--replicates", "1", "--out", str(tmp_path / "x.csv"),
        ]) == 2
        # an unknown estimator after a valid one stops before any MBLE scan
        scans = []
        monkeypatch.setattr(bernmix.sim, "select_degree", lambda *a, **k: scans.append(a))
        assert main([
            "simulate", "--scenario", "exp1", "--n", "100", "--cells", "10",
            "--replicates", "20", "--estimators", "mble,bogus",
            "--out", str(tmp_path / "y.csv"),
        ]) == 2
        assert scans == []
        assert not (tmp_path / "y.csv").exists()

    @pytest.mark.parametrize("tag", ["nn13", "nn40", "nn1100"])
    def test_irwin_hall_past_its_exact_range_is_input_error(self, tmp_path, capsys, tag):
        # nn40 wrote a kernel MISE of 5.9e9 with exit 0; nn1100 ended in an
        # OverflowError traceback
        out = tmp_path / "x.csv"
        assert main([
            "simulate", "--scenario", tag, "--n", "10", "--cells", "2", "--replicates", "1",
            "--estimators", "truth,kernel", "--out", str(out),
        ]) == 2
        assert "k <= 12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--replicates", "0"), ("--replicates", "-1"), ("--n", "0"), ("--cells", "0"), ("--seed", "-1")],
    )
    def test_empty_run_is_input_error(self, tmp_path, capsys, flag, value):
        args = {"--n": "10", "--cells": "2", "--replicates": "1"}
        args[flag] = value
        out = tmp_path / "x.csv"
        code = main(
            ["simulate", "--scenario", "exp1", "--estimators", "kernel", "--out", str(out)]
            + [token for pair in args.items() for token in pair]
        )
        assert code == 2
        # a seed of -1 used to fail every replicate's draw and exit 5
        name = {"--cells": "n_cells"}.get(flag, flag[2:])
        least = 0 if flag == "--seed" else 1
        assert f"{name} must be at least {least} and an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_degree_past_the_evaluator_is_input_error(self, tmp_path, capsys, monkeypatch):
        scans = []
        monkeypatch.setattr(bernmix.sim, "select_degree", lambda *a, **k: scans.append(a))
        out = tmp_path / "x.csv"
        code = main([
            "simulate", "--scenario", "exp1", "--n", "100", "--cells", "10",
            "--replicates", "3", "--estimators", "mble", "--degrees", "1..1882",
            "--out", str(out),
        ])
        assert code == 2
        assert "degree 1882 is above" in capsys.readouterr().err
        assert scans == []
        assert not out.exists()

    def test_harness_failure_exit_code(self, tmp_path, capsys):
        code = main([
            "simulate", "--scenario", "uniform01", "--n", "1", "--cells", "5",
            "--replicates", "3", "--estimators", "mble",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 5
        assert "harness" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "eval", "simulate --out", "simulate --json"])
def test_unwritable_output_is_input_error(tmp_path, capsys, grouped_csv, command):
    # each ended in a FileNotFoundError traceback with exit 1, fit and
    # simulate after all their work
    missing = str(tmp_path / "missing" / "out")
    model = tmp_path / "m.json"
    assert main(["fit", "--grouped", str(grouped_csv), "--degree", "2", "--out", str(model)]) == 0
    argv = {
        "fit": ["fit", "--grouped", str(grouped_csv), "--degree", "2", "--out", missing],
        "eval": ["eval", "--model", str(model), "--grid", "10", "--out", missing],
        "simulate --out": ["simulate", "--scenario", "exp1", "--n", "10", "--cells", "2",
                           "--replicates", "1", "--estimators", "kernel", "--out", missing],
        "simulate --json": ["simulate", "--scenario", "exp1", "--n", "10", "--cells", "2",
                            "--replicates", "1", "--estimators", "kernel",
                            "--out", str(tmp_path / "mise.csv"), "--json", missing],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {missing}: No such file or directory\n"


@pytest.mark.parametrize(
    "command", ["fit --raw", "fit --grouped", "lower-bound", "lower-bound --support", "eval"]
)
def test_overflowing_support_width_is_input_error(tmp_path, capsys, command):
    # finite ends a < b whose width b - a is inf: the raw fit mapped every
    # point to 0 and wrote weights [1, 0, 0] with exit 0, and eval printed
    # NaN rows with exit 4
    raw = tmp_path / "raw.txt"
    write(raw, "0.1\n0.2\n")
    wide = tmp_path / "wide.csv"
    write(wide, "lower,upper,count\n-1e308,0,3\n0,1e308,4\n")
    model = tmp_path / "wide.json"
    write(model, json.dumps({"degree": 1, "weights": [0.5, 0.5], "support": [-1e308, 1e308],
                             "loglik": -1.0, "converged": True, "selection": None}))
    out = tmp_path / "m.json"
    argv = {
        "fit --raw": ["fit", "--raw", str(raw), "--support=-1e308,1e308", "--degree", "2",
                      "--out", str(out)],
        "fit --grouped": ["fit", "--grouped", str(wide), "--degree", "2", "--out", str(out)],
        "lower-bound": ["lower-bound", "--grouped", str(wide)],
        "lower-bound --support": ["lower-bound", "--grouped", str(wide), "--support=-1e308,1e308"],
        "eval": ["eval", "--model", str(model), "--grid", "4"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a finite width b - a, got [-1e+308, 1e+308]" in captured.err
    assert not out.exists()


class TestLowerBound:
    def test_prints_bound(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        rows = ["lower,upper,count"] + [
            f"{i/100},{(i+1)/100},7" for i in range(100)
        ]
        write(path, "\n".join(rows) + "\n")
        assert main(["lower-bound", "--grouped", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_degenerate_exit(self, tmp_path):
        path = tmp_path / "g.csv"
        write(path, "lower,upper,count\n0,0.5,9\n0.5,1,0\n")
        assert main(["lower-bound", "--grouped", str(path)]) == 2

    def test_one_populated_cell_of_seven_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        edges = np.linspace(0.0, 1.0, 8)
        counts = [3, 0, 0, 0, 0, 0, 0]
        rows = [f"{lo!r},{up!r},{c}" for lo, up, c in zip(edges[:-1].tolist(), edges[1:].tolist(), counts)]
        write(path, "\n".join(["lower,upper,count", *rows]) + "\n")
        assert main(["lower-bound", "--grouped", str(path), "--support", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one cell" in captured.err

    def test_support_past_the_breakpoints_exits_2_as_fit_does(self, tmp_path, capsys):
        for command in (["lower-bound"], ["fit", "--degree", "3", "--out", str(tmp_path / "m.json")]):
            argv = [*command, "--grouped", str(CHICKEN_CSV), "--support", "0,30"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "breakpoints must cover the full support" in captured.err
        assert not (tmp_path / "m.json").exists()

    def test_negative_support_end_as_separate_token(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        write(path, "lower,upper,count\n-1,0,4\n0,1,6\n")
        assert main(["lower-bound", "--grouped", str(path), "--support", "-1,1"]) == 0
        assert capsys.readouterr().out.strip() == "1"


class TestModelJsonRoundTrip:
    def test_weights_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(7))
        from bernmix.cli import write_model_json

        path = tmp_path / "m.json"
        write_model_json(path, SimplexWeights(p), (0.0, 1.0), -12.5, True)
        model = read_model_json(path)
        np.testing.assert_array_equal(model.weights.p, p)
        text = path.read_text()
        assert "\r" not in text

    @pytest.mark.parametrize("degree", [3.7, "3", True])
    def test_degree_that_is_not_an_integer_is_input_error(self, tmp_path, capsys, degree):
        # int(3.7) == 3 let a 4-weight model with degree 3.7 evaluate
        doc = {"degree": degree, "weights": [0.25] * 4, "support": [0, 1], "loglik": 0,
               "converged": True, "selection": None}
        path = tmp_path / "m.json"
        write(path, json.dumps(doc))
        assert main(["eval", "--model", str(path), "--points", "0.5"]) == 2
        assert f"{path}: degree {degree!r} is not the integer 3" in capsys.readouterr().err


# every file is well formed, or carries exactly one of these faults
BAD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e400", "x", "", "2.5"])
CSV_FAULTS = ["header", "token", "extra field", "gap", "unsorted", "negative count", "no rows"]
RAW_FAULTS = ["token", "outside", "no values"]


@st.composite
def grouped_csvs(draw):
    # cells tile [0, 1], or [0, 3] (a support other than the flag's)
    edges = sorted({0, 8} | set(draw(st.lists(st.integers(1, 7), max_size=6))))
    scale = draw(st.sampled_from([1.0] * 4 + [3.0])) / 8
    rows = [
        [repr(lo * scale), repr(hi * scale), str(draw(st.integers(0, 9)))]
        for lo, hi in zip(edges, edges[1:])
    ]
    header = "lower,upper,count"
    fault = draw(st.sampled_from([None] * 7 + CSV_FAULTS))
    i = draw(st.integers(0, len(rows) - 1))
    if fault == "header":
        header = draw(st.sampled_from(["lower,upper", "count,lower,upper", ""]))
    elif fault == "token":
        rows[i][draw(st.integers(0, 2))] = draw(BAD_TOKENS)
    elif fault == "extra field":
        rows[i].append("1")
    elif fault == "gap" and len(rows) > 2:
        del rows[draw(st.integers(1, len(rows) - 2))]
    elif fault == "unsorted":
        rows.reverse()
    elif fault == "negative count":
        rows[i][2] = "-1"
    elif fault == "no rows":
        rows = []
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@st.composite
def raw_files(draw):
    values = draw(
        st.lists(st.one_of(st.integers(0, 8).map(lambda i: i / 8), st.floats(0.0, 1.0)), min_size=1, max_size=25)
    )
    lines = [repr(v) for v in values]
    fault = draw(st.sampled_from([None] * 5 + RAW_FAULTS))
    i = draw(st.integers(0, len(lines) - 1))
    if fault == "token":
        lines[i] = draw(BAD_TOKENS)
    elif fault == "outside":
        lines[i] = draw(st.sampled_from(["-0.5", "1.5", "2.5"]))
    elif fault == "no values":
        lines = []
    return "\n".join(lines) + "\n"


SUPPORTS = st.sampled_from(
    ["0,1"] * 10 + [None, "0,2", "-1,1", "0,0", "1,0", "0,inf", "nan,1", "0", "a,b", "0,1,2"]
)
DEGREE_FLAGS = st.one_of(
    # 1882 and 100000 are past the evaluator's range and rejected before
    # any matrix is built; a degree the solver would really fit stays small
    st.tuples(
        st.just("--degree"),
        st.sampled_from(["2", "-1", "0", "1", "3", "5", "8", "-2", "-3", "1882", "100000"]),
    ),
    st.tuples(
        st.just("--select"),
        st.just("--degrees"),
        st.one_of(
            st.builds("{}..{}".format, st.integers(-3, 6), st.integers(-3, 12)),
            st.sampled_from(["2-5", "a..b", "..", "3..", "1..x", "2..1882", "0..100000"]),
        ),
    ),
)

# an empty list, points outside the model's support [0, 1] and grids below 1
EVAL_FLAGS = st.one_of(
    st.tuples(
        st.just("--points"),
        st.sampled_from(
            ["", "0", "-1", "0.5", "0,0.25,1", "-0.5,0.5", "1.5", "nan", "inf", "-inf", "a", "0,,1"]
        ),
    ),
    st.tuples(st.just("--grid"), st.sampled_from(["0", "-1", "-7", "1", "8", "x"])),
)
# an empty point list, a point that is not finite and grids below 1: input errors
BAD_EVAL_FLAGS = (
    ("--points", ""), ("--points", "nan"), ("--points", "inf"), ("--points", "-inf"),
    ("--grid", "0"), ("--grid", "-1"), ("--grid", "-7"),
)
EVAL_MODEL = (
    '{"degree": 2, "weights": [0.25, 0.5, 0.25], "support": [0, 1], '
    '"loglik": 0, "converged": true, "selection": null}\n'
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    command=st.sampled_from(["fit-grouped", "fit-raw", "lower-bound", "eval"]),
    csv_text=grouped_csvs(),
    raw_text=raw_files(),
    support=SUPPORTS,
    degree=DEGREE_FLAGS,
    rounded=st.one_of(st.none(), st.integers(-1, 4)),
    eval_flag=EVAL_FLAGS,
    unwritable=st.booleans(),
)
def test_every_exit_code_follows_the_contract(
    command, csv_text, raw_text, support, degree, rounded, eval_flag, unwritable
):
    # README: 0 ok, 2 input error (an --out that cannot be written among
    # them), 3 fit did not converge, 4 eval points outside the support;
    # never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        grouped, raw = (os.path.join(tmp, name) for name in ("g.csv", "raw.txt"))
        out = os.path.join(tmp, "missing", "m.json") if unwritable else os.path.join(tmp, "m.json")
        write(Path(grouped), csv_text)
        write(Path(raw), raw_text)
        support_flag = [] if support is None else ["--support", support]
        if command == "lower-bound":
            argv = ["lower-bound", "--grouped", grouped, *support_flag]
        elif command == "eval":
            model = os.path.join(tmp, "model.json")
            write(Path(model), EVAL_MODEL)
            argv = ["eval", "--model", model, *eval_flag, "--out", out]
        else:
            data = ["--grouped", grouped] if command == "fit-grouped" else ["--raw", raw]
            if rounded is not None and command == "fit-raw":
                data += ["--rounded", str(rounded)]
            argv = ["fit", *data, *support_flag, *degree, "--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
        allowed = {"lower-bound": {0, 2}, "eval": {0, 2, 4}}.get(command, {0, 2, 3})
        assert code in allowed, (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        # "--support -1,1", "--degrees -1..3" and "--points -0.5,0.5" reach
        # the program's own checks
        assert "expected one argument" not in stderr.getvalue(), argv
        if command == "eval" and eval_flag in BAD_EVAL_FLAGS:
            assert code == 2, argv
        if command == "fit-raw" and rounded is not None and rounded < 1:
            assert code == 2, argv  # a grid density K must be positive
        if unwritable and command != "lower-bound":
            assert code == 2, argv
        if code == 2:
            assert stderr.getvalue(), argv
        if command == "eval":
            assert os.path.exists(out) == (code in (0, 4)), argv
        elif command != "lower-bound":
            assert os.path.exists(out) == (code in (0, 3)), argv
