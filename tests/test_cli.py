import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernmix import BernsteinMixture, SimplexWeights
from bernmix.cli import main, read_model_json

ROOT = Path(__file__).resolve().parent.parent


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
            [sys.executable, "-m", "bernmix.cli", "fit", "--grouped", str(ROOT / "data" / "chicken_embryo.csv"),
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

    def test_nonconvergence_exit_code(self, grouped_csv, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["fit", "--grouped", str(grouped_csv), "--degree", "4",
             "--tol", "1e-15", "--max-iter", "3", "--out", str(out)]
        )
        assert code == 3
        assert json.loads(out.read_text())["converged"] is False

    def test_exactly_one_input_mode(self, grouped_csv):
        assert main(["fit", "--grouped", str(grouped_csv), "--raw", "x", "--degree", "1", "--out", "m.json"]) == 2


class TestEval:
    def make_model(self, tmp_path, support=(0.0, 4.0)):
        out = tmp_path / "uniform.json"
        path = tmp_path / "one.csv"
        write(path, f"lower,upper,count\n{support[0]},{support[1]},5\n")
        assert main(["fit", "--grouped", str(path), "--degree", "0", "--out", str(out)]) == 0
        return out

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
        assert "outside" in captured.err
        assert "NaN,NaN" in captured.out

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
        rng = np.random.default_rng(9)
        doc = {
            "degree": 13,
            "weights": [float(v) for v in rng.dirichlet(np.ones(14))],
            "support": [0.0, 21.0],
            "loglik": -1.0,
            "converged": True,
            "selection": None,
        }
        model = tmp_path / "m.json"
        write(model, json.dumps(doc))
        points = ["-1", "0", "3.7", "nan", "10.5", "21", "21.5", "0.001", "20.999"]
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

    def test_unknown_scenario_is_input_error(self, tmp_path):
        assert main([
            "simulate", "--scenario", "cauchy", "--n", "10", "--cells", "2",
            "--replicates", "1", "--out", str(tmp_path / "x.csv"),
        ]) == 2

    def test_harness_failure_exit_code(self, tmp_path, capsys):
        code = main([
            "simulate", "--scenario", "uniform01", "--n", "1", "--cells", "5",
            "--replicates", "3", "--estimators", "mble",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 5
        assert "harness" in capsys.readouterr().err


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
