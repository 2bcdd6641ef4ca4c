"""Run one workload of the bernmix benchmark in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR [--setup-only]

Set-up (import bernmix, build the seeded inputs) is timed first.  The
timed phase then repeats whole rounds of the workload's operations, one
at a time (closed loop, one client), and starts another round only while
it is expected to end within --seconds; at least one round always runs.
A round is inputs.PARTS parts with inputs of their own; every round of a
run repeats the same inputs, so per-round counts are exact.  Outputs the
checker needs are written after the timed phase to DIR/worker.json;
nothing here judges correctness.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))


def _clock(fn, *args, **kwargs):
    t = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t, result


# --- mise-harness -------------------------------------------------------------


class MiseHarness:
    def __init__(self, bm, inputs, seed, out):
        self.bm, self.inputs = bm, inputs
        self.parts = [
            [
                (tag, k, bm.ScenarioSpec(
                    tag,
                    n=inputs.MISE_N,
                    n_cells=inputs.MISE_CELLS,
                    replicates=inputs.MISE_REPLICATES,
                    seed=s,
                    degrees=inputs.MISE_DEGREES,
                ))
                for tag, seeds in part.items()
                for k, s in enumerate(seeds)
            ]
            for part in inputs.mise_spec_seeds(seed)
        ]

    def run_part(self, i):
        ops = []
        for tag, k, spec in self.parts[i]:
            for est in self.inputs.MISE_ESTIMATORS:
                op = {"name": est, "tag": tag, "part": i, "spec": k, "replicates": spec.replicates}
                try:
                    op["seconds"], rep = _clock(self.bm.mise, spec, est)
                except self.bm.HarnessError as exc:
                    op.update(seconds=0.0, ok=False, error=str(exc))
                else:
                    op.update(
                        ok=True,
                        mise=rep.mise,
                        weighted_mise=rep.weighted_mise,
                        degree_mean=rep.degree_mean,
                        replicates_used=rep.replicates_used,
                        failures=rep.failures,
                    )
                ops.append(op)
        return ops

    @staticmethod
    def headline(ops):
        """(fit_s, eval_s): one MBLE replicate, one replicate of both baselines."""
        reps = sum(o["replicates"] for o in ops if o["name"] == "mble")
        fit = sum(o["seconds"] for o in ops if o["name"] == "mble") / reps
        base = sum(o["seconds"] for o in ops if o["name"] != "mble") / reps
        return fit, base

    def outputs(self):
        """Refit the replicates of each tag's first spec in part 0 for the oracle."""
        bm = self.bm
        out = {}
        for tag, k, spec in self.parts[0]:
            if k != 0:
                continue
            reps = []
            for r in range(spec.replicates):
                grouped = bm.group(bm.generate(spec, r), spec.n_cells)
                trace = bm.select_degree(grouped, (0.0, 1.0), degrees=spec.degrees)
                reps.append(
                    {
                        "breakpoints": grouped.breakpoints.tolist(),
                        "counts": grouped.counts.tolist(),
                        **_scan_doc(trace),
                    }
                )
            out[tag] = reps
        return out


def _scan_doc(trace):
    return {
        "degrees": [int(m) for m in trace.degrees],
        "logliks": [float(v) for v in trace.logliks],
        "m_hat": int(trace.m_hat),
        "weights": [f.weights.p.tolist() for f in trace.fits],
        "converged": [bool(f.converged) for f in trace.fits],
    }


# --- raw-fit ----------------------------------------------------------------


class RawFit:
    def __init__(self, bm, inputs, seed, out):
        self.bm, self.inputs = bm, inputs
        self.parts = [[bm.RawSample(x, (0.0, 1.0)) for x in part] for part in inputs.raw_samples(seed)]
        self.truth = bm.sim.true_unit_pdf(bm.ScenarioSpec(inputs.DIAG_TAG, n=1, n_cells=1))
        self.diag_seed = inputs.diag_seed(seed)
        self.first = {}  # part -> outputs of its first run

    def run_part(self, i):
        bm, inputs = self.bm, self.inputs
        ops, scans, diags = [], [], []
        for sample in self.parts[i]:
            dt, trace = _clock(bm.select_degree, sample, degrees=inputs.RAW_DEGREES)
            ops.append({"name": "scan", "seconds": dt, "ok": True})
            scans.append(trace)
        for m in inputs.DIAG_LADDER:
            t = time.perf_counter()
            weights = bm.sim.best_mixture_approximation(self.truth, m)
            c_m, kept = bm.acceptance_rejection_diag(
                self.truth, weights, n=inputs.DIAG_DRAWS, seed=self.diag_seed
            )
            ops.append({"name": "diag", "seconds": time.perf_counter() - t, "ok": True})
            diags.append({"degree": m, "c_m": c_m, "kept": kept, "weights": weights.p.tolist()})
        self.first.setdefault(i, (scans, diags))
        return ops

    @staticmethod
    def headline(ops):
        """(fit_s, eval_s): one raw degree scan, the whole diagnostic ladder."""
        scans = [o["seconds"] for o in ops if o["name"] == "scan"]
        return sum(scans) / len(scans), sum(o["seconds"] for o in ops if o["name"] == "diag")

    def outputs(self):
        parts = [self.first[i] for i in sorted(self.first)]
        return {"scans": [[_scan_doc(t) for t in scans] for scans, _ in parts],
                "diag": [diags for _, diags in parts]}


# --- cli-session ------------------------------------------------------------


def _importtime_ms(stderr_text):
    """(bernmix, scipy) cumulative import ms from `python -X importtime`."""
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cum), name.strip()))
    bernmix = sum(c for d, c, n in rows if n == "bernmix")
    # top-most scipy modules: no scipy module above them in the import tree
    scipy, path = 0, []
    for depth, cum, name in reversed(rows):  # parents follow children in this output
        del path[depth:]
        if name.split(".")[0] == "scipy" and not any(p.split(".")[0] == "scipy" for p in path):
            scipy += cum
        path.append(name)
    return bernmix / 1e3, scipy / 1e3


class CliSession:
    def __init__(self, bm, inputs, seed, out):
        self.inputs, self.out = inputs, out
        self.trace = False
        self.sessions = 0
        self.nan_path = os.path.join(out, "nan_values.txt")
        with open(self.nan_path, "w", encoding="utf-8") as fh:
            fh.write(inputs.nan_file_text())
        if not os.path.isfile(inputs.CLI_GROUPED):
            raise FileNotFoundError(inputs.CLI_GROUPED)

    def _cli(self, session_dir, tag):
        if self.trace:
            return [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    os.path.join(session_dir, f"trace-{tag}.npz")]
        return [sys.executable, "-m", "bernmix.cli"]

    def run_part(self, i):
        inputs = self.inputs
        d = os.path.join(self.out, f"session-{self.sessions}")
        os.makedirs(d)
        self.sessions += 1
        support = f"{inputs.CLI_SUPPORT[0]:g},{inputs.CLI_SUPPORT[1]:g}"
        importer = [sys.executable] + (["-X", "importtime"] if self.trace else []) + ["-c", "import bernmix"]
        steps = [
            ("import", importer, 0),
            ("fit", self._cli(d, "fit") + [
                "fit", "--grouped", inputs.CLI_GROUPED, "--support", support, "--select",
                "--degrees", inputs.CLI_DEGREES, "--out", os.path.join(d, "model.json")], 0),
            ("eval", self._cli(d, "eval") + [
                "eval", "--model", os.path.join(d, "model.json"), "--grid", str(inputs.CLI_GRID),
                "--out", os.path.join(d, "eval.csv")], 0),
            ("lower-bound", self._cli(d, "lower-bound") + [
                "lower-bound", "--grouped", inputs.CLI_GROUPED, "--support", support], 0),
            # a NaN value is an input error: the README contract says exit 2
            ("nan-fit", self._cli(d, "nan-fit") + [
                "fit", "--raw", self.nan_path, "--support", "0,1", "--degree",
                str(inputs.CLI_NAN_DEGREE), "--out", os.path.join(d, "nan_model.json")], 2),
        ]
        ops = []
        for name, cmd, expected in steps:
            t = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
            dt = time.perf_counter() - t
            ops.append({"name": name, "seconds": dt, "ok": proc.returncode == expected,
                        "returncode": proc.returncode})
            with open(os.path.join(d, f"{name}.stdout"), "w", encoding="utf-8") as fh:
                fh.write(proc.stdout)
            with open(os.path.join(d, f"{name}.stderr"), "w", encoding="utf-8") as fh:
                fh.write(proc.stderr)
        return ops

    @staticmethod
    def headline(ops):
        """(fit_s, eval_s): a fresh-process fit --select, a fresh-process eval."""
        fit = [o["seconds"] for o in ops if o["name"] == "fit"]
        ev = [o["seconds"] for o in ops if o["name"] == "eval"]
        return sum(fit) / len(fit), sum(ev) / len(ev)

    def outputs(self):
        return {"sessions": [os.path.join(self.out, f"session-{k}") for k in range(self.sessions)]}


WORKLOADS = {"mise-harness": MiseHarness, "cli-session": CliSession, "raw-fit": RawFit}


# --- per-layer metrics --------------------------------------------------------


def per_layer(summary, parts, extra):
    """Layer metrics per part from a trace summary of `parts` parts (see README)."""
    s, c = summary, summary.counts
    fits = s.n("em.em_grouped", "em.em_raw")
    scans = s.n("select.select_degree")
    cp = s.n("select.change_point")
    em_ms = s.module_self_ms("em")
    m = {
        "basis.cdf_matrix.calls": s.n("basis.cdf_matrix"),
        "basis.cdf_matrix.ms": s.ms("basis.cdf_matrix"),
        "basis.basis_matrix.calls": s.n("basis.basis_matrix"),
        "basis.basis_matrix.ms": s.ms("basis.basis_matrix"),
        "model.cell_basis_matrix.ms": s.ms("model.cell_basis_matrix"),
        "model.eval.calls": s.n("model.BernsteinMixture.pdf", "model.BernsteinMixture.cdf"),
        "model.eval.ms": s.ms("model.BernsteinMixture.pdf", "model.BernsteinMixture.cdf"),
        "likelihood.loglik.calls": s.n(
            "likelihood.loglik_raw", "likelihood.loglik_grouped", "likelihood.loglik_rounded"),
        "likelihood.loglik.ms": s.ms(
            "likelihood.loglik_raw", "likelihood.loglik_grouped", "likelihood.loglik_rounded"),
        "em.fits": fits,
        "em.steps": c["em.steps"],
        "em.steps_per_fit": c["em.steps"] / fits if fits else 0.0,
        "em.ms": em_ms,
        "em.us_per_step": 1e3 * em_ms / c["em.steps"] if c["em.steps"] else 0.0,
        "em.nonconverged": c["em.nonconverged"],
        "select.scans": scans,
        "select.ms": s.module_self_ms("select"),
        "select.steps_per_scan": c["select.steps"] / scans if scans else 0.0,
        "select.change_point.us": 1e3 * s.ms("select.change_point") / cp if cp else 0.0,
        "select.negative_gains": c["select.negative_gains"],
        "baselines.kernel.ms": s.ms("baselines.kernel_density", "baselines.KernelDensity.__call__"),
        "baselines.parametric.ms": s.ms(
            "baselines.parametric_mle_grouped", "baselines.ParametricFit.pdf", "baselines.ParametricFit.cdf"),
        "sim.generate.ms": s.ms("sim.generate"),
        "sim.group.ms": s.ms("sim.group"),
        "sim.ise.ms": s.ms("sim.integrated_squared_error"),
        "sim.mise.self_ms": 1e3 * s.self_s.get("sim.mise", 0.0),
        "sim.failures": c["sim.failures"],
        "sim.population_fit.ms": s.ms("sim.best_mixture_approximation"),
        "sim.population_fit.steps": s.leaf_calls("em.em_step_grouped", "sim.best_mixture_approximation"),
        "sim.ar_diag.ms": s.ms("sim.acceptance_rejection_diag"),
        "cli.read_ms": s.ms("cli.read_grouped_csv", "cli.read_raw_values", "cli.read_model_json"),
        "cli.write_ms": s.ms("cli.write_model_json") + 1e3 * s.self_s.get("cli.cmd_eval", 0.0),
    }
    per_part = {k: v / parts for k, v in m.items()}
    # ratios are not divided by the part count
    for key in ("em.steps_per_fit", "em.us_per_step", "select.steps_per_scan", "select.change_point.us"):
        per_part[key] = m[key]
    per_part.update(extra)
    return per_part


def _cli_layer(session_dirs):
    from spans import Summary

    summary = Summary()
    imports, scipy, rows = [], [], 0
    for d in session_dirs:
        for name in sorted(os.listdir(d)):
            if name.startswith("trace-"):
                summary.add_file(os.path.join(d, name))
        with open(os.path.join(d, "import.stderr"), encoding="utf-8") as fh:
            b, s = _importtime_ms(fh.read())
        imports.append(b)
        scipy.append(s)
        with open(os.path.join(d, "eval.csv"), encoding="utf-8") as fh:
            rows += sum(1 for _ in fh) - 1
    n = len(session_dirs)
    extra = {"cli.import_ms": statistics.median(imports), "cli.import_scipy_ms": statistics.median(scipy),
             "cli.eval_rows": rows / n}
    return summary, extra


# --- main -------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    t0 = time.perf_counter()
    import bernmix as bm

    if not os.path.abspath(bm.__file__).startswith(os.path.abspath("src") + os.sep):
        raise SystemExit(f"bernmix imported from {bm.__file__}, not from ./src")
    import inputs

    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload](bm, inputs, args.seed, args.out)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.out, "setup.json", result)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        if isinstance(workload, CliSession):
            workload.trace = True
        else:
            tracer = Tracer()
            tracer.install()

    rounds = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        parts = []
        for i in range(inputs.PARTS):
            dt, ops = _clock(workload.run_part, i)
            fit_s, eval_s = workload.headline(ops)
            parts.append({"seconds": dt, "fit_s": fit_s, "eval_s": eval_s, "ops": ops})
        rounds.append({"seconds": time.perf_counter() - t, "parts": parts})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["seconds"] for r in rounds) > args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliSession) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        path = os.path.join(args.out, "trace.npz")
        tracer.save(path)
        from spans import Summary

        summary = Summary()
        summary.add_file(path)
        extra = {"cli.import_ms": 0.0, "cli.import_scipy_ms": 0.0, "cli.eval_rows": 0.0}
    elif args.trace:
        summary, extra = _cli_layer(workload.outputs()["sessions"])
    result.update(rounds=rounds, peak_rss_mb=peak_rss_mb, outputs=workload.outputs())
    if args.trace:
        result["per_layer"] = per_layer(summary, len(rounds) * inputs.PARTS, extra)
    _write(args.out, "worker.json", result)
    return 0


def _write(out, name, doc):
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
