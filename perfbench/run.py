"""Benchmark of the bernmix fit pipeline; run from the root of a checkout.

    python3 perfbench/run.py --workload {mise-harness,cli-session,raw-fit} \
        --seed N --seconds S --trace {0,1}

Each run starts fresh worker processes (perfbench/worker.py) with BLAS
pinned to one thread and BERNSTEIN_THREADS unset: two that only set up,
then one that sets up and runs the timed phase.  Their outputs are then
checked here against the oracle (perfbench/oracle.py), which never
imports bernmix.  The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Run files go to perfbench/.runs/.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3  # set-up is timed in this many fresh processes
WORKER_BUDGET_S = 150  # all worker processes of a run end within this time
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env.pop("BERNSTEIN_THREADS", None)
    env.update({k: "1" for k in PINNED})
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def run_worker(args, out, extra, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out] + extra
    # own process group, so a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"workers did not finish within {WORKER_BUDGET_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    name = "setup.json" if "--setup-only" in extra else "worker.json"
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


# --- checks per workload ----------------------------------------------------
# each returns (errors, em.gap_max over the fits it checked)


def round_ops(r):
    return [o for part in r["parts"] for o in part["ops"]]


def check_mise(doc, seed):
    errors, gap_max = [], 0.0
    first = round_ops(doc["rounds"][0])
    keys = ("mise", "weighted_mise", "degree_mean", "replicates_used", "failures")
    for r in doc["rounds"][1:]:
        if [[o.get(k) for k in keys] for o in round_ops(r)] != [[o.get(k) for k in keys] for o in first]:
            errors.append("mise reports differ between rounds of the same inputs")
    for o in first:
        at = f"part {o['part']} {o['tag']} spec {o['spec']} {o['name']}"
        if o["ok"] and not (o["mise"] > 0.0 and np.isfinite(o["weighted_mise"])):
            errors.append(f"{at}: MISE {o['mise']!r}")
        if o["ok"] and o["replicates_used"] + o["failures"] != o["replicates"]:
            errors.append(f"{at}: replicates do not add up")

    def mean_mise(tag, est):
        return np.mean([o["mise"] for o in first if o["tag"] == tag and o["name"] == est and o["ok"]])

    if not mean_mise("normal01", "mble") < mean_mise("normal01", "kernel"):
        errors.append("normal01: MBLE MISE is not below kernel MISE (paper Table 1)")
    for tag, reps in doc["outputs"].items():
        ises = []
        for r, rep in enumerate(reps):
            u = np.asarray(rep["breakpoints"])
            counts = np.asarray(rep["counts"])
            errs, g = oracle.check_scan(
                rep,
                lambda p: oracle.loglik_grouped(p, u, counts),
                lambda p: oracle.gap_grouped(p, u, counts),
                f"{tag} replicate {r}",
            )
            errors += errs
            gap_max = max(gap_max, g)
            ises.append(oracle.ise(rep["weights"][rep["degrees"].index(rep["m_hat"])], tag))
        got = next(o["mise"] for o in first
                   if o["tag"] == tag and o["part"] == 0 and o["spec"] == 0 and o["name"] == "mble")
        if abs(got - np.mean(ises)) > oracle.ISE_RTOL * np.mean(ises):
            errors.append(f"{tag}: mise {got!r} but the oracle ISE mean is {np.mean(ises)!r}")
    return errors, gap_max


def check_raw(doc, seed):
    errors, gap_max = [], 0.0
    out = doc["outputs"]
    m0 = inputs.RAW_TRUE_DEGREE
    samples = [u for part in inputs.raw_samples(seed) for u in part]
    for k, (u, scan) in enumerate(zip(samples, [s for part in out["scans"] for s in part])):
        errs, g = oracle.check_scan(
            scan, lambda p: oracle.loglik_raw(p, u), lambda p: oracle.gap_raw(p, u), f"sample {k}"
        )
        errors += errs
        gap_max = max(gap_max, g)
        for m, ll in zip(scan["degrees"], scan["logliks"]):
            if m >= m0:
                truth = oracle.loglik_raw(oracle.elevate(inputs.RAW_TRUE_WEIGHTS, m), u)
                if ll < truth - oracle.LOGLIK_RTOL * abs(truth):
                    errors.append(f"sample {k} degree {m}: loglik {ll!r} below the true weights' {truth!r}")
    if any(diags != out["diag"][0] for diags in out["diag"]):
        errors.append("the diagnostic differs between parts of the same inputs")
    for d in out["diag"][0]:
        at = f"diagnostic degree {d['degree']}"
        errors += oracle.check_simplex(d["weights"], at)
        if not d["c_m"] >= 1.0:
            errors.append(f"{at}: c_m {d['c_m']!r} < 1")
        if not 0.0 < d["kept"] <= 1.0:
            errors.append(f"{at}: accepted fraction {d['kept']!r} outside (0, 1]")
    return errors, gap_max


def check_cli(doc, seed):
    errors, gap_max = [], 0.0
    bp, counts = oracle.read_grouped_csv(inputs.CLI_GROUPED)
    a, b = inputs.CLI_SUPPORT
    u = (bp - a) / (b - a)
    want_bound = oracle.moment_lower_bound(u, counts)
    parts = [p for r in doc["rounds"] for p in r["parts"]]
    for k, (session, part) in enumerate(zip(doc["outputs"]["sessions"], parts)):
        ok = {o["name"]: o["ok"] for o in part["ops"]}
        at = f"session {k}"
        if ok["fit"]:
            with open(os.path.join(session, "model.json"), encoding="utf-8") as fh:
                model = json.load(fh)
            p = model["weights"]
            sel = model["selection"]
            if model["degree"] != inputs.CLI_EXPECTED_DEGREE or sel["m_hat"] != inputs.CLI_EXPECTED_DEGREE:
                errors.append(f"{at}: selected degree {model['degree']}, expected {inputs.CLI_EXPECTED_DEGREE}")
            want = sel["degrees"][oracle.change_point_index(sel["logliks"])]
            if sel["m_hat"] != want:
                errors.append(f"{at}: m_hat {sel['m_hat']} but the change point of the logliks is {want}")
            errors += oracle.check_simplex(p, at)
            errors += oracle.check_loglik(model["loglik"], oracle.loglik_grouped(p, u, counts), at)
            g = oracle.gap_grouped(p, u, counts)
            errors += oracle.check_gap(g, at)
            gap_max = max(gap_max, g)
            if ok["eval"]:
                rows = np.loadtxt(os.path.join(session, "eval.csv"), delimiter=",", skiprows=1)
                if rows.shape[0] != inputs.CLI_GRID + 1:
                    errors.append(f"{at}: eval wrote {rows.shape[0]} rows")
                else:
                    errors += oracle.check_eval(rows[:, 0], rows[:, 1], rows[:, 2], p, (a, b), at)
        if ok["lower-bound"]:
            with open(os.path.join(session, "lower-bound.stdout"), encoding="utf-8") as fh:
                got = fh.read().strip()
            if got != str(want_bound):
                errors.append(f"{at}: lower-bound printed {got!r}, the moment formula gives {want_bound}")
    return errors, gap_max


CHECKS = {"mise-harness": check_mise, "raw-fit": check_raw, "cli-session": check_cli}


def headline_lines(doc, workload):
    """The workload's own figures, named as in the README."""
    parts = [p for r in doc["rounds"] for p in r["parts"]]
    fit = statistics.median(p["fit_s"] for p in parts)
    ev = statistics.median(p["eval_s"] for p in parts)
    if workload == "mise-harness":
        return {"mise_replicates_per_s": 1.0 / fit, "baseline_replicate_s": ev}
    if workload == "raw-fit":
        return {"raw_scan_s": fit, "diag_s": ev}
    imports = [o["seconds"] for p in parts for o in p["ops"] if o["name"] == "import"]
    return {"cli_import_s": statistics.median(imports), "cli_fit_s": fit, "cli_eval_s": ev}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("BENCHMARK.json", "src/bernmix/__init__.py", inputs.CLI_GROUPED):
        if not os.path.isfile(need):
            print(f"error: {need} not found; run from the root of a bernmix checkout", file=sys.stderr)
            return 2

    out = os.path.join(HERE, ".runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    deadline = time.monotonic() + WORKER_BUDGET_S
    setups = [
        run_worker(args, os.path.join(out, f"setup-{k}"), ["--setup-only"], deadline)["setup_s"]
        for k in range(SETUP_RUNS - 1)
    ]
    doc = run_worker(args, os.path.join(out, "main"), [], deadline)
    setups.append(doc["setup_s"])

    errors, gap_max = CHECKS[args.workload](doc, args.seed)
    ops = [o for r in doc["rounds"] for o in round_ops(r)]
    parts = [p for r in doc["rounds"] for p in r["parts"]]
    if args.trace:
        metrics = dict(doc["per_layer"], **{"em.gap_max": gap_max})
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["seconds"] for p in parts),
            "fit_s": statistics.median(p["fit_s"] for p in parts),
            "eval_s": statistics.median(p["eval_s"] for p in parts),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o["ok"]),
        "metrics": {d["name"]: {"value": float(metrics[d["name"]]), "unit": d["unit"]} for d in declared},
    }
    figures = headline_lines(doc, args.workload)
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, errors=errors, figures=figures,
                       setups=setups, rounds=len(doc["rounds"]),
                       part_seconds=[p["seconds"] for p in parts]), fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(doc['rounds'])} round(s) of {inputs.PARTS} parts, "
          f"{len(ops)} operations")
    for name, value in figures.items():
        print(f"  {name} = {value:.6g}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
