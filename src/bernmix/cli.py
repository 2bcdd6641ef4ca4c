"""Command-line interface: fit, eval, simulate, lower-bound.

File formats
------------
Grouped CSV: header "lower,upper,count", one contiguous cell per row
(upper of row i must equal lower of row i+1), sorted ascending.
Raw data: plain text, one number per line; blank lines ignored.
Model JSON: degree, weights, support, loglik, converged, plus the
selection trace (with each fit's gap and step count) when --select
produced the model.  Every model comes from the certified solver of the
degree scan (em._fit); "converged" says its gap reached em.GAP_TOL.
MISE CSV columns: scenario,n,cells,estimator,mise,weighted_mise,
degree_mean,degree_var,replicates.

All floats are serialized with 17 significant digits, UTF-8, LF line
endings.  Exit codes: 0 ok, 2 input error, 3 non-convergence (the
solver stopped at em.SQP_MAX_STEPS; the model is still written), 4 eval
domain flag, 5 harness failure.  A warning of a degree scan in fit
--select or simulate (a first degree not below the moment lower bound,
a loglik that fell along the scan) is printed once as one
"bernmix: note: ..." line on stderr and does not change the exit code.
"""

import argparse
import contextlib
import math
import sys
import warnings

import numpy as np

from .basis import _check_degree
from .em import _fit
from .errors import DegenerateDataError, HarnessError, SelectionError
from .likelihood import RawSample, RoundedSample, _problems, rounded_to_grouped
from .model import BernsteinMixture, GroupedSample, SimplexWeights
from .select import lower_bound_degree, select_degree
from .sim import _ESTIMATORS, ScenarioSpec, mise
from . import __version__

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3
EXIT_EVAL_DOMAIN = 4
EXIT_HARNESS = 5


class CliInputError(Exception):
    pass


def _fmt(x):
    """17-significant-digit token for a float; JSON- and CSV-compatible."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _json_dumps(obj, level=0):
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_json_dumps(v, level + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        items = [
            f'{inner}"{k}": {_json_dumps(v, level + 1)}' for k, v in obj.items()
        ]
        if not items:
            return "{}"
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def read_grouped_csv(path):
    """Parse a grouped CSV, reporting problems with their line number."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not rows:
        raise CliInputError(f"{path}: empty file")
    header_no, header = rows[0]
    if [c.strip() for c in header.split(",")] != ["lower", "upper", "count"]:
        raise CliInputError(f"{path}:{header_no}: header must be 'lower,upper,count'")
    lowers, uppers, counts = [], [], []
    for line_no, ln in rows[1:]:
        parts = [c.strip() for c in ln.split(",")]
        if len(parts) != 3:
            raise CliInputError(f"{path}:{line_no}: expected 3 fields, got {len(parts)}")
        try:
            lo, up, cnt = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CliInputError(f"{path}:{line_no}: {exc}") from exc
        if not (math.isfinite(lo) and math.isfinite(up)):
            raise CliInputError(f"{path}:{line_no}: lower and upper must be finite")
        if cnt < 0:
            raise CliInputError(f"{path}:{line_no}: negative count")
        if not lo < up:
            raise CliInputError(f"{path}:{line_no}: cell has lower >= upper")
        lowers.append(lo)
        uppers.append(up)
        counts.append(cnt)
    if not lowers:
        raise CliInputError(f"{path}: no data rows")
    for i in range(1, len(lowers)):
        if lowers[i] < lowers[i - 1]:
            raise CliInputError(f"{path}:{rows[i + 1][0]}: rows not sorted by lower")
        gap = abs(lowers[i] - uppers[i - 1])
        if gap > 1e-12 * max(1.0, abs(lowers[i]), abs(uppers[i - 1])):
            raise CliInputError(
                f"{path}:{rows[i + 1][0]}: cells must be contiguous "
                f"(upper {uppers[i - 1]!r} != lower {lowers[i]!r})"
            )
    breakpoints = np.array(lowers + [uppers[-1]])
    return GroupedSample(breakpoints, np.array(counts))


def read_raw_values(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    vals = []
    for i, ln in enumerate(lines, start=1):
        ln = ln.strip()
        if not ln:
            continue
        try:
            vals.append(float(ln))
        except ValueError as exc:
            raise CliInputError(f"{path}:{i}: {exc}") from exc
    if not vals:
        raise CliInputError(f"{path}: no values")
    return np.array(vals)


def _parse_support(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise CliInputError(f"--support must be 'a,b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise CliInputError(f"--support must be 'a,b', got {text!r}") from exc
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise CliInputError(f"--support needs finite a < b, got {text!r}")
    return (a, b)


def _grouped_support(text, grouped):
    """--support text, or the breakpoint span of grouped data when absent."""
    if text:
        return _parse_support(text)
    return (float(grouped.breakpoints[0]), float(grouped.breakpoints[-1]))


def _parse_degrees(text):
    if ".." not in text:
        raise CliInputError(f"--degrees must be 'm0..mk', got {text!r}")
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise CliInputError(f"--degrees must be 'm0..mk', got {text!r}") from exc
    if hi - lo < 2 or lo < 0:
        raise CliInputError("--degrees needs at least three nonnegative degrees")
    _check_degree(hi)  # before fit reads its data or simulate draws a sample
    return tuple(range(lo, hi + 1))


def write_model_json(path, weights, support, loglik, converged, selection=None):
    doc = {
        "degree": weights.m,
        "weights": [float(v) for v in weights.p],
        "support": [float(support[0]), float(support[1])],
        "loglik": float(loglik),
        "converged": bool(converged),
        "selection": selection,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_dumps(doc) + "\n")


def read_model_json(path):
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    try:
        weights = SimplexWeights(np.array(doc["weights"], dtype=float))
        support = (float(doc["support"][0]), float(doc["support"][1]))
        if int(doc["degree"]) != weights.m:
            raise CliInputError(f"{path}: degree does not match the weights length")
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: invalid model file: {exc}") from exc
    return BernsteinMixture(weights, support)


def _selection_doc(trace):
    return {
        "degrees": [int(m) for m in trace.degrees],
        "logliks": [float(v) for v in trace.logliks],
        "increments": [float(v) for v in trace.increments],
        "r_profile": [float(v) for v in trace.r_profile],
        "gaps": [float(f.gap) for f in trace.fits],
        "steps": [int(f.iterations) for f in trace.fits],
        "tau_hat": int(trace.tau_hat),
        "m_hat": int(trace.m_hat),
    }


@contextlib.contextmanager
def _scan_notes():
    """Print each distinct warning raised inside as one stderr note, once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"bernmix: note: {message}", file=sys.stderr)


def cmd_fit(args):
    if (args.grouped is None) == (args.raw is None):
        raise CliInputError("exactly one of --grouped/--raw is required")
    if (args.degree is None) == (not args.select):
        raise CliInputError("exactly one of --degree/--select is required")
    degrees = _parse_degrees(args.degrees) if args.degrees else None

    if args.grouped is not None:
        data = read_grouped_csv(args.grouped)
        support = _grouped_support(args.support, data)
    else:
        values = read_raw_values(args.raw)
        if args.support is None:
            raise CliInputError("--raw needs an explicit --support")
        support = _parse_support(args.support)
        if args.rounded is not None:
            data = rounded_to_grouped(
                RoundedSample(values, args.rounded), support
            )
        else:
            data = RawSample(values, support)

    selection = None
    if args.select:
        with _scan_notes():
            trace = select_degree(data, support, degrees=degrees)
        selection = _selection_doc(trace)
        report = trace.best_fit
    else:
        report = _fit(_problems(data, support, args.degree))

    write_model_json(
        args.out, report.weights, support, report.loglik, report.converged, selection
    )
    if not report.converged:
        print(
            f"fit did not converge within {report.iterations} steps "
            f"(optimality gap {report.gap:.3g})",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_eval(args):
    model = read_model_json(args.model)
    a, b = model.support
    if args.points is not None:
        try:
            xs = np.array([float(v) for v in args.points.split(",")])
        except ValueError as exc:
            raise CliInputError(f"--points must be comma-separated numbers: {exc}")
    elif args.grid < 1:
        raise CliInputError(f"--grid must be at least 1, got {args.grid}")
    else:
        xs = np.linspace(a, b, args.grid + 1)
    inside = (xs >= a) & (xs <= b)
    dens = np.full(xs.shape, np.nan)
    cdf = np.full(xs.shape, np.nan)
    dens[inside] = model.pdf(xs[inside])
    cdf[inside] = model.cdf(xs[inside])
    for x in xs[~inside]:
        print(f"point {float(x)!r} outside the support [{a}, {b}]", file=sys.stderr)
    # "%.17g" of a finite float is _fmt's token, so the finite rows take one
    # "%" over a flat tuple; the rows with a NaN or inf are spelled by _fmt
    rows = np.column_stack([xs, dens, cdf])
    finite = np.isfinite(rows).all(axis=1)
    lines = ["%.17g,%.17g,%.17g\n"] * len(rows)
    for i in np.flatnonzero(~finite):
        lines[i] = ",".join(map(_fmt, rows[i])) + "\n"
    text = "x,density,cdf\n" + "".join(lines) % tuple(rows[finite].ravel().tolist())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if inside.all() else EXIT_EVAL_DOMAIN


def cmd_simulate(args):
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    if not estimators:
        raise CliInputError("--estimators must name at least one estimator")
    for est in estimators:
        if est not in _ESTIMATORS:
            raise CliInputError(f"--estimators: unknown estimator {est!r}")
    degrees = _parse_degrees(args.degrees) if args.degrees else None
    spec = ScenarioSpec(
        distribution=args.scenario,
        n=args.n,
        n_cells=args.cells,
        replicates=args.replicates,
        seed=args.seed,
        degrees=degrees,
    )
    with _scan_notes():
        reports = [mise(spec, est) for est in estimators]
    rows = [
        {
            "scenario": args.scenario,
            "n": args.n,
            "cells": args.cells,
            "estimator": rep.estimator,
            "mise": rep.mise,
            "weighted_mise": rep.weighted_mise,
            "degree_mean": rep.degree_mean,
            "degree_var": rep.degree_var,
            "replicates": rep.replicates_used,
        }
        for rep in reports
    ]

    def cell(v):
        if v is None:
            return ""
        return str(v) if isinstance(v, (str, int)) else _fmt(v)

    # the CSV header is the JSON keys; --estimators names at least one row
    lines = [",".join(rows[0])] + [",".join(cell(v) for v in row.values()) for row in rows]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_json_dumps(rows) + "\n")
    return EXIT_OK


def cmd_lower_bound(args):
    grouped = read_grouped_csv(args.grouped)
    print(lower_bound_degree(grouped, _grouped_support(args.support, grouped)))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bernmix",
        description="Bernstein (beta mixture) density estimation for grouped and raw data",
    )
    parser.add_argument("--version", action="version", version=f"bernmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a mixture, optionally selecting the degree")
    fit.add_argument("--grouped", help="grouped CSV (lower,upper,count)")
    fit.add_argument("--raw", help="raw data file, one value per line")
    fit.add_argument("--support", help="support interval 'a,b'")
    fit.add_argument("--degree", type=int, help="fit this fixed degree")
    fit.add_argument("--select", action="store_true", help="select the degree by change point")
    fit.add_argument("--degrees", help="degree range for --select, e.g. 2..50")
    fit.add_argument("--rounded", type=int, metavar="K", help="treat raw values as rounded to i/K")
    fit.add_argument("--out", required=True, help="output model JSON path")
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="evaluate a fitted model's density and CDF")
    ev.add_argument("--model", required=True, help="model JSON from fit")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--points", help="comma-separated evaluation points")
    group.add_argument("--grid", type=int, help="evaluate on g+1 equally spaced points")
    ev.add_argument("--out", help="output CSV path (default stdout)")
    ev.set_defaults(func=cmd_eval)

    simp = sub.add_parser("simulate", help="Monte Carlo MISE comparison")
    simp.add_argument("--scenario", required=True, help="uniform01|exp1|pareto|nn<k>|normal01|logistic")
    simp.add_argument("--n", type=int, required=True, help="sample size per replicate")
    simp.add_argument("--cells", type=int, required=True, help="equal-width cell count")
    simp.add_argument("--replicates", type=int, default=100)
    simp.add_argument("--estimators", default="mble,kernel", help="comma list: mble,kernel,parametric,truth")
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument("--degrees", help="degree range for the MBLE scan, e.g. 1..40")
    simp.add_argument("--out", required=True, help="output CSV path")
    simp.add_argument("--json", help="optional JSON output path")
    simp.set_defaults(func=cmd_simulate)

    lb = sub.add_parser("lower-bound", help="moment lower bound for the model degree")
    lb.add_argument("--grouped", required=True, help="grouped CSV (lower,upper,count)")
    lb.add_argument("--support", help="support interval 'a,b'")
    lb.set_defaults(func=cmd_lower_bound)
    return parser


# options whose value may start with "-" (a negative support end or
# evaluation point, or a degree range that the degree check then rejects)
SIGNED_VALUE_OPTIONS = ("--support", "--degrees", "--points")


def _attach_signed_values(argv):
    """Rewrite "--support -1,1" as "--support=-1,1".

    argparse reads a separate token that starts with "-" as an option and
    stops with "expected one argument"; the attached form is read as the
    value.  A following token that starts with "--" is left alone, so a
    missing value still reads as one.
    """
    out, i = [], 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if token in SIGNED_VALUE_OPTIONS and value.startswith("-") and not value.startswith("--"):
            out.append(f"{token}={value}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (CliInputError, DegenerateDataError, SelectionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return EXIT_HARNESS


if __name__ == "__main__":
    sys.exit(main())
