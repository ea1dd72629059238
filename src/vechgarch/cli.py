"""Command-line interface: simulate, estimate, aggregate, montecarlo.

Exit codes: 0 success, 1 usage or input problems, 2 simulation positivity
failures, 3 singular or otherwise failed linear algebra, 4 eigenvalues on
the unit circle (no stable solvent).  ``_EXIT_CODES`` maps each error type
to its code; every error is printed as ``error: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import asymptotics
from .aggregation import AggregationInput, aggregate_params
from .exceptions import (
    InsufficientData,
    InvalidInput,
    MissingSigmaW,
    NonStationary,
    PositivityViolation,
    UnimodularEigenvalues,
    VechGarchError,
)
from .model import GarchSpec
from .simulate import _simulate_paths, read_returns_csv, simulate, to_x, write_returns_csv
from .solver import estimate

__all__ = ["main", "run"]

# Exit code of each error type main() reports, found by the nearest class in
# the error's MRO; any other VechGarchError is a failure inside the solve.
_EXIT_CODES = {
    PositivityViolation: 2,
    UnimodularEigenvalues: 4,
    InvalidInput: 1,
    InsufficientData: 1,
    MissingSigmaW: 1,
    NonStationary: 1,
    OSError: 1,
    VechGarchError: 3,
}


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {what} from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{what} at {path} is not valid JSON: {exc}") from exc


def _dump_json(payload, path):
    text = json.dumps(payload)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _print_warnings(diag):
    for note in diag.warnings:
        print(f"warning: {note['code']}: {note['message']}", file=sys.stderr)


def cmd_simulate(args):
    spec = GarchSpec.from_json(_load_json(args.params, "spec"))
    result = simulate(spec, args.n, args.seed, burn_in=args.burn_in)
    write_returns_csv(result.y, args.out)
    print(json.dumps(spec.to_json(), indent=2))
    return 0


def cmd_estimate(args):
    y = read_returns_csv(args.data)
    x = to_x(y)
    report = estimate(x, lags=args.lags)
    payload = report.to_json()
    if args.with_se:
        se_report = asymptotics.standard_errors(report, x, bandwidth=args.bandwidth)
        payload["asymptotics"] = se_report.to_json()
    _print_warnings(report.diagnostics)
    _dump_json(payload, args.out)
    return 0


def cmd_aggregate(args):
    spec = GarchSpec.from_json(_load_json(args.params, "spec"))
    sigma = _load_json(args.sigma, "sigma")
    sigma_w = None
    if args.sigma_w is not None:
        sigma_w = _load_json(args.sigma_w, "sigma_w")
    agg = aggregate_params(AggregationInput(spec=spec, sigma=sigma, m=args.m,
                                            kind=args.kind, sigma_w=sigma_w))
    _print_warnings(agg.report.diagnostics)
    _dump_json(agg.to_json(), args.out)
    return 0


# Replications simulated together in one stacked recursion.  At d = 2 the
# cost per path and step is about 22 us alone, 1.9 us in a stack of 16 and
# 1.1 us in a stack of 32 (2 cores), while the memory of a block grows with
# its size: 16 paths at d = 2 and burn-in + n = 33 000 hold about 30 MB.
_PATH_BLOCK = 16


def cmd_montecarlo(args):
    spec = GarchSpec.from_json(_load_json(args.params, "spec"))
    ns = args.n
    burn_in = args.burn_in
    rows = []
    for first in range(0, args.reps, _PATH_BLOCK):
        reps = range(first, min(first + _PATH_BLOCK, args.reps))
        # One seed per replication, shared across sample sizes: each path is
        # simulated once at the largest n and every n reads its prefix
        # (bitwise the path simulate(spec, n, seed) returns), which
        # stabilises error ratios across n.
        try:
            y, h_path, fail = _simulate_paths(spec, max(ns), [args.seed + rep for rep in reps],
                                              burn_in=burn_in)
            del h_path  # free it before the fits
            refused = None
        except VechGarchError as exc:
            refused = type(exc).__name__
        for r, rep in enumerate(reps):
            for n in ns:
                row = {"rep": rep, "n": n, "status": "ok", "err_max": "",
                       "err_c": "", "err_a": "", "err_b": "",
                       "cover_c": "", "cover_a": "", "cover_b": ""}
                if refused is not None:
                    row["status"] = refused
                elif fail[r] < burn_in + n:
                    row["status"] = PositivityViolation.__name__
                else:
                    try:
                        _fit_row(row, spec, y[burn_in : burn_in + n, r], args)
                    except VechGarchError as exc:
                        row["status"] = type(exc).__name__
                rows.append(row)
    _write_montecarlo(rows, ns, args)
    return 0


def _fit_row(row, spec, y, args):
    x = to_x(y)
    report = estimate(x, lags=args.lags)
    # Absolute errors of the (c, A, B) blocks; the row keeps them even if the
    # standard errors are refused.
    errors = {name.lower(): np.abs(getattr(report.spec, name) - getattr(spec, name))
              for name in "cAB"}
    row["err_max"] = f"{max(float(e.max()) for e in errors.values()):.10g}"
    for key, err in errors.items():
        row[f"err_{key}"] = f"{float(err.max()):.10g}"
    if args.with_se:
        se = asymptotics.standard_errors(report, x, bandwidth=args.bandwidth).std_errors
        k = spec.dbar
        # se stacks c, vec(A) and vec(B), the vecs column-major.
        se_blocks = (se[:k], se[k : k + k * k].reshape(k, k, order="F"),
                     se[k + k * k :].reshape(k, k, order="F"))
        for (key, err), block in zip(errors.items(), se_blocks):
            row[f"cover_{key}"] = f"{float((err <= 1.96 * block).mean()):.6g}"


def _write_montecarlo(rows, ns, args):
    fieldnames = ["rep", "n", "status", "err_max", "err_c", "err_a", "err_b",
                  "cover_c", "cover_a", "cover_b"]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        for n in ns:
            done = [r for r in rows if r["n"] == n]
            # A fit whose standard errors were refused keeps its errors: it
            # counts toward the median and as se_refused, not as a failure.
            fitted = [r for r in done if r["err_max"] != ""]
            ok = [r for r in fitted if r["status"] == "ok"]
            parts = [f"# summary n={n} reps={len(done)} "
                     f"failures={len(done) - len(fitted)}"]
            if args.with_se:
                parts.append(f"se_refused={len(fitted) - len(ok)}")
            if fitted:
                med = np.median([float(r["err_max"]) for r in fitted])
                parts.append(f"median_err_max={med:.10g}")
            if args.with_se and ok:
                for key in ("cover_c", "cover_a", "cover_b"):
                    mean = np.mean([float(r[key]) for r in ok])
                    parts.append(f"{key}={mean:.6g}")
            print(" ".join(parts), file=out)
    finally:
        if args.out:
            out.close()


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("sample sizes must be positive integers")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"sample sizes must be distinct: {text!r}")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vechgarch",
        description="Closed-form moment estimation and temporal aggregation "
                    "for multivariate vech-GARCH(1,1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options of a fit, shared by ``estimate`` and ``montecarlo``.
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--lags", type=_positive_int, default=1,
                     help="lag identities pooled into Phi (stacked least squares "
                          "when > 1)")
    fit.add_argument("--with-se", action="store_true", dest="with_se")
    fit.add_argument("--bandwidth", type=_nonnegative_int, default=None)

    sim = sub.add_parser("simulate", help="simulate a sample path to CSV")
    sim.add_argument("--params", required=True, help="spec JSON file")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--n", type=_positive_int, required=True, help="number of observations")
    sim.add_argument("--seed", type=_nonnegative_int, default=0)
    sim.add_argument("--burn-in", type=_nonnegative_int, default=1000, dest="burn_in")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", parents=[fit],
                         help="estimate parameters from a returns CSV")
    est.add_argument("--data", required=True, help="returns CSV with header y1,...,yd")
    est.add_argument("--out", help="output JSON path (stdout when omitted)")
    est.set_defaults(func=cmd_estimate)

    agg = sub.add_parser("aggregate", help="derive low-frequency parameters")
    agg.add_argument("--params", required=True, help="spec JSON file")
    agg.add_argument("--sigma", required=True, help="innovation covariance JSON file")
    agg.add_argument("--sigma-w", default=None, dest="sigma_w",
                     help="flow noise covariance JSON file")
    agg.add_argument("--m", type=_positive_int, required=True)
    agg.add_argument("--kind", choices=["stock", "flow"], required=True)
    agg.add_argument("--out", help="output JSON path (stdout when omitted)")
    agg.set_defaults(func=cmd_aggregate)

    mc = sub.add_parser("montecarlo", parents=[fit],
                        help="replicated simulate-and-estimate study")
    mc.add_argument("--params", required=True, help="true spec JSON file")
    mc.add_argument("--reps", type=_positive_int, required=True)
    mc.add_argument("--n", type=_int_list, required=True,
                    help="comma-separated sample sizes")
    mc.add_argument("--seed", type=_nonnegative_int, default=0)
    mc.add_argument("--burn-in", type=_nonnegative_int, default=1000, dest="burn_in")
    mc.add_argument("--out", help="output CSV path (stdout when omitted)")
    mc.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (VechGarchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in _EXIT_CODES)


def run():
    raise SystemExit(main())
