"""Benchmark of the vechgarch chain: moments -> solve -> standard errors -> aggregation.

Run one workload (the last line of standard output is the JSON result)::

    python3 perfbench/run.py --workload cli_fit_se --seed 1 --seconds 20 --trace 0

or every workload, one process each, with a table of every metric::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` alternates untraced and traced cycles of the same ops for
``--seconds`` and reports per-module metrics per op, plus the tracing
overhead; its spans go to ``.perfbench/spans-<workload>-seed<n>.csv``.
The library is imported from ``src/`` of the checkout this file sits in and
is driven only through its public functions and ``vechgarch.cli.main``.
Timing uses ``time.perf_counter``; no BLAS or OpenMP setting is touched.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
PROBE_LOOPS = 100_000
WORKLOAD_NAMES = ("cli_fit_se", "montecarlo_d2", "population_solve")


def load_library():
    """Import vechgarch from this checkout's ``src/``; exit if it is missing."""
    src = ROOT / "src"
    if not (src / "vechgarch" / "__init__.py").is_file():
        raise SystemExit(f"error: vechgarch sources not found under {src}")
    sys.path.insert(0, str(src))
    import vechgarch

    if Path(vechgarch.__file__).resolve().parent != (src / "vechgarch").resolve():
        raise SystemExit(f"error: imported vechgarch from {vechgarch.__file__}, not {src}")
    return vechgarch


def _git_sha():
    # Without a .git here, git would search the parent directories.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _openblas_threads():
    """Thread count and configuration of a loaded OpenBLAS, read through ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, config = _openblas_threads()
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config,
        "blas_threads": threads,
        "git_sha": _git_sha(),
    }


@dataclass
class Phase:
    """Outcome of running whole cycles of ops."""

    ops: int = 0
    calls: int = 0
    failed: int = 0
    cycles: int = 0
    # Timed seconds: the sum of the op times, without set-up or checks.
    busy_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # Latencies by op label (d=1, d=2, ...), to see which kind of op moved.
    by_label: dict = field(default_factory=dict)
    # Times of the speed probe run between cycles (see speed_probe_ms).
    probes_ms: list = field(default_factory=list)

    @property
    def ops_per_s(self):
        """Ops completed per timed second.

        A total, not a median over cycles: the machine's speed changes in
        spells of seconds, and a median jumps between the speed of one spell
        and the next, where a total blends them in proportion.
        """
        return self.ops / self.busy_s

    def label_medians_ms(self):
        return {label: round(statistics.median(v), 4) for label, v in self.by_label.items()}


def run_cycle(prepared, i, phase, tracer=None):
    """Run ops i .. i + cycle - 1 into ``phase``; return the next op index.

    Only ``op.run()`` is timed; building the op and checking its output are
    not.  A call standing for ``weight`` ops contributes its time divided by
    ``weight`` as one latency sample.
    """
    for i in range(i, i + prepared.cycle):
        op = prepared.op(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception:  # an op that raises is a failed op; the run goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
        if error is None:
            try:
                op.check(output)
            except Exception:  # a check that cannot run fails the op too
                error = traceback.format_exc()
        phase.ops += op.weight
        phase.calls += 1
        phase.busy_s += elapsed
        latency_ms = 1e3 * elapsed / op.weight
        phase.latencies_ms.append(latency_ms)
        phase.by_label.setdefault(op.label, []).append(latency_ms)
        if error is not None:
            phase.failed += op.weight
            phase.errors.append(f"op {i} ({op.label}): {error}")
    phase.cycles += 1
    return i + 1


def speed_probe_ms():
    """Time of a fixed pure-Python loop that calls no library code.

    It gauges how fast the machine runs interpreted code at the moment, so
    that a run whose ops slowed down can be told apart from a slower machine.
    """
    t0 = time.perf_counter()
    total = 0
    for k in range(PROBE_LOOPS):
        total += k * k
    return 1e3 * (time.perf_counter() - t0)


def run_phase(prepared, seconds):
    """Run whole cycles of ops until ``seconds`` have passed, with an untimed
    speed probe between cycles about once a second."""
    phase = Phase()
    i = 0
    start = next_probe = time.perf_counter()
    while True:
        i = run_cycle(prepared, i, phase)
        now = time.perf_counter()
        if now >= next_probe:
            phase.probes_ms.append(speed_probe_ms())
            next_probe = now + 1.0
        if now - start >= seconds:
            return phase


def run_interleaved(prepared, seconds):
    """Alternate untraced and traced cycles until ``seconds`` have passed.

    The tracer is entered around every traced cycle and left after it, so
    both kinds of cycle see the same drift of the machine's speed, and
    installing the wrappers is not timed.  Returns (tracer, untraced, traced).
    """
    tracer = tracing.Tracer()
    untraced, traced = Phase(), Phase()
    i = 0
    start = time.perf_counter()
    while True:
        i = run_cycle(prepared, i, untraced)
        with tracer:
            i = run_cycle(prepared, i, traced, tracer)
        if time.perf_counter() - start >= seconds:
            return tracer, untraced, traced


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(phase, setup_s):
    q = statistics.quantiles(phase.latencies_ms, n=10) if len(phase.latencies_ms) > 1 \
        else [phase.latencies_ms[0]] * 9
    return {
        "ops_per_s": _metric(phase.ops_per_s, "1/s"),
        "op_p50_ms": _metric(statistics.median(phase.latencies_ms), "ms"),
        "op_p90_ms": _metric(q[8], "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_module_metrics(tracer, traced, untraced):
    totals = tracer.summary()
    ops = traced.ops
    out = {}
    for name in tracing.TARGETS:
        t = totals[name]
        out[f"{name}.calls"] = _metric(t["calls"] / ops, "count/op")
        out[f"{name}.self_ms"] = _metric(1e3 * t["self_s"] / ops, "ms/op")
        out[f"{name}.failures"] = _metric(t["failures"] / ops, "count/op")

    def rate(name):
        t = totals[name]
        return t["work"] / t["incl_s"] if t["incl_s"] > 0 else 0.0

    fits = totals["solver.estimate"]
    # The following are computed from array sizes and call arguments, not measured.
    out["simulate.simulate.steps_per_s"] = _metric(rate("simulate.simulate"), "1/s")
    out["moments.hac_psi.gflop"] = _metric(totals["moments.hac_psi"]["work"] / ops, "gflop/op")
    out["moments.hac_psi.gflop_per_s"] = _metric(rate("moments.hac_psi"), "gflop/s")
    out["asymptotics.jacobian_matrix.directions"] = _metric(
        totals["asymptotics.jacobian_matrix"]["work"] / ops, "count/op")
    # Fits returned over fits attempted; 1 when a workload attempts none.
    out["solver.ok_frac"] = _metric(
        (fits["calls"] - fits["failures"]) / fits["calls"] if fits["calls"] else 1.0, "ratio")
    out["trace.overhead_frac"] = _metric(
        1.0 - traced.ops_per_s / untraced.ops_per_s, "ratio")
    out["failed_frac"] = _metric(
        (traced.failed + untraced.failed) / (traced.ops + untraced.ops), "ratio")
    return out


def cold_setup(args, workdir):
    """Import the library, build the inputs from the seed and run one warm-up
    cycle, in this process; return (seconds taken, prepared workload)."""
    t0 = time.perf_counter()
    load_library()
    import workloads

    prepared = getattr(workloads, f"setup_{args.workload}")(args.seed, workdir)
    warm = run_phase(prepared, 0.0)
    setup_s = time.perf_counter() - t0
    if warm.failed:
        raise SystemExit("error: warm-up op failed:\n" + warm.errors[0])
    return setup_s, prepared


def child_setup_s(args):
    """Set-up time of the same workload and seed in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a fresh process failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_workload(args):
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        first_setup_s, prepared = cold_setup(args, workdir)
        if args.setup_only:
            print(repr(first_setup_s))
            return 0
        print("# env " + json.dumps(environment()), flush=True)
        if args.trace:
            tracer, untraced, traced = run_interleaved(prepared, args.seconds)
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
            metrics = per_module_metrics(tracer, traced, untraced)
            phases = (untraced, traced)
        else:
            # Every set-up is cold: this process's own, and one in each of
            # SETUP_REPEATS - 1 fresh processes; setup_s is their median.
            setup_times = [first_setup_s] + [child_setup_s(args)
                                             for _ in range(SETUP_REPEATS - 1)]
            print(f"# setup_s samples {[round(t, 4) for t in setup_times]}")
            phase = run_phase(prepared, args.seconds)
            metrics = end_to_end_metrics(phase, statistics.median(setup_times))
            phases = (phase,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for error in p.errors[:3]:
            print(error, file=sys.stderr)
        print(f"# {p.ops} ops in {p.calls} timed calls, {p.cycles} cycles; "
              f"median ms by op kind {json.dumps(p.label_medians_ms())}")
        if p.probes_ms:
            print(f"# speed probe median {statistics.median(p.probes_ms):.4f} ms "
                  f"over {len(p.probes_ms)} probes")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Run every workload in its own process and print each metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        metrics = dict(result["metrics"])
        metrics.setdefault("failed_frac", _metric(result["failed"] / result["attempted"], "ratio"))
        for metric, entry in metrics.items():
            print(f"{name:20s} {metric:45s} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Only time a cold set-up and print its seconds (used by run_workload).
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
