"""Self-tests of the benchmark: tracing changes no output and restores every
binding, the seed-state call counts hold exactly, and BENCHMARK.json names
exactly the metrics the benchmark reports.

Run with ``python3 -m pytest perfbench``.
"""

import collections
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_library()
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def fingerprint(obj):
    """Exact, comparable image of an op's output, down to the bits of every float."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                tuple(fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, fingerprint(v)) for k, v in obj.items())
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


def run_cycle(prepared, tracer=None):
    outputs = []
    for i in range(prepared.cycle):
        op = prepared.op(i)
        if tracer is not None:
            tracer.op = i
        output = op.run()
        if tracer is not None:
            tracer.op = -1
        op.check(output)
        outputs.append(fingerprint(output))
    return outputs


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def cycle_runs(request, tmp_path_factory):
    """One cycle of a workload, untraced and then traced, on the same inputs."""
    setup = getattr(workloads, f"setup_{request.param}")
    prepared = setup(SEED, tmp_path_factory.mktemp(request.param))
    untraced = run_cycle(prepared)
    with tracing.Tracer() as tracer:
        bindings = list(tracer.bindings)
        traced = run_cycle(prepared, tracer)
    return request.param, prepared, untraced, traced, tracer, bindings


def test_tracing_leaves_outputs_bitwise_equal(cycle_runs):
    _, _, untraced, traced, _, _ = cycle_runs
    assert traced == untraced


def test_tracing_restores_every_binding(cycle_runs):
    _, _, _, _, tracer, bindings = cycle_runs
    assert not tracer.bindings
    for owner, name, original in bindings:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name} not restored"


def test_interleaved_run_traces_only_its_traced_cycles(cycle_runs):
    _, prepared, _, _, _, bindings = cycle_runs
    tracer, untraced, traced = run.run_interleaved(prepared, 0.0)
    assert untraced.calls == traced.calls == prepared.cycle
    assert set(tracer.ops) == set(range(prepared.cycle, 2 * prepared.cycle))
    assert not tracer.bindings
    for owner, name, original in bindings:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name} not restored"


def test_every_namespace_binding_a_target_is_wrapped(cycle_runs):
    _, _, _, _, _, bindings = cycle_runs
    owners = collections.defaultdict(set)
    for owner, name, original in bindings:
        owners[name].add(owner.__name__)
    assert owners["solve_b"] == {"vechgarch", "vechgarch.solver", "vechgarch.asymptotics",
                                 "vechgarch.aggregation"}
    assert owners["simulate"] == {"vechgarch", "vechgarch.simulate", "vechgarch.cli"}
    assert owners["main"] == {"vechgarch.cli"}


def _calls_per_op(tracer, name):
    counts = collections.Counter(op for op, n in zip(tracer.ops, tracer.names) if n == name)
    return [counts[i] for i in range(max(tracer.ops) + 1)]


def test_seed_state_call_counts(cycle_runs):
    workload, prepared, _, _, tracer, _ = cycle_runs
    if workload == "cli_fit_se":
        # Moments and the palindromic solve both run twice per fit: once for
        # the estimate and again inside standard_errors.
        assert _calls_per_op(tracer, "solver.solve_b") == [2] * prepared.cycle
        assert _calls_per_op(tracer, "moments.sample_moments") == [2] * prepared.cycle
        # One Lyapunov solve per Jacobian direction, dbar + 3 dbar^2, for
        # the fits at d = 1, 2, 3.
        assert _calls_per_op(tracer, "linalg.dlyap") == [k + 3 * k * k for k in (1, 3, 6)]
    elif workload == "montecarlo_d2":
        assert _calls_per_op(tracer, "simulate.simulate") == [len(workloads.MC_SIZES)
                                                              * workloads.MC_REPS]
    else:
        assert _calls_per_op(tracer, "solver.solve_b") == [3] * prepared.cycle


def test_benchmark_json_names_every_reported_metric(cycle_runs):
    _, _, _, _, tracer, _ = cycle_runs
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    phase = run.Phase(ops=1, calls=1, busy_s=1.0, latencies_ms=[1.0])
    per_layer = run.per_module_metrics(tracer, phase, phase)
    end_to_end = run.end_to_end_metrics(phase, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    for entry in spec["per_layer"]:
        assert entry["unit"] == per_layer[entry["name"]]["unit"]
    for entry in spec["end_to_end"]:
        assert entry["unit"] == end_to_end[entry["name"]]["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
