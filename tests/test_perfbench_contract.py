"""The library names and argument names that ``perfbench/tracer.py`` relies on.

The benchmark's own self-tests (``python3 -m pytest perfbench``) run outside
this suite, so a renamed or deleted traced function, or a renamed argument
that the tracer reads to size a call's work, would otherwise go unnoticed
here.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import vechgarch as vg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_bindings():
    """Every module-level binding of the package, plus JacobianState's methods."""
    out = {(name, attr): value for name, module in sys.modules.items()
           if name == "vechgarch" or name.startswith("vechgarch.")
           for attr, value in vars(module).items()}
    out.update({("JacobianState", attr): value
                for attr, value in vars(vg.JacobianState).items()})
    return out


def test_perfbench_targets_resolve_and_record_work(ref_spec_d1):
    tracing = load_tracer()
    before = library_bindings()
    ms = vg.population_moments(ref_spec_d1, np.array([[0.5]]))
    # Entering fails if any TARGETS name no longer resolves.  Functions are
    # looked up through the package at call time, as perfbench's workloads
    # do, so the tracer's wrappers are the ones called.
    with tracing.Tracer() as tracer:
        tracer.op = 0
        y = vg.simulate(ref_spec_d1, 200, seed=1, burn_in=50).y
        vg.hac_psi(vg.to_x(y), bandwidth=3)
        vg.jacobian_matrix(vg.JacobianState.from_moments(ms))
        tracer.op = -1
    summary = tracer.summary()
    for name in tracing.WORK:
        assert summary[name]["calls"] == 1, name
        assert summary[name]["work"] > 0, name
    assert tracer.bindings == []
    after = library_bindings()
    assert all(after.get(key) is value for key, value in before.items())
