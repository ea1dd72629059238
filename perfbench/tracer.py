"""Span tracing of vechgarch's public functions, from outside the library.

A :class:`Tracer` replaces each traced function in every namespace of the
package that binds it (``solve_b`` is bound in ``solver``, ``asymptotics``,
``aggregation`` and the package itself), records one span per call while an
op is current, and puts every original object back on exit.  The wrappers
only read the clock and append to lists, so the numbers the library
computes are unchanged.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "vechgarch"

# Traced functions, as "<module>.<attribute>" under the vechgarch package.
TARGETS = (
    "cli.main",
    "simulate.simulate",
    "simulate.to_x",
    "simulate.read_returns_csv",
    "moments.sample_moments",
    "moments.hac_psi",
    "solver.estimate",
    "solver.solve_b",
    "solver.build_p",
    "solver.recover_sigma",
    "asymptotics.standard_errors",
    "asymptotics.JacobianState.from_moments",
    "asymptotics.jacobian_matrix",
    "asymptotics.xi",
    "aggregation.aggregate_params",
    "aggregation.stock_gammas",
    "aggregation.flow_gammas",
    "model.diagnostics",
    "linalg.eig",
    "linalg.dlyap",
    "linalg.solve",
    "linalg.rsolve",
    "linalg.cholesky",
    "linalg.spectral_radius",
)


def _simulate_steps(args):
    return args["n"] + args["burn_in"]


def _hac_gflop(args):
    # Bartlett HAC as written: bw + 1 products g' g of an n_g x p matrix,
    # p = dbar + 3 dbar^2, each 2 n_g p^2 flops.  Computed from array sizes.
    n, dbar = args["x"].shape
    bandwidth = args["bandwidth"]
    if bandwidth is None:
        bandwidth = sys.modules[f"{PACKAGE}.moments"].default_bandwidth(n)
    p = dbar + 3 * dbar * dbar
    return 2.0 * (n - 2) * p * p * (bandwidth + 1) / 1e9


def _jacobian_directions(args):
    dbar = args["js"].dbar
    return dbar + 3 * dbar * dbar


# Work computed from a call's arguments, for the functions that have a
# natural size: recursion steps, HAC gflop, Jacobian directions.
WORK = {
    "simulate.simulate": _simulate_steps,
    "moments.hac_psi": _hac_gflop,
    "asymptotics.jacobian_matrix": _jacobian_directions,
}


class Tracer:
    """Context manager that traces :data:`TARGETS` while it is entered.

    Set :attr:`op` to the index of the op being timed; calls made while
    ``op`` is negative (set-up, output checks) pass straight through and
    leave no span.
    """

    def __init__(self):
        self.op = -1
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.failed = []
        self.work = []
        self._stack = []
        # (owner, attribute, original object) for every binding replaced.
        self.bindings = []

    def __enter__(self):
        self._typed_error = sys.modules[f"{PACKAGE}.exceptions"].VechGarchError
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        try:
            for target in TARGETS:
                self._install(target, modules)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, target, modules):
        module_name, _, attr_path = target.partition(".")
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in attr_path:
            cls_name, method = attr_path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._bind(cls, method, original,
                       classmethod(self._wrap(target, original.__func__)))
            return
        original = getattr(module, attr_path)
        wrapped = self._wrap(target, original)
        for mod in modules:
            for name in [n for n, v in vars(mod).items() if v is original]:
                self._bind(mod, name, original, wrapped)

    def _bind(self, owner, name, original, wrapped):
        self.bindings.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _restore(self):
        while self.bindings:
            owner, name, original = self.bindings.pop()
            setattr(owner, name, original)

    def _wrap(self, name, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None
        typed_error = self._typed_error
        stack = self._stack
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, failed, work_done = self.parents, self.ops, self.failed, self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            amount = 0.0
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                amount = work(bound.arguments)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            failed.append(False)
            work_done.append(amount)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except typed_error:
                failed[index] = True
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def summary(self):
        """Totals per traced name: calls, failures, self and inclusive seconds, work.

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals = {name: {"calls": 0, "failures": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0.0}
                  for name in TARGETS}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            t = totals[name]
            t["calls"] += 1
            t["failures"] += self.failed[i]
            t["self_s"] += duration - child[i]
            t["incl_s"] += duration
            t["work"] += self.work[i]
        return totals

    def write_spans(self, path):
        """Write every span as CSV: index, op, parent, name, start, end, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,op,parent,name,start_s,end_s,failed\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.ops[i]},{self.parents[i]},{name},"
                         f"{self.starts[i]!r},{self.ends[i]!r},{int(self.failed[i])}\n")
