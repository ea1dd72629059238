"""The benchmark's three workloads over the moments -> solve -> SE -> aggregate chain.

Each workload's ``setup(seed, workdir)`` builds its inputs from the seed
and returns a :class:`Prepared`: the length of one cycle of ops and a
function giving the i-th op.  An op's ``run`` calls the library only
through public functions or the in-process CLI (``vechgarch.cli.main``),
looking every function up at call time so that a tracer's wrappers are
seen; its ``check`` raises :class:`CheckFailed` when the output is wrong.
Why each workload exists is set out in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import vechgarch as vg
from vechgarch import cli, exceptions


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # How many ops one call stands for (replications of a montecarlo call).
    weight: int = 1


@dataclass(frozen=True)
class Prepared:
    # A run stops only at a cycle boundary, so the mix of op kinds, the
    # latency percentiles and the per-op call counts do not depend on where
    # the clock ran out.
    cycle: int
    op: Callable[[int], Op]


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _require_exit_zero(result):
    code, _, err = result
    _require(code == 0, f"exit code {code}: {err.strip()[-300:]}")


def _write_spec(spec, path):
    path.write_text(json.dumps(spec.to_json()), encoding="utf-8")
    return str(path)


def _spec_d2():
    # The d = 2 reference spec of the test suite: rho(A + B) ~ 0.69,
    # unconditional covariance [[1, .25], [.25, 1]].
    a = np.array([[0.12, 0.02, 0.01], [0.01, 0.10, 0.02], [0.02, 0.01, 0.12]])
    b = np.array([[0.50, 0.03, 0.01], [0.02, 0.52, 0.02], [0.01, 0.03, 0.48]])
    h = np.array([1.0, 0.25, 1.0])
    return vg.GarchSpec(d=2, c=(np.eye(3) - a - b) @ h, A=a, B=b)


def _fit_spec(d):
    # A = 0.15 I, B = 0.45 I plus small off-diagonal terms, unconditional
    # correlation 0.25.  At n = 2e4 the lag-1 fit of this spec was refused on
    # none of 520 (d = 1), 320 (d = 2) and 320 (d = 3) simulated paths, and
    # the companion spectrum never came within 0.16 of the unit circle.  With
    # A ~ 0.1 I (the test suite's d = 2 reference spec) 1 of 120 paths was
    # refused, and the CLI answers a refused fit with exit code 4.
    k = d * (d + 1) // 2
    off = np.ones((k, k)) - np.eye(k)
    a = 0.15 * np.eye(k) + 0.005 * off
    b = 0.45 * np.eye(k) + 0.0025 * off
    h = vg.vech(np.eye(d) + 0.25 * (np.ones((d, d)) - np.eye(d)))
    return vg.GarchSpec(d=d, c=(np.eye(k) - a - b) @ h, A=a, B=b)


# --- cli_fit_se -------------------------------------------------------------

FIT_ROWS = 20_000


def _check_fit(result):
    _require_exit_zero(result)
    try:
        payload = json.loads(result[1])
        spec = payload["spec"]
        estimates = np.concatenate([np.ravel(spec[key]) for key in ("c", "A", "B")]
                                   + [np.ravel(payload["sigma"])])
        se = np.array(list(payload["asymptotics"]["std_errors"].values()), dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"estimate output is not the expected JSON: {exc!r}") from exc
    dbar = len(spec["c"])
    _require(np.isfinite(estimates).all(), "non-finite estimate")
    _require(se.size == dbar + 2 * dbar * dbar, f"{se.size} standard errors for dbar={dbar}")
    _require(np.isfinite(se).all() and (se > 0).all(), "standard error not finite and positive")


def setup_cli_fit_se(seed, workdir):
    rng = _rng(seed, 1)
    ops = []
    for spec in (_fit_spec(1), _fit_spec(2), _fit_spec(3)):
        spec_path = _write_spec(spec, workdir / f"fit_spec_d{spec.d}.json")
        data = str(workdir / f"returns_d{spec.d}.csv")
        made = _cli(["simulate", "--params", spec_path, "--out", data,
                     "--n", str(FIT_ROWS), "--seed", str(int(rng.integers(2**31)))])
        _require_exit_zero(made)
        argv = ["estimate", "--data", data, "--with-se"]
        ops.append(Op(f"d={spec.d}", lambda argv=argv: _cli(argv), _check_fit))
    return Prepared(cycle=len(ops), op=lambda i: ops[i % len(ops)])


# --- montecarlo_d2 ----------------------------------------------------------

MC_SIZES = (8_000, 32_000)
MC_REPS = 2


def _check_montecarlo(result):
    _require_exit_zero(result)
    lines = result[1].splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    summaries = [line for line in lines if line.startswith("# summary")]
    _require(len(rows) == MC_REPS * len(MC_SIZES), f"{len(rows)} montecarlo rows")
    for row in rows:
        status = row["status"]
        if status == "ok":
            _require(np.isfinite(float(row["err_max"])), "non-finite err_max in an ok row")
        else:
            refusal = getattr(exceptions, status, None)
            _require(isinstance(refusal, type) and issubclass(refusal, exceptions.VechGarchError),
                     f"row status {status!r} is neither ok nor a typed refusal")
    expected = []
    for n in MC_SIZES:
        done = [r for r in rows if int(r["n"]) == n]
        ok = [float(r["err_max"]) for r in done if r["status"] == "ok"]
        line = f"# summary n={n} reps={len(done)} failures={len(done) - len(ok)}"
        if ok:
            line += f" median_err_max={np.median(ok):.10g}"
        expected.append(line)
    _require(summaries == expected, f"summary {summaries} disagrees with rows ({expected})")


def setup_montecarlo_d2(seed, workdir):
    spec_path = _write_spec(_spec_d2(), workdir / "mc_spec_d2.json")
    first_seed = int(_rng(seed, 2).integers(2**30))
    sizes = ",".join(str(n) for n in MC_SIZES)

    def op(i):
        argv = ["montecarlo", "--params", spec_path, "--reps", str(MC_REPS),
                "--n", sizes, "--seed", str(first_seed + i * MC_REPS)]
        return Op("reps", lambda: _cli(argv), _check_montecarlo, weight=MC_REPS)

    return Prepared(cycle=1, op=op)


# --- population_solve -------------------------------------------------------

SOLVE_DIMS = (1, 2, 3, 4, 5)
SOLVE_STATES_PER_DIM = 4
ROUND_TRIP_TOL = 1e-8  # the acceptance suite's round-trip tolerance


def _population_state(d, rng):
    spec = vg.random_spec(d, rng)
    sigma = vg.random_sigma(spec.dbar, rng)
    return spec, sigma, vg.population_moments(spec, sigma)


def _solve_chain(ms):
    rep = vg.estimate(ms)
    k = rep.spec.dbar
    stock = vg.aggregate_params(vg.AggregationInput(rep.spec, rep.sigma, 2, "stock"))
    flow = vg.aggregate_params(vg.AggregationInput(rep.spec, rep.sigma, 2, "flow",
                                                   sigma_w=np.zeros((k, k))))
    return rep, stock, flow


def _check_solve(spec, sigma):
    def check(result):
        rep, stock, flow = result
        err = max(np.abs(rep.spec.c - spec.c).max(), np.abs(rep.spec.A - spec.A).max(),
                  np.abs(rep.spec.B - spec.B).max(), np.abs(rep.sigma - sigma).max())
        _require(err <= ROUND_TRIP_TOL, f"round-trip error {err:.3e} > {ROUND_TRIP_TOL:g}")
        for agg in (stock, flow):
            scale = 1.0 + np.linalg.norm(agg.gamma0_m)
            residual = max(agg.report.residual_pme, agg.report.residual_nme)
            _require(residual <= ROUND_TRIP_TOL * scale,
                     f"{agg.kind} aggregation residual {residual:.3e}")
            _require(np.isfinite(agg.spec_m.A).all() and np.isfinite(agg.spec_m.B).all(),
                     f"non-finite {agg.kind} aggregate")
    return check


def setup_population_solve(seed, workdir):
    rng = _rng(seed, 3)
    ops = []
    for _ in range(SOLVE_STATES_PER_DIM):
        for d in SOLVE_DIMS:
            spec, sigma, ms = _population_state(d, rng)
            ops.append(Op(f"d={d}", lambda ms=ms: _solve_chain(ms), _check_solve(spec, sigma)))
    return Prepared(cycle=len(ops), op=lambda i: ops[i % len(ops)])
