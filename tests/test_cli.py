import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vechgarch as vg
from vechgarch import cli
from vechgarch.cli import main
from vechgarch.simulate import read_returns_csv

FIXTURES = Path(__file__).parent / "data"

SCALAR_SPEC = {"d": 1, "c": [0.3], "A": [[0.1]], "B": [[0.6]]}
# A = 0.15 I, B = 0.45 I with unit variances and correlation 0.25.
REFERENCE_SPEC_D2 = {"d": 2, "c": [0.4, 0.1, 0.4],
                     "A": [[0.15, 0, 0], [0, 0.15, 0], [0, 0, 0.15]],
                     "B": [[0.45, 0, 0], [0, 0.45, 0], [0, 0, 0.45]]}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SCALAR_SPEC))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_module(*argv, flags=()):
    """``python <flags> -m vechgarch <argv>`` in a fresh interpreter that
    imports the package under test, installed or not."""
    src = str(Path(vg.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-m", "vechgarch", *map(str, argv)],
                          capture_output=True, text=True, timeout=120, env=env)


def test_simulate_writes_csv_and_echoes_spec(tmp_path, spec_file, capsys):
    out = tmp_path / "y.csv"
    code = run_cli("simulate", "--params", spec_file, "--out", out,
                   "--n", 500, "--seed", 9)
    assert code == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed == SCALAR_SPEC
    y = read_returns_csv(out)
    assert y.shape == (500, 1)


def test_simulate_is_deterministic(tmp_path, spec_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("simulate", "--params", spec_file, "--out", out,
                       "--n", 200, "--seed", 4) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_nonpositive_n(tmp_path, spec_file, capsys):
    # --n is parsed like every other count flag, so argparse refuses it.
    for n in (0, -5):
        code = run_cli("simulate", "--params", spec_file,
                       "--out", tmp_path / "y.csv", "--n", n)
        assert code == 1
        assert f"argument --n: must be positive, got {n}" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


def test_simulate_positivity_failure_is_exit_2(tmp_path, capsys):
    spec = tmp_path / "neg.json"
    spec.write_text(json.dumps({"d": 1, "c": [-1.0], "A": [[0.0]], "B": [[0.0]]}))
    code = run_cli("simulate", "--params", spec, "--out", tmp_path / "y.csv",
                   "--n", 10)
    assert code == 2
    assert capsys.readouterr().err == "error: conditional variance -1 is not positive at step 0\n"


def test_estimate_round_trip(tmp_path, spec_file, capsys):
    data = tmp_path / "y.csv"
    assert run_cli("simulate", "--params", spec_file, "--out", data,
                   "--n", 40000, "--seed", 12) == 0
    capsys.readouterr()

    out = tmp_path / "est.json"
    code = run_cli("estimate", "--data", data, "--out", out)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["spec"]["d"] == 1
    assert abs(payload["spec"]["B"][0][0] - 0.6) < 0.2
    assert payload["diagnostics"]["stationary"] is True
    assert "asymptotics" not in payload


def test_estimate_with_standard_errors(tmp_path, spec_file, capsys):
    data = tmp_path / "y.csv"
    assert run_cli("simulate", "--params", spec_file, "--out", data,
                   "--n", 20000, "--seed", 13) == 0
    capsys.readouterr()
    code = run_cli("estimate", "--data", data, "--with-se")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    se = payload["asymptotics"]["std_errors"]
    assert set(se) == {"c[0]", "A[0][0]", "B[0][0]"}
    assert all(v > 0 for v in se.values())


def count_calls(monkeypatch, owner, names):
    """Count calls of ``owner.<name>`` for each name, whichever vechgarch
    module namespace the call goes through."""
    calls = dict.fromkeys(names, 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("vechgarch")]
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_estimate_with_se_solves_once(tmp_path, spec_file, monkeypatch):
    import vechgarch.solver as solver

    data = tmp_path / "y.csv"
    assert run_cli("simulate", "--params", spec_file, "--out", data,
                   "--n", 5000, "--seed", 13) == 0
    calls = count_calls(monkeypatch, solver, ["solve_b", "sample_moments"])
    assert main(["estimate", "--data", str(data), "--with-se"]) == 0
    assert calls == {"solve_b": 1, "sample_moments": 1}


@pytest.mark.parametrize("d", [1, 2])
def test_estimate_with_se_runs_one_lyapunov_solve(tmp_path, monkeypatch, d):
    # The Jacobian solves the Lyapunov step for all dbar + 3 dbar^2 moment
    # directions at once, not once per direction.
    import vechgarch.linalg as linalg

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SCALAR_SPEC if d == 1 else REFERENCE_SPEC_D2))
    data = tmp_path / "y.csv"
    assert run_cli("simulate", "--params", spec, "--out", data,
                   "--n", 5000, "--seed", 13) == 0
    calls = count_calls(monkeypatch, linalg, ["dlyap"])
    assert main(["estimate", "--data", str(data), "--with-se"]) == 0
    assert calls == {"dlyap": 1}


def test_estimate_with_se_refuses_pooled_lags(tmp_path, spec_file, capsys):
    data = tmp_path / "y.csv"
    assert run_cli("simulate", "--params", spec_file, "--out", data,
                   "--n", 5000, "--seed", 13) == 0
    capsys.readouterr()
    code = run_cli("estimate", "--data", data, "--lags", 3, "--with-se")
    assert code == 1
    out = capsys.readouterr()
    assert "pools 3 lag identities" in out.err
    assert out.out == ""


def test_estimate_unimodular_data_is_exit_4(capsys):
    code = run_cli("estimate", "--data", FIXTURES / "unimodular.csv")
    assert code == 4
    assert "unit circle" in capsys.readouterr().err


def test_project_stationary_flag_is_a_usage_error(tmp_path, spec_file, capsys):
    code = run_cli("estimate", "--data", FIXTURES / "unimodular.csv",
                   "--project-stationary")
    assert code == 1
    assert "unrecognized arguments: --project-stationary" in capsys.readouterr().err
    code = run_cli("montecarlo", "--params", spec_file, "--reps", 1, "--n", 100,
                   "--out", tmp_path / "mc.csv", "--project-stationary")
    assert code == 1
    assert "unrecognized arguments: --project-stationary" in capsys.readouterr().err
    assert not (tmp_path / "mc.csv").exists()


def test_estimate_constant_series_is_exit_3(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("y1\n" + "1.0\n" * 100)
    code = run_cli("estimate", "--data", data)
    assert code == 3
    assert "singular" in capsys.readouterr().err


def test_estimate_bad_header_is_exit_1(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("r1\n0.1\n-0.2\n0.3\n0.4\n")
    assert run_cli("estimate", "--data", data) == 1


def test_estimate_non_numeric_csv_is_exit_1(tmp_path, capsys):
    data = tmp_path / "text.csv"
    data.write_text("y1,y2\n0.1,0.2\n0.3,abc\n")
    assert run_cli("estimate", "--data", data) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read returns from ")
    assert str(data) in err


def test_estimate_header_only_csv_is_exit_1_with_one_error_line(tmp_path):
    # In a fresh interpreter, so a warning would reach stderr as it does for
    # a user.
    data = tmp_path / "empty.csv"
    data.write_text("y1,y2\n")
    proc = run_module("estimate", "--data", data, flags=("-W", "default"))
    assert proc.returncode == 1
    assert proc.stderr == "error: CSV contains no data rows\n"
    assert proc.stdout == ""


def test_estimate_missing_file_is_exit_1(tmp_path):
    assert run_cli("estimate", "--data", tmp_path / "nope.csv") == 1


def test_bad_json_is_exit_1(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text("{not json")
    assert run_cli("simulate", "--params", spec, "--out", tmp_path / "y.csv",
                   "--n", 10) == 1


@pytest.mark.parametrize("spec", [
    dict(SCALAR_SPEC, d=1.9), [1, 2], dict(SCALAR_SPEC, c=["x"]),
    dict(REFERENCE_SPEC_D2, A=[[0.15, 0, 0], [0, 0.15], [0, 0, 0.15]]),
], ids=["fractional_d", "not_an_object", "non_numeric_c", "ragged_A"])
def test_malformed_spec_is_exit_1(tmp_path, spec, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "y.csv"
    assert run_cli("simulate", "--params", path, "--out", out, "--n", 10) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("simulate", "--seed"), ("simulate", "--burn-in"),
    ("montecarlo", "--seed"), ("montecarlo", "--burn-in"), ("montecarlo", "--bandwidth")])
def test_negative_count_option_is_exit_1(command, option, tmp_path, spec_file, capsys):
    # Refused while parsing: montecarlo would otherwise mark every row
    # InvalidInput and exit 0.
    out = tmp_path / "out.csv"
    sizes = ("--n", 10) if command == "simulate" else ("--reps", 2, "--n", 400)
    assert run_cli(command, "--params", spec_file, "--out", out, *sizes, option, -1) == 1
    assert "must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_stock_scalar(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"d": 1, "c": [0.1], "A": [[0.1]], "B": [[0.8]]}))
    sigma = tmp_path / "sigma.json"
    sigma.write_text("[[1.0]]")
    code = run_cli("aggregate", "--params", spec, "--sigma", sigma,
                   "--m", 2, "--kind", "stock")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 2 and payload["kind"] == "stock"
    assert_allclose(payload["c"], [0.19], atol=1e-10)
    assert abs(payload["B"][0][0] - 0.70565532) < 1e-7
    assert abs(payload["A"][0][0] - 0.10434468) < 1e-7


def test_aggregate_flow_needs_sigma_w(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SCALAR_SPEC))
    sigma = tmp_path / "sigma.json"
    sigma.write_text("[[1.0]]")
    code = run_cli("aggregate", "--params", spec, "--sigma", sigma,
                   "--m", 2, "--kind", "flow")
    assert code == 1
    assert "sigma_w" in capsys.readouterr().err


def test_aggregate_flow_with_noise(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SCALAR_SPEC))
    sigma = tmp_path / "sigma.json"
    sigma.write_text("[[1.0]]")
    sigma_w = tmp_path / "sigma_w.json"
    sigma_w.write_text("[[0.05]]")
    code = run_cli("aggregate", "--params", spec, "--sigma", sigma,
                   "--sigma-w", sigma_w, "--m", 3, "--kind", "flow")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "flow"


def test_aggregate_flow_refuses_negative_noise(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SCALAR_SPEC))
    sigma = tmp_path / "sigma.json"
    sigma.write_text("[[1.0]]")
    sigma_w = tmp_path / "sigma_w.json"
    sigma_w.write_text("[[-0.5]]")
    code = run_cli("aggregate", "--params", spec, "--sigma", sigma,
                   "--sigma-w", sigma_w, "--m", 2, "--kind", "flow")
    assert code == 1
    assert "semidefinite" in capsys.readouterr().err


@pytest.mark.parametrize("sigma, message", [
    ("[[-1.0]]", "sigma is not positive definite"),
    ("[[NaN]]", "sigma"),
    ('[["a"]]', "sigma must be an array of numbers"),
    ("[1.0]", "sigma must have shape (1, 1), got (1,)"),
], ids=["not_pd", "nan", "non_numeric", "flat"])
def test_aggregate_refused_sigma_is_exit_1(tmp_path, spec_file, sigma, message, capsys):
    path = tmp_path / "sigma.json"
    path.write_text(sigma)
    code = run_cli("aggregate", "--params", spec_file, "--sigma", path,
                   "--m", 2, "--kind", "stock")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_aggregate_failure_inside_the_solve_is_exit_3(tmp_path, spec_file, monkeypatch,
                                                      capsys):
    # Only a Sigma refused at input validation exits 1; the same error type
    # raised by the solve stays a numerical failure.
    def fail(inp):
        raise vg.NotPositiveDefinite("recovered Sigma is not positive definite")

    monkeypatch.setattr(cli, "aggregate_params", fail)
    path = tmp_path / "sigma.json"
    path.write_text("[[1.0]]")
    code = run_cli("aggregate", "--params", spec_file, "--sigma", path,
                   "--m", 2, "--kind", "stock")
    assert code == 3
    assert "recovered Sigma" in capsys.readouterr().err


def test_montecarlo_csv_output(tmp_path, spec_file, capsys):
    out = tmp_path / "mc.csv"
    code = run_cli("montecarlo", "--params", spec_file, "--reps", 3,
                   "--n", "400,900", "--seed", 5, "--burn-in", 200,
                   "--out", out)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header, body = lines[0], lines[1:]
    assert header.split(",") == ["rep", "n", "status", "err_max", "err_c",
                                 "err_a", "err_b", "cover_c", "cover_a",
                                 "cover_b"]
    rows = [line for line in body if not line.startswith("#")]
    summaries = [line for line in body if line.startswith("#")]
    assert len(rows) == 6
    assert len(summaries) == 2
    assert all("median_err_max=" in s or "failures=" in s for s in summaries)


def test_montecarlo_is_deterministic(tmp_path, spec_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("montecarlo", "--params", spec_file, "--reps", 2,
                       "--n", "500", "--seed", 1, "--burn-in", 100,
                       "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_montecarlo_with_coverage_columns(tmp_path, spec_file):
    out = tmp_path / "mc.csv"
    code = run_cli("montecarlo", "--params", spec_file, "--reps", 2,
                   "--n", "2000", "--seed", 2, "--burn-in", 200,
                   "--with-se", "--out", out)
    assert code == 0
    lines = [line for line in out.read_text().strip().splitlines()
             if not line.startswith("#") and line]
    first = lines[1].split(",")
    assert first[7] != ""  # cover_c populated


def test_montecarlo_with_se_marks_pooled_lags_invalid(tmp_path, spec_file):
    out = tmp_path / "mc.csv"
    code = run_cli("montecarlo", "--params", spec_file, "--reps", 1,
                   "--n", "2000", "--seed", 2, "--burn-in", 200,
                   "--lags", 2, "--with-se", "--out", out)
    assert code == 0
    rows = [line for line in out.read_text().strip().splitlines()
            if not line.startswith("#")]
    assert rows[1].split(",")[2] == "InvalidInput"


def test_montecarlo_with_se_keeps_refused_se_rows_in_the_median(tmp_path, spec_file):
    # The fits succeed and only their standard errors are refused: no
    # failures, a median over both rows, and the refusals counted apart.
    out = tmp_path / "mc.csv"
    code = run_cli("montecarlo", "--params", spec_file, "--reps", 2,
                   "--n", "2000", "--lags", 2, "--with-se", "--out", out)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert [row[2] for row in rows] == ["InvalidInput", "InvalidInput"]
    summary = [line for line in lines if line.startswith("# summary")]
    assert len(summary) == 1
    fields = dict(part.split("=") for part in summary[0].split()[2:])
    assert fields["failures"] == "0"
    assert fields["se_refused"] == "2"
    assert_allclose(float(fields["median_err_max"]),
                    np.median([float(row[3]) for row in rows]), rtol=1e-9)
    assert "cover_c" not in fields


def serial_montecarlo(spec, reps, ns, seed, burn_in, with_se):
    """The montecarlo CSV rebuilt with one simulate and one fit per (rep, n)."""
    def errors(est):
        parts = [np.abs(est.c - spec.c).max(), np.abs(est.A - spec.A).max(),
                 np.abs(est.B - spec.B).max()]
        return [float(max(parts))] + [float(p) for p in parts]

    def stacked(s):
        return np.concatenate([s.c, s.A.reshape(-1, order="F"), s.B.reshape(-1, order="F")])

    k = spec.dbar
    rows = []
    for rep in range(reps):
        for n in ns:
            row = {"rep": rep, "n": n, "status": "ok", "err": [], "cover": []}
            try:
                x = vg.to_x(vg.simulate(spec, n, seed + rep, burn_in=burn_in).y)
                report = vg.estimate(x)
                row["err"] = errors(report.spec)
                if with_se:
                    se = vg.standard_errors(report, x).std_errors
                    inside = np.abs(stacked(report.spec) - stacked(spec)) <= 1.96 * se
                    row["cover"] = [float(inside[:k].mean()), float(inside[k : k + k * k].mean()),
                                    float(inside[k + k * k :].mean())]
            except vg.VechGarchError as exc:
                row["status"] = type(exc).__name__
            rows.append(row)
    lines = ["rep,n,status,err_max,err_c,err_a,err_b,cover_c,cover_a,cover_b"]
    for row in rows:
        # Summaries are computed from the printed digits, as a reader of
        # the CSV would.
        row["err"] = [f"{v:.10g}" for v in row["err"]]
        row["cover"] = [f"{v:.6g}" for v in row["cover"]]
        lines.append(",".join([str(row["rep"]), str(row["n"]), row["status"]]
                              + (row["err"] or [""] * 4) + (row["cover"] or [""] * 3)))
    for n in ns:
        done = [r for r in rows if r["n"] == n]
        fitted = [r for r in done if r["err"]]
        ok = [r for r in fitted if r["status"] == "ok"]
        line = f"# summary n={n} reps={len(done)} failures={len(done) - len(fitted)}"
        if with_se:
            line += f" se_refused={len(fitted) - len(ok)}"
        if fitted:
            line += f" median_err_max={np.median([float(r['err'][0]) for r in fitted]):.10g}"
        if with_se and ok:
            for i, key in enumerate(("cover_c", "cover_a", "cover_b")):
                line += f" {key}={np.mean([float(r['cover'][i]) for r in ok]):.6g}"
        lines.append(line)
    return "\r\n".join(lines[: 1 + len(rows)]) + "\r\n" + "\n".join(lines[1 + len(rows) :]) + "\n"


@pytest.mark.parametrize("block", [2, None], ids=["block2", "default_block"])
@pytest.mark.parametrize("with_se", [False, True], ids=["plain", "with_se"])
@pytest.mark.parametrize("which", ["d1", "d2", "d2_positivity"])
def test_montecarlo_matches_a_serial_reference(which, with_se, block, tmp_path, capsys,
                                               monkeypatch, positivity_spec_d2):
    # montecarlo simulates each replication once at the largest n, several
    # replications in one stacked recursion; its output must still be the
    # one that per-(rep, n) simulate calls give, however the replications
    # are split into blocks.
    if block is not None:
        monkeypatch.setattr(cli, "_PATH_BLOCK", block)
    spec = {"d1": vg.GarchSpec.from_json(SCALAR_SPEC),
            "d2": vg.GarchSpec.from_json(REFERENCE_SPEC_D2),
            "d2_positivity": positivity_spec_d2}[which]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json()))
    seed, burn_in = 31, 200
    expected = serial_montecarlo(spec, 3, [400, 900], seed, burn_in, with_se)
    code = run_cli("montecarlo", "--params", path, "--reps", 3, "--n", "400,900",
                   "--seed", seed, "--burn-in", burn_in, *(["--with-se"] if with_se else []))
    assert code == 0
    assert capsys.readouterr().out == expected
    if which == "d2_positivity":
        # Replication 1 fails between burn-in + 400 and burn-in + 900 while
        # replications 0 and 2, in the same block, run to the end.
        statuses = [line.split(",")[2] for line in expected.splitlines()[1:7]]
        assert statuses[2:4] == ["ok", "PositivityViolation"]
        assert "PositivityViolation" not in statuses[:2] + statuses[4:]


def test_montecarlo_nonstationary_spec_fails_every_row(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"d": 2, "c": [0.1, 0.0, 0.1],
                                "A": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]],
                                "B": [[0.6, 0, 0], [0, 0.6, 0], [0, 0, 0.6]]}))
    assert run_cli("montecarlo", "--params", path, "--reps", 3, "--n", "400,900") == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]
            if not line.startswith("#")]
    assert len(rows) == 6
    assert {row[2] for row in rows} == {"NonStationary"}


def test_unknown_subcommand_is_exit_1():
    assert run_cli("frobnicate") == 1


def test_module_entry_point(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SCALAR_SPEC))
    out = tmp_path / "y.csv"
    proc = run_module("simulate", "--params", spec, "--out", out, "--n", 50, "--seed", 3)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert json.loads(proc.stdout)["d"] == 1
