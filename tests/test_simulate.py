import math
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from numpy.testing import assert_allclose

import vechgarch as vg
from vechgarch import linalg
from vechgarch.exceptions import InvalidInput, NonStationary, PositivityViolation
from vechgarch.simulate import (
    _CSV_BLOCK_ROWS as CSV_BLOCK_ROWS,
    _simulate_paths,
    read_returns_csv,
    simulate,
    to_x,
    write_returns_csv,
)


def test_same_seed_same_path(ref_spec_d2):
    one = simulate(ref_spec_d2, 500, seed=7)
    two = simulate(ref_spec_d2, 500, seed=7)
    assert np.array_equal(one.y, two.y)
    assert np.array_equal(one.h_path, two.h_path)
    three = simulate(ref_spec_d2, 500, seed=8)
    assert not np.array_equal(one.y, three.y)


def test_shapes_and_metadata(ref_spec_d1):
    out = simulate(ref_spec_d1, 250, seed=3, burn_in=100)
    assert out.y.shape == (250, 1)
    assert out.h_path.shape == (250, 1)
    assert out.seed == 3 and out.burn_in == 100


def test_recursion_starts_at_unconditional_h(ref_spec_d2):
    out = simulate(ref_spec_d2, 10, seed=0, burn_in=0)
    assert_allclose(out.h_path[0], vg.uncond_h(ref_spec_d2), rtol=0, atol=0)


def test_scalar_recursion_replay(ref_spec_d1):
    # Replay the documented draw scheme by hand: Philox(seed), one
    # standard-normal block of shape (burn_in + n, 1), consumed row by row.
    n, burn_in, seed = 200, 50, 11
    out = simulate(ref_spec_d1, n, seed=seed, burn_in=burn_in)
    eps = np.random.Generator(np.random.Philox(seed)).standard_normal((burn_in + n, 1))
    c = ref_spec_d1.c[0]
    a = ref_spec_d1.A[0, 0]
    b = ref_spec_d1.B[0, 0]
    h = vg.uncond_h(ref_spec_d1)[0]
    ys, hs = [], []
    for e in eps[:, 0]:
        yv = math.sqrt(h) * float(e)
        ys.append(yv)
        hs.append(h)
        h = c + a * (yv * yv) + b * h
    assert np.array_equal(out.y[:, 0], np.asarray(ys[burn_in:]))
    assert np.array_equal(out.h_path[:, 0], np.asarray(hs[burn_in:]))


@pytest.fixture(params=[2, 3], ids=["d2", "d3"])
def matrix_spec(request, ref_spec_d2, ref_spec_d3):
    return {2: ref_spec_d2, 3: ref_spec_d3}[request.param]


def _serial_reference(spec, eps):
    # One path by the documented recursion, np.linalg.cholesky step by step;
    # returns y, h_path and the failing step (or the path length).
    h = vg.uncond_h(spec)
    ys, hs = [], []
    for t in range(eps.shape[0]):
        hs.append(h)
        try:
            chol = np.linalg.cholesky(linalg.unvech(h))
        except np.linalg.LinAlgError:
            return np.asarray(ys), np.asarray(hs), t
        yt = chol @ eps[t]
        ys.append(yt)
        h = spec.c + spec.A @ linalg.vech(np.outer(yt, yt)) + spec.B @ h
    return np.asarray(ys), np.asarray(hs), eps.shape[0]


def test_matrix_recursion_replay(matrix_spec):
    n, burn_in, seed = 150, 30, 13
    out = simulate(matrix_spec, n, seed=seed, burn_in=burn_in)
    eps = np.random.Generator(np.random.Philox(seed)).standard_normal(
        (burn_in + n, matrix_spec.d))
    ys, hs, step = _serial_reference(matrix_spec, eps)
    assert step == burn_in + n
    assert np.array_equal(out.y, ys[burn_in:])
    assert np.array_equal(out.h_path, hs[burn_in:])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_paths_match_simulate(d, ref_spec_d1, ref_spec_d2, ref_spec_d3):
    spec = {1: ref_spec_d1, 2: ref_spec_d2, 3: ref_spec_d3}[d]
    n, burn_in, seeds = 400, 50, [13, 14, 99]
    y, h_path, fail = _simulate_paths(spec, n, seeds, burn_in=burn_in)
    assert y.shape == (burn_in + n, 3, d)
    assert h_path.shape == (burn_in + n, 3, spec.dbar)
    assert fail.tolist() == [burn_in + n] * 3
    for r, seed in enumerate(seeds):
        alone = simulate(spec, n, seed=seed, burn_in=burn_in)
        assert np.array_equal(y[burn_in:, r], alone.y)
        assert np.array_equal(h_path[burn_in:, r], alone.h_path)


@pytest.mark.parametrize("burn_in", [0, 1000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_prefix_property(d, burn_in, ref_spec_d1, ref_spec_d2, ref_spec_d3):
    spec = {1: ref_spec_d1, 2: ref_spec_d2, 3: ref_spec_d3}[d]
    short = simulate(spec, 300, seed=5, burn_in=burn_in)
    long = simulate(spec, 1100, seed=5, burn_in=burn_in)
    assert np.array_equal(long.y[:300], short.y)
    assert np.array_equal(long.h_path[:300], short.h_path)


def test_stacked_paths_leave_the_stack_one_by_one(positivity_spec_d2):
    # The middle path fails at step 730; the others run on to the end in the
    # same stack and still match their paths run alone.
    n, burn_in, seeds = 900, 200, [31, 32, 33]
    y, h_path, fail = _simulate_paths(positivity_spec_d2, n, seeds, burn_in=burn_in)
    assert fail.tolist() == [1100, 730, 1100]
    for r, seed in enumerate(seeds):
        if fail[r] == burn_in + n:
            alone = simulate(positivity_spec_d2, n, seed=seed, burn_in=burn_in)
            assert np.array_equal(y[burn_in:, r], alone.y)
            assert np.array_equal(h_path[burn_in:, r], alone.h_path)
            continue
        with pytest.raises(PositivityViolation) as info:
            simulate(positivity_spec_d2, n, seed=seed, burn_in=burn_in)
        assert info.value.step == fail[r]
        before = simulate(positivity_spec_d2, fail[r] - burn_in, seed=seed, burn_in=burn_in)
        assert np.array_equal(y[burn_in : fail[r], r], before.y)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(linalg.unvech(h_path[fail[r], r]))


def test_stacked_failures_match_serial_reference(positivity_spec_d2):
    # Every one of these 48 paths fails somewhere in its 5000 steps.
    n, burn_in, seeds = 4800, 200, list(range(100, 148))
    y, h_path, fail = _simulate_paths(positivity_spec_d2, n, seeds, burn_in=burn_in)
    assert (fail < burn_in + n).all()
    for r, seed in enumerate(seeds):
        eps = np.random.Generator(np.random.Philox(seed)).standard_normal((burn_in + n, 2))
        ys, hs, step = _serial_reference(positivity_spec_d2, eps)
        assert fail[r] == step
        assert np.array_equal(y[:step, r], ys)
        assert np.array_equal(h_path[: step + 1, r], hs)


def test_failure_on_the_last_step(positivity_spec_d2):
    # Seed 32 fails at step 730, here the last of 731.
    y, h_path, fail = _simulate_paths(positivity_spec_d2, 531, [31, 32, 33], burn_in=200)
    assert fail.tolist() == [731, 730, 731]
    assert np.isnan(y[730, 1]).all() and np.isfinite(y[:730]).all()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(linalg.unvech(h_path[730, 1]))


def test_failing_stack_leaks_no_warning_or_fp_state(positivity_spec_d2):
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, fail = _simulate_paths(positivity_spec_d2, 900, [31, 32, 33], burn_in=200)
    assert fail.tolist() == [1100, 730, 1100]
    assert np.geterr() == before


def test_cholesky_gufunc_fills_only_failed_factors_with_nan(rng):
    # The stacked recursion calls the gufunc behind np.linalg.cholesky and
    # relies on this: an indefinite matrix gets an all-NaN factor, the
    # others the factor np.linalg.cholesky gives.
    m = rng.normal(size=(5, 3, 3))
    stack = m @ m.transpose(0, 2, 1) + 0.1 * np.eye(3)
    stack[2] = np.diag([1.0, -1.0, 1.0])
    chol = np.empty_like(stack)
    with np.errstate(invalid="ignore"):
        _umath_linalg.cholesky_lo(stack, out=chol, signature="d->d")
    assert np.isnan(chol[2]).all()
    for r in (0, 1, 3, 4):
        assert np.array_equal(chol[r], np.linalg.cholesky(stack[r]))


def test_constant_variance_case():
    # A = B = 0 reduces to i.i.d. Gaussian returns with covariance unvech(c).
    target = np.array([[1.0, 0.3], [0.3, 2.0]])
    spec = vg.GarchSpec(d=2, c=linalg.vech(target), A=np.zeros((3, 3)),
                        B=np.zeros((3, 3)))
    out = simulate(spec, 100_000, seed=21, burn_in=10)
    assert np.abs(out.h_path - linalg.vech(target)).max() == 0.0
    sample_cov = out.y.T @ out.y / out.y.shape[0]
    assert np.abs(sample_cov - target).max() < 0.05 * np.abs(target).max()


def test_long_run_mean(ref_spec_d2):
    out = simulate(ref_spec_d2, 200_000, seed=29)
    x = to_x(out.y)
    h = vg.uncond_h(ref_spec_d2)
    assert np.abs(x.mean(axis=0) - h).max() < 0.05 * np.abs(h).max()


def test_input_validation(ref_spec_d1):
    with pytest.raises(InvalidInput, match="n must be an integer >= 1, got 0"):
        simulate(ref_spec_d1, 0, seed=1)
    with pytest.raises(InvalidInput):
        simulate(ref_spec_d1, 10, seed=1, burn_in=-1)
    with pytest.raises(InvalidInput, match="seed must be an integer >= 0, got -1"):
        simulate(ref_spec_d1, 10, seed=-1)
    with pytest.raises(InvalidInput, match="seed must be an integer >= 0, got -3"):
        _simulate_paths(ref_spec_d1, 10, [4, -3, 5], burn_in=10)
    bad = vg.GarchSpec(d=1, c=[0.1], A=[[0.6]], B=[[0.6]])
    with pytest.raises(NonStationary):
        simulate(bad, 10, seed=1)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=2.5, seed=1), "n must be an integer >= 1, got 2.5"),
    (dict(n=10, seed=1, burn_in=2.5), "burn_in must be an integer >= 0, got 2.5"),
    (dict(n=10, seed=1.5), "seed must be an integer >= 0, got 1.5"),
    (dict(n=True, seed=0), "n must be an integer >= 1, got True"),
    (dict(n=10, seed=1, burn_in=False), "burn_in must be an integer >= 0, got False"),
    (dict(n=10, seed=True), "seed must be an integer >= 0, got True"),
], ids=["n", "burn_in", "seed", "n_bool", "burn_in_bool", "seed_bool"])
def test_non_integer_counts_are_refused(ref_spec_d1, kwargs, message):
    with pytest.raises(InvalidInput, match=message):
        simulate(ref_spec_d1, **kwargs)


def test_numpy_integer_seed_and_burn_in_are_stored_as_int(ref_spec_d1):
    result = simulate(ref_spec_d1, 5, np.int64(3), burn_in=np.int64(2))
    assert type(result.seed) is int and result.seed == 3
    assert type(result.burn_in) is int and result.burn_in == 2
    assert np.array_equal(result.y, simulate(ref_spec_d1, 5, 3, burn_in=2).y)


def test_positivity_violation_carries_step():
    # Negative intercept with no feedback: h goes negative immediately.
    spec = vg.GarchSpec(d=1, c=[-1.0], A=[[0.0]], B=[[0.0]])
    with pytest.raises(PositivityViolation) as info:
        simulate(spec, 10, seed=1, burn_in=0)
    assert info.value.step == 0


def test_scalar_failed_path_is_nan_from_its_failing_step():
    # As at d >= 2: from fail on, y and h_path are NaN except h_path[fail],
    # the variance that failed.
    spec = vg.GarchSpec(d=1, c=[-1.0], A=[[0.0]], B=[[0.0]])
    y, h_path, fail = _simulate_paths(spec, 5, [1, 2], burn_in=0)
    assert fail.tolist() == [0, 0]
    assert np.isnan(y).all()
    assert np.array_equal(h_path[0], [[-1.0], [-1.0]])
    assert np.isnan(h_path[1:]).all()
    # Negative ARCH feedback: each of these paths fails part way through.
    spec = vg.GarchSpec(d=1, c=[0.1], A=[[-0.5]], B=[[0.5]])
    y, h_path, fail = _simulate_paths(spec, 50, [1, 2, 3], burn_in=0)
    assert fail.tolist() == [13, 12, 15]
    for r, step in enumerate(fail):
        assert np.isfinite(y[:step, r]).all() and np.isnan(y[step:, r]).all()
        assert np.isfinite(h_path[:step, r]).all() and h_path[step, r, 0] < 0.0
        assert np.isnan(h_path[step + 1 :, r]).all()


def test_to_x_matches_vech_of_outer(rng):
    y = rng.normal(size=(40, 3))
    x = to_x(y)
    assert x.shape == (40, 6)
    for t in (0, 17, 39):
        assert_allclose(x[t], linalg.vech(np.outer(y[t], y[t])))
    with pytest.raises(InvalidInput):
        to_x(np.array([[np.inf, 0.0]]))


def test_to_x_accepts_flat_vector(rng):
    y = rng.normal(size=25)
    assert_allclose(to_x(y), (y * y).reshape(-1, 1))


def test_csv_round_trip(tmp_path, ref_spec_d2):
    out = simulate(ref_spec_d2, 64, seed=5)
    path = tmp_path / "returns.csv"
    write_returns_csv(out.y, path)
    header = path.read_text().splitlines()[0]
    assert header == "y1,y2"
    back = read_returns_csv(path)
    assert np.array_equal(back, out.y)


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(InvalidInput):
        read_returns_csv(path)


def test_csv_rejects_rows_wider_than_header(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("y1\n0.1,0.2\n0.3,0.4\n")
    with pytest.raises(InvalidInput, match="CSV rows have 2 columns but header names 1"):
        read_returns_csv(path)


def test_csv_rejects_header_only_file_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("y1,y2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="CSV contains no data rows"):
            read_returns_csv(path)


def _savetxt_bytes(y, path):
    # The writer's reference: the np.savetxt call it replaces.
    header = ",".join(f"y{i + 1}" for i in range(y.shape[1]))
    np.savetxt(path, y, fmt="%.17g", delimiter=",", header=header, comments="")
    return path.read_bytes()


@pytest.mark.parametrize("n", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_csv_writer_matches_savetxt(tmp_path, rng, d, n):
    y = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    path = tmp_path / "y.csv"
    write_returns_csv(y, path)
    assert path.read_bytes() == _savetxt_bytes(y, tmp_path / "ref.csv")


def test_csv_writer_matches_savetxt_on_extreme_values(tmp_path):
    values = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
              np.nan, np.inf, -np.inf, 0.1, -1.0 / 3.0]
    y = np.array(values).reshape(-1, 2)
    path = tmp_path / "y.csv"
    write_returns_csv(y, path)
    assert path.read_bytes() == _savetxt_bytes(y, tmp_path / "ref.csv")
    assert path.read_text().splitlines()[1:4] == ["-0,0", "4.9406564584124654e-324,"
                                                  "1.7976931348623157e+308",
                                                  "-1.7976931348623157e+308,nan"]


def test_csv_writer_takes_a_strided_path_view(tmp_path, ref_spec_d3):
    # simulate hands the writer y[burn_in:, r] of the (total, R, d) stack.
    burn_in = 30
    y, _, _ = _simulate_paths(ref_spec_d3, CSV_BLOCK_ROWS + 5, [3, 4], burn_in=burn_in)
    view = y[burn_in:, 1]
    assert not view.flags.c_contiguous
    path = tmp_path / "y.csv"
    write_returns_csv(view, path)
    assert path.read_bytes() == _savetxt_bytes(view, tmp_path / "ref.csv")
    assert np.array_equal(read_returns_csv(path), view)


@pytest.mark.parametrize("which, seed, n", [("d2", 13, 400), ("d3", 13, 400),
                                            ("positivity", 32, 900)])
def test_single_path_matches_its_row_of_a_stack(which, seed, n, ref_spec_d2, ref_spec_d3,
                                                positivity_spec_d2):
    # One seed takes the recursion's single-path route (np.dot on 1-D views),
    # three seeds the stacked one (np.matmul); the paths agree bitwise.
    spec = {"d2": ref_spec_d2, "d3": ref_spec_d3, "positivity": positivity_spec_d2}[which]
    burn_in = 200
    seeds = [seed - 1, seed, seed + 1]
    y3, h3, fail3 = _simulate_paths(spec, n, seeds, burn_in=burn_in)
    y1, h1, fail1 = _simulate_paths(spec, n, [seed], burn_in=burn_in)
    assert y1.shape == (burn_in + n, 1, spec.d) and h1.shape == (burn_in + n, 1, spec.dbar)
    assert fail1.tolist() == [fail3[1]]
    assert y1[:, 0].tobytes() == y3[:, 1].tobytes()
    assert h1[:, 0].tobytes() == h3[:, 1].tobytes()
    if which == "positivity":
        # Seed 32 fails at step 730: NaN from there on, except the state
        # that failed.
        assert fail1.tolist() == [730]
        assert np.isfinite(y1[:730]).all() and np.isnan(y1[730:]).all()
        assert np.isfinite(h1[:731]).all() and np.isnan(h1[731:]).all()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(linalg.unvech(h1[730, 0]))
