import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vechgarch as vg
from vechgarch import linalg
from vechgarch.exceptions import InsufficientData, InvalidInput
from vechgarch.moments import (
    _BOX_BLOCK,
    _rows,
    _stacked_columns,
    default_bandwidth,
    hac_psi,
    sample_moments,
)
from vechgarch.simulate import simulate, to_x


def test_sample_moments_by_hand():
    # x = (1, 2, 3, 4): mean 2.5, centred values (-1.5, -.5, .5, 1.5),
    # so m0 = 5/4, m1 = 1.25/3 and m2 = -1.5/2.
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    ms = sample_moments(x)
    assert_allclose(ms.mean, [2.5])
    assert_allclose(ms.m0, [[1.25]])
    assert_allclose(ms.m1, [[1.25 / 3.0]])
    assert_allclose(ms.m2, [[-0.75]])


def test_single_column_moments_match_a_wider_sample(rng):
    # One column and two columns both take the matrix product, whose
    # summation order may differ with the width; the shared column's
    # moments agree to rounding at every lag.
    x = np.abs(rng.normal(size=(20_000, 2))) + 0.1
    one, two = sample_moments(x[:, :1], 4), sample_moments(x, 4)
    for lone, pair in zip(one.covs, two.covs):
        assert lone.shape == (1, 1)
        assert_allclose(lone[0, 0], pair[0, 0], rtol=1e-13)


def test_rows_copy_a_sample_only_when_it_is_not_fortran_order(ref_spec_d2):
    # hac_psi reads its x-row means from rows.T, and standard_errors hands
    # its checked rows.T to hac_psi, both on the promise that a
    # Fortran-order sample is laid out as rows without a copy.
    x = to_x(simulate(ref_spec_d2, 500, seed=3).y)
    rows, mean = _rows(x)
    assert rows.flags.c_contiguous and np.shares_memory(rows, x)
    assert np.shares_memory(_rows(rows.T)[0], rows)
    copied, copied_mean = _rows(np.ascontiguousarray(x))
    assert not np.shares_memory(copied, x)
    assert np.array_equal(copied, rows) and np.array_equal(copied_mean, mean)
    assert_allclose(_rows(x, 100)[1], x[:100].mean(axis=0), rtol=1e-14)


def test_sample_moments_needs_four_observations():
    with pytest.raises(InsufficientData):
        sample_moments(np.ones((3, 1)))
    with pytest.raises(InvalidInput):
        sample_moments(np.ones(5))


def test_deeper_sample_moments_extend_the_lag_two_set(rng):
    # A deeper set appends lags; its mean and m0..m2 are bitwise the
    # default set's.
    x = rng.normal(size=(50, 3))
    ms = sample_moments(x)
    deep = sample_moments(x, 3)
    assert (ms.max_lag, deep.max_lag, len(deep.covs), len(deep.higher)) == (2, 3, 4, 1)
    assert np.array_equal(deep.mean, ms.mean)
    for lag in range(3):
        assert np.array_equal(deep.covs[lag], ms.covs[lag])
    with pytest.raises(InsufficientData, match="need at least 5 observations, got 4"):
        sample_moments(np.ones((4, 1)), 3)


def test_sample_autocovariance_divisor():
    x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    z = x - 3.0
    covs = sample_moments(x, 3).covs
    assert_allclose(covs[3], (z[3:] * z[:-3]).sum() / 2.0)


@pytest.mark.parametrize("max_lag", [1, 0, -1])
def test_sample_moments_refuses_max_lag_below_two(rng, max_lag):
    # Depth 2 is the least the estimator reads (m2 = Phi m1).
    with pytest.raises(InvalidInput, match=f"max_lag must be an integer >= 2, got {max_lag}"):
        sample_moments(rng.normal(size=(200, 1)), max_lag)


def test_sample_moments_approach_population(ref_spec_d2):
    sim = simulate(ref_spec_d2, 200_000, seed=17)
    x = to_x(sim.y)
    ms = sample_moments(x)

    # The innovation covariance of the Gaussian recursion is whatever it
    # is; back out gamma0/gamma1 from the population identities instead of
    # positing sigma, and compare autoregressive structure only.
    phi = ref_spec_d2.phi
    h = vg.uncond_h(ref_spec_d2)
    assert np.abs(ms.mean - h).max() < 0.05 * np.abs(h).max()
    lhs = ms.m2
    rhs = phi @ ms.m1
    assert np.abs(lhs - rhs).max() < 0.05 * np.abs(ms.m0).max()


def test_default_bandwidth_values():
    assert default_bandwidth(100) == 4
    assert default_bandwidth(100_000) == 18


def stacked_by_definition(x):
    """Rows g_t = (x_t, vec(z_t z_t'), vec(z_{t+1} z_t'), vec(z_{t+2} z_t'))."""
    z = x - x.mean(axis=0)
    return np.array([
        np.concatenate([x[t]] + [np.outer(z[t + lag], z[t]).ravel(order="F")
                                 for lag in range(3)])
        for t in range(x.shape[0] - 2)
    ])


def bartlett_lag_sum(x, bandwidth):
    """The Bartlett HAC as a sum over lags, with weights 1 - l / (bw + 1)."""
    g = stacked_by_definition(x)
    g = g - g.mean(axis=0)
    n_g = g.shape[0]
    psi = g.T @ g / n_g
    for lag in range(1, bandwidth + 1):
        w = 1.0 - lag / (bandwidth + 1.0)
        cov = g[lag:].T @ g[:-lag] / n_g
        psi += w * (cov + cov.T)
    return psi


def assert_hac_matches_lag_sum(x, bandwidth):
    est = hac_psi(x, bandwidth=bandwidth)
    bw = default_bandwidth(x.shape[0]) if bandwidth is None else bandwidth
    want = bartlett_lag_sum(x, bw)
    assert est.bandwidth == bw
    assert np.abs(est.psi - want).max() <= 1e-13 * np.abs(want).max()


def test_stacked_process_is_the_transposed_definition(rng):
    # Blocks of columns at any offset, the last ones past g_{n-3}.
    x = np.abs(rng.normal(size=(40, 3))) + 0.1
    zt = (x - x.mean(axis=0)).T.copy()
    want = stacked_by_definition(x).T
    assert want.shape == (3 + 27, 38)
    for t0, b in [(0, 38), (5, 10), (30, 12), (38, 4)]:
        out = np.full((30, b), np.nan)
        m = _stacked_columns(out, x, zt, t0)
        assert m == min(b, 38 - t0)
        assert np.array_equal(out[:, :m], want[:, t0 : t0 + m])
        assert np.isnan(out[:, m:]).all()


@pytest.mark.parametrize("bandwidth", [0, 1, 5, None])
@pytest.mark.parametrize("d", [1, 2], ids=["dbar1", "dbar3"])
def test_hac_psi_matches_the_bartlett_lag_sum(ref_spec_d1, ref_spec_d2, d, bandwidth):
    spec = ref_spec_d1 if d == 1 else ref_spec_d2
    assert_hac_matches_lag_sum(to_x(simulate(spec, 3_000, seed=29).y), bandwidth)


N = 3 * _BOX_BLOCK - 10
WHOLE = (2 - N) % _BOX_BLOCK  # n = N: the windows fill three whole blocks


@pytest.mark.parametrize("spec, n, bandwidth", [
    ("ref_spec_d1", N, WHOLE),
    ("ref_spec_d1", N, WHOLE + 1),      # one window in the last block
    ("ref_spec_d1", N, 200),            # a ragged last block
    ("ref_spec_d1", 10 * _BOX_BLOCK + 300, _BOX_BLOCK + 20),  # window wider than a block
    ("ref_spec_d3", N + 200, 5),        # dbar = 6 over four blocks
], ids=["whole", "one-over", "ragged", "wide", "dbar6"])
def test_hac_psi_in_place_blocks(request, spec, n, bandwidth):
    windows = n - 2 + bandwidth
    assert (windows % _BOX_BLOCK == 0) == (bandwidth == WHOLE)
    assert windows >= 3 * _BOX_BLOCK
    x = to_x(simulate(request.getfixturevalue(spec), n, seed=37).y)
    assert_hac_matches_lag_sum(x, bandwidth)


@pytest.mark.parametrize("bandwidth", [0, 5])
def test_hac_psi_matches_the_bartlett_lag_sum_dbar6(ref_spec_d3, bandwidth):
    assert_hac_matches_lag_sum(to_x(simulate(ref_spec_d3, 2_000, seed=41).y), bandwidth)


def test_hac_psi_peak_memory():
    # The stacked process g (p = dbar + 3 dbar^2 rows, n - 2 columns) is
    # never held whole: beyond copies of the n x dbar sample, the box filter
    # needs one block of p x (_BOX_BLOCK + w) floats.  At n = 2e4 g alone
    # is 2.4 times this bound, at n = 1e5 6 times.
    rng = np.random.default_rng(31)
    dbar = 6
    p = dbar + 3 * dbar * dbar
    for n in (20_000, 100_000):
        x = np.abs(rng.normal(size=(n, dbar))) + 0.1
        block_bytes = p * (_BOX_BLOCK + default_bandwidth(n) + 1) * 8
        tracemalloc.start()
        try:
            hac_psi(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.nbytes + 1.5 * block_bytes


def test_hac_psi_bandwidth_zero_is_plain_covariance(rng):
    x = np.abs(rng.normal(size=(300, 1))) + 0.1
    est = hac_psi(x, bandwidth=0)
    g = stacked_by_definition(x)
    g -= g.mean(axis=0)
    assert_allclose(est.psi, linalg.sym(g.T @ g / g.shape[0]), atol=1e-12)
    assert est.bandwidth == 0


def test_hac_psi_iid_mean_block(rng):
    # For i.i.d. unit-variance data the long-run variance of the mean
    # block is just the variance.
    x = rng.normal(size=(100_000, 1))
    est = hac_psi(x)
    assert est.psi.shape == (4, 4)
    assert abs(est.psi[0, 0] - 1.0) < 0.1


def test_hac_psi_is_psd(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 5_000, seed=19).y)
    est = hac_psi(x)
    assert linalg.asymmetry(est.psi) <= 1e-12
    assert np.linalg.eigvalsh(est.psi).min() >= -1e-12


def test_hac_psi_guards(rng):
    x = rng.normal(size=(50, 1))
    with pytest.raises(InvalidInput):
        hac_psi(x, bandwidth=-1)
    with pytest.raises(InsufficientData):
        hac_psi(x, bandwidth=5)


@pytest.mark.parametrize("call, message", [
    (lambda x: hac_psi(x, bandwidth=2.5), "bandwidth must be an integer >= 0, got 2.5"),
    (lambda x: hac_psi(x, bandwidth="3"), "bandwidth must be an integer >= 0, got '3'"),
    (lambda x: sample_moments(x, 2.5), "max_lag must be an integer >= 2, got 2.5"),
    (lambda x: hac_psi(x, bandwidth=True), "bandwidth must be an integer >= 0, got True"),
    (lambda x: sample_moments(x, True), "max_lag must be an integer >= 2, got True"),
    (lambda x: sample_moments([["a"]] * 200), "x must be an array of numbers"),
    (lambda x: hac_psi([["a"]] * 200), "x must be an array of numbers"),
], ids=["bandwidth_float", "bandwidth_str", "max_lag_float", "bandwidth_bool", "max_lag_bool",
        "sample_moments_non_numeric_x", "hac_psi_non_numeric_x"])
def test_non_integer_counts_are_refused(rng, call, message):
    with pytest.raises(InvalidInput, match=message):
        call(rng.normal(size=(200, 1)))
