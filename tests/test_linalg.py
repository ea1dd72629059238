import numpy as np
import pytest
from numpy.testing import assert_allclose

import vechgarch as vg
from vechgarch import linalg
from vechgarch.exceptions import (
    InvalidInput,
    NotPositiveDefinite,
    SingularLyapunov,
    SingularMatrix,
)


class TestVech:
    def test_2x2(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert_allclose(linalg.vech(m), [1.0, 2.0, 3.0])

    def test_3x3_goes_column_by_column(self):
        m = np.array([
            [1.0, 2.0, 4.0],
            [2.0, 3.0, 5.0],
            [4.0, 5.0, 6.0],
        ])
        assert_allclose(linalg.vech(m), [1.0, 2.0, 4.0, 3.0, 5.0, 6.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            linalg.vech(np.array([[1.0, 2.0], [0.0, 3.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_round_trip(self, d, rng):
        m = rng.normal(size=(d, d))
        m = m + m.T
        assert_allclose(linalg.unvech(linalg.vech(m)), m)
        v = rng.normal(size=d * (d + 1) // 2)
        assert_allclose(linalg.vech(linalg.unvech(v)), v)

    def test_dims(self):
        assert [linalg.vech_dim(d) for d in (1, 2, 3, 4)] == [1, 3, 6, 10]
        for d in range(1, 9):
            assert linalg.mat_dim(linalg.vech_dim(d)) == d
        with pytest.raises(InvalidInput):
            linalg.mat_dim(4)
        with pytest.raises(InvalidInput):
            linalg.vech_dim(0)


def test_vec_stacks_columns():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(linalg.vec(m), [1.0, 3.0, 2.0, 4.0])
    assert_allclose(linalg.unvec(linalg.vec(m), 2, 2), m)


def test_sym_and_asymmetry():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert_allclose(linalg.sym(m), [[1.0, 1.0], [1.0, 1.0]])
    assert linalg.asymmetry(linalg.sym(m)) == 0.0
    assert linalg.asymmetry(m) > 0.1


def test_eig_known_companion():
    dec = linalg.eig(np.array([[0.0, 1.0], [-1.0, 2.5]]))
    assert_allclose(sorted(dec.eigenvalues.real), [0.5, 2.0], atol=1e-12)
    assert np.abs(dec.eigenvalues.imag).max() < 1e-12


def test_eig_residual_bound(rng):
    # ||A v - lambda v|| <= 1e-10 (1 + ||A||) per eigenpair, across sizes.
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        a = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
        dec = linalg.eig(a)
        res = a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.abs(res).max() <= 1e-10 * (1.0 + np.linalg.norm(a))


def test_spectral_radius():
    assert_allclose(linalg.spectral_radius(np.diag([0.2, -0.7])), 0.7)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert_allclose(linalg.spectral_radius(rot), 1.0)


class TestDlyap:
    def test_scalar_value(self):
        # x = q / (1 - b^2) = 0.75 / 0.75 = 1
        x = linalg.dlyap(np.array([[0.5]]), np.array([[0.75]]))
        assert_allclose(x, [[1.0]], rtol=1e-13)

    def test_residual_and_symmetry(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            b = rng.normal(size=(n, n))
            b *= rng.uniform(0.1, 0.99) / max(linalg.spectral_radius(b), 1e-12)
            w = rng.normal(size=(n, n))
            q = w + w.T
            x = linalg.dlyap(b, q)
            res = x - b @ x @ b.T - q
            assert np.abs(res).max() <= 1e-12 * (1.0 + np.abs(q).max())
            assert linalg.asymmetry(x) <= 1e-12

    def test_unstable_rejected(self):
        with pytest.raises(SingularLyapunov):
            linalg.dlyap(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(SingularLyapunov):
            linalg.dlyap(np.array([[0.0, -1.2], [1.2, 0.0]]), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            linalg.dlyap(np.eye(2), np.eye(3))
        with pytest.raises(InvalidInput):
            linalg.dlyap(np.eye(2), np.zeros((4, 3, 3)))

    @pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
    def test_stack_matches_per_slice_solves(self, rng, lead):
        n = 3
        b = rng.normal(size=(n, n))
        b *= 0.9 / linalg.spectral_radius(b)
        q = rng.normal(size=lead + (n, n))
        # Every other slice symmetric: only those get symmetrised.
        flat = q.reshape(-1, n, n)
        flat[::2] = linalg.sym(flat[::2])
        x = linalg.dlyap(b, q)
        assert x.shape == q.shape
        for got, rhs in zip(x.reshape(-1, n, n), flat):
            want = linalg.dlyap(b, rhs)
            assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
            assert (linalg.asymmetry(got) == 0.0) == (linalg.asymmetry(rhs) == 0.0)

    def test_stack_refused_like_one_matrix(self):
        b = np.array([[0.0, -1.2], [1.2, 0.0]])
        with pytest.raises(SingularLyapunov):
            linalg.dlyap(b, np.stack([np.eye(2)] * 3))
        with pytest.raises(SingularLyapunov):
            linalg.dlyap(np.array([[1.0]]), np.ones((4, 1, 1)))


def test_stacked_vec_unvec_sym(rng):
    m = rng.normal(size=(4, 2, 3))
    v = linalg.vec(m)
    assert v.shape == (4, 6)
    for got, one in zip(v, m):
        assert_allclose(got, linalg.vec(one))
    assert_allclose(linalg.unvec(v, 2, 3), m)
    s = rng.normal(size=(3, 4, 4))
    for got, one in zip(linalg.sym(s), s):
        assert_allclose(got, linalg.sym(one))
    gaps = linalg.asymmetry(s)
    assert gaps.shape == (3,)
    assert_allclose(gaps, [linalg.asymmetry(one) for one in s], rtol=1e-14)


def test_cholesky_factor(rng):
    w = rng.normal(size=(4, 4))
    s = w @ w.T + 4.0 * np.eye(4)
    lo = linalg.cholesky(s)
    assert_allclose(lo @ lo.T, s, atol=1e-12 * np.abs(s).max())
    assert_allclose(np.triu(lo, 1), 0.0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_solve_rsolve_lstsq(rng):
    a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    b = rng.normal(size=(4, 3))
    x = linalg.solve(a, b)
    assert_allclose(a @ x, b, atol=1e-10)

    c = rng.normal(size=(3, 4))
    y = linalg.rsolve(c, a)
    assert_allclose(y @ a, c, atol=1e-10)

    # Square invertible design: least squares and exact right division agree.
    z = linalg.lstsq(a, c)
    assert_allclose(z, y, atol=1e-10)


def test_lstsq_wide_design(rng):
    # 2 x 5 design of rank 2: residual must be orthogonal to the row space.
    a = rng.normal(size=(2, 5))
    b = rng.normal(size=(3, 5))
    x = linalg.lstsq(a, b)
    assert x.shape == (3, 2)
    assert_allclose((x @ a - b) @ a.T, 0.0, atol=1e-10)


@pytest.mark.parametrize("lead", [(), (1,), (6,), (2, 3)])
def test_rsolve_stack_matches_per_slice_solves(rng, lead):
    a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    b = rng.normal(size=lead + (3, 4))
    x = linalg.rsolve(b, a)
    assert x.shape == b.shape
    for got, rhs in zip(x.reshape(-1, 3, 4), b.reshape(-1, 3, 4)):
        assert_allclose(got, linalg.rsolve(rhs, a), rtol=0, atol=1e-13)


def test_singular_inputs_raise():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linalg.rsolve(np.ones((5, 2, 2)), singular)
    with pytest.raises(InvalidInput):
        linalg.rsolve(np.ones((3, 4)), np.eye(2))
    with pytest.raises(SingularMatrix):
        linalg.solve(singular, np.eye(2))
    with pytest.raises(SingularMatrix):
        linalg.rsolve(np.eye(2), singular)
    with pytest.raises(SingularMatrix):
        linalg.lstsq(np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(InvalidInput):
        linalg.solve(np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2))


def test_power_sequence():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    powers = linalg.power_sequence(m, 3)
    assert len(powers) == 4
    assert_allclose(powers[0], np.eye(2))
    assert_allclose(powers[1], m)
    assert_allclose(powers[2], 0.0)
    assert_allclose(powers[3], 0.0)


# Every array and count a public function takes from its caller goes through
# linalg._as_array or linalg._as_count; these rows cover the modules without
# a refusal table of their own.
NON_NUMERIC = [["a"]]
SCALAR = vg.GarchSpec(d=1, c=[0.1], A=[[0.1]], B=[[0.8]])


def _scalar_fit():
    return vg.estimate(vg.population_moments(SCALAR, [[1.0]]))


def _scalar_jacobian():
    return vg.jacobian_matrix(vg.JacobianState.from_moments(_scalar_fit().moments))


@pytest.mark.parametrize("call, message", [
    (lambda: linalg.vech(NON_NUMERIC), "m must be an array of numbers"),
    (lambda: linalg.unvech(["a"]), "v must be an array of numbers"),
    (lambda: linalg.dlyap(NON_NUMERIC, [[1.0]]), "B must be an array of numbers"),
    (lambda: linalg.dlyap([[0.5]], NON_NUMERIC), "Q must be an array of numbers"),
    (lambda: vg.to_x(NON_NUMERIC), "y must be an array of numbers"),
    (lambda: vg.GammaState(phi=NON_NUMERIC, gamma0=[[1.0]], gamma1=[[0.1]]),
     "phi must be an array of numbers"),
    (lambda: vg.aggregate_data(NON_NUMERIC, 1), "y must be an array of numbers"),
    (lambda: vg.aggregate_data([[0.1], [np.nan]], 1), "y contains non-finite entries"),
    (lambda: vg.aggregate_data(np.ones((4, 1)), True), "m must be an integer >= 1, got True"),
    (lambda: vg.AggregationInput(SCALAR, [[1.0]], True), "m must be an integer >= 1, got True"),
    (lambda: vg.estimate(_scalar_fit().moments, lags=True),
     "lags must be an integer >= 1, got True"),
    (lambda: vg.standard_errors(_scalar_fit(), NON_NUMERIC), "x must be an array of numbers"),
    (lambda: vg.xi(_scalar_jacobian(), vg.PsiEstimate(psi=np.eye(4), bandwidth=0), True),
     "n must be an integer >= 1, got True"),
    (lambda: vg.xi(_scalar_jacobian(), vg.PsiEstimate(psi=np.eye(4), bandwidth=0), 2.5),
     "n must be an integer >= 1, got 2.5"),
], ids=["vech", "unvech", "dlyap_b", "dlyap_q", "to_x", "gamma_state", "aggregate_data",
        "aggregate_data_nan", "aggregate_data_m_bool", "aggregation_input_m_bool",
        "estimate_lags_bool", "standard_errors", "xi_n_bool", "xi_n_float"])
def test_malformed_inputs_are_refused(call, message):
    with pytest.raises(InvalidInput, match=f"^{message}"):
        call()


def test_numpy_integer_counts_come_back_as_int(rng):
    i = np.int64
    x = rng.normal(size=(200, 1))
    psi = vg.hac_psi(x, bandwidth=i(3))
    counts = [
        vg.estimate(_scalar_fit().moments, lags=i(1)).lags,
        vg.GarchSpec(d=i(1), c=[0.1], A=[[0.1]], B=[[0.8]]).d,
        vg.AggregationInput(SCALAR, [[1.0]], i(2)).m,
        psi.bandwidth,
        vg.xi(_scalar_jacobian(), vg.PsiEstimate(psi=np.eye(4), bandwidth=i(0)), i(10)).n,
    ]
    assert [type(c) for c in counts] == [int] * 5
    assert counts == [1, 1, 2, 3, 10]
