import numpy as np
import pytest
from numpy.testing import assert_allclose

import vechgarch as vg
from vechgarch import linalg
from vechgarch.aggregation import (
    AggregationInput,
    aggregate_data,
    aggregate_params,
    flow_gammas,
    stock_gammas,
)
from vechgarch.exceptions import (
    InvalidInput,
    MissingSigmaW,
)

SCALAR = vg.GarchSpec(d=1, c=[0.1], A=[[0.1]], B=[[0.8]])
EYE1 = np.array([[1.0]])


def ma_coefficients(spec, i):
    """MA(inf) weights of the squared-returns process: Theta_0 = I,
    Theta_i = Phi^{i-1} A."""
    if i == 0:
        return np.eye(spec.dbar)
    return np.linalg.matrix_power(spec.phi, i - 1) @ spec.A


def stock_coefficient(spec, m, i):
    out = ma_coefficients(spec, i).copy()
    if i >= m:
        out -= np.linalg.matrix_power(spec.phi, m) @ ma_coefficients(spec, i - m)
    return out


def flow_coefficient(spec, m, i):
    phi_m = np.linalg.matrix_power(spec.phi, m)
    out = np.zeros((spec.dbar, spec.dbar))
    for j in range(m):
        if i - j >= 0:
            out += ma_coefficients(spec, i - j)
        if i - m - j >= 0:
            out -= phi_m @ ma_coefficients(spec, i - m - j)
    return out


def test_stock_gammas_scalar_by_hand():
    # m = 2 ladder: J0 = 1, J1 = a = 0.1, J2 = -phi b = -0.72, so
    # gamma0 = 1 + 0.01 + 0.5184 and gamma1 = -0.72.
    g0, g1 = stock_gammas(SCALAR, EYE1, 2)
    assert_allclose(g0, [[1.5284]], rtol=1e-12)
    assert_allclose(g1, [[-0.72]], rtol=1e-12)


def test_flow_gammas_scalar_by_hand():
    # m = 2 ladder: (1, 1 + a, a - phi b, -phi b) = (1, 1.1, -0.62, -0.72).
    g0, g1 = flow_gammas(SCALAR, EYE1, 2, sigma_w=np.zeros((1, 1)))
    expect0 = 1.0 + 1.1**2 + 0.62**2 + 0.72**2
    expect1 = (-0.62) * 1.0 + (-0.72) * 1.1
    assert_allclose(g0, [[expect0]], rtol=1e-12)
    assert_allclose(g1, [[expect1]], rtol=1e-12)


@pytest.mark.parametrize("d,m", [(1, 2), (2, 1), (2, 3), (2, 5), (2, 7), (3, 2)])
def test_stock_ladder_against_ma_truncation(d, m, rng):
    spec = vg.random_spec(d, rng)
    sigma = vg.random_sigma(spec.dbar, rng)
    g0, g1 = stock_gammas(spec, sigma, m)
    want0 = sum(stock_coefficient(spec, m, i) @ sigma @ stock_coefficient(spec, m, i).T
                for i in range(m + 1))
    want1 = stock_coefficient(spec, m, m) @ sigma
    assert_allclose(g0, linalg.sym(want0), atol=1e-12 * (1 + np.abs(want0).max()))
    assert_allclose(g1, want1, atol=1e-12 * (1 + np.abs(want1).max()))
    # Coefficients vanish beyond lag m: the aggregate really is MA(1).
    for i in range(m + 1, m + 4):
        assert np.abs(stock_coefficient(spec, m, i)).max() < 1e-12


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 4), (2, 7),
                                 (3, 3)])
def test_flow_ladder_against_ma_truncation(d, m, rng):
    spec = vg.random_spec(d, rng)
    sigma = vg.random_sigma(spec.dbar, rng)
    g0, g1 = flow_gammas(spec, sigma, m, sigma_w=np.zeros((spec.dbar,) * 2))
    want0 = sum(flow_coefficient(spec, m, i) @ sigma @ flow_coefficient(spec, m, i).T
                for i in range(2 * m))
    want1 = sum(flow_coefficient(spec, m, i + m) @ sigma
                @ flow_coefficient(spec, m, i).T for i in range(m))
    assert_allclose(g0, linalg.sym(want0), atol=1e-11 * (1 + np.abs(want0).max()))
    assert_allclose(g1, want1, atol=1e-11 * (1 + np.abs(want1).max()))
    for i in range(2 * m, 2 * m + 4):
        assert np.abs(flow_coefficient(spec, m, i)).max() < 1e-12


def test_stock_aggregate_reproduces_subsampled_autocovariances(ref_spec_d2):
    # The sampled process is the same process observed every m periods, so
    # rebuilding its lag-0/lag-1 moments from (Phi^m, gamma_m) must give
    # back m0 and the original lag-m autocovariance.
    rng = np.random.Generator(np.random.Philox(200))
    sigma = vg.random_sigma(3, rng)
    m = 3
    ms = vg.population_moments(ref_spec_d2, sigma)
    phi_m = np.linalg.matrix_power(ref_spec_d2.phi, m)
    g0, g1 = stock_gammas(ref_spec_d2, sigma, m)
    q = g0 + g1 @ phi_m.T + phi_m @ g1.T
    m0_agg = linalg.dlyap(phi_m, q)
    m1_agg = g1 + phi_m @ m0_agg
    lag_m = np.linalg.matrix_power(ref_spec_d2.phi, m - 1) @ ms.m1
    assert_allclose(m0_agg, ms.m0, atol=1e-10)
    assert_allclose(m1_agg, lag_m, atol=1e-10)


def test_flow_sigma_w_enters_affinely(ref_spec_d2):
    rng = np.random.Generator(np.random.Philox(201))
    sigma = vg.random_sigma(3, rng)
    s1 = 0.3 * vg.random_sigma(3, rng)
    s2 = 0.7 * vg.random_sigma(3, rng)
    zero = np.zeros((3, 3))
    m = 4
    g0_zero, g1_zero = flow_gammas(ref_spec_d2, sigma, m, sigma_w=zero)
    g0_one, g1_one = flow_gammas(ref_spec_d2, sigma, m, sigma_w=s1)
    g0_two, g1_two = flow_gammas(ref_spec_d2, sigma, m, sigma_w=s2)
    g0_sum, g1_sum = flow_gammas(ref_spec_d2, sigma, m, sigma_w=s1 + s2)
    assert_allclose(g0_sum - g0_zero, (g0_one - g0_zero) + (g0_two - g0_zero),
                    atol=1e-12)
    assert_allclose(g1_sum - g1_zero, (g1_one - g1_zero) + (g1_two - g1_zero),
                    atol=1e-12)


@pytest.mark.parametrize("kind", ["stock", "flow"])
@pytest.mark.parametrize("d", [1, 2])
def test_m_equals_one_is_identity(kind, d, rng):
    spec = vg.random_spec(d, rng)
    sigma = vg.random_sigma(spec.dbar, rng)
    agg = aggregate_params(AggregationInput(spec=spec, sigma=sigma, m=1, kind=kind))
    assert np.abs(agg.spec_m.c - spec.c).max() <= 1e-10
    assert np.abs(agg.spec_m.A - spec.A).max() <= 1e-10
    assert np.abs(agg.spec_m.B - spec.B).max() <= 1e-10
    assert np.abs(agg.report.sigma - sigma).max() <= 1e-10


def test_aggregate_params_scalar_stock():
    agg = aggregate_params(AggregationInput(spec=SCALAR, sigma=EYE1, m=2,
                                            kind="stock"))
    b = agg.spec_m.B[0, 0]
    root = np.roots([-0.72, 1.5284, -0.72])
    expected = float(root[np.abs(root) < 1.0][0].real)
    assert abs(b - expected) <= 1e-12
    assert_allclose(agg.spec_m.phi, [[0.81]], atol=1e-12)
    assert_allclose(agg.spec_m.c, [0.19], atol=1e-12)
    assert agg.report.residual_pme <= 1e-10
    assert agg.m == 2 and agg.kind == "stock"


def test_aggregate_params_flow_mean_scales_with_m():
    agg = aggregate_params(AggregationInput(spec=SCALAR, sigma=EYE1, m=3,
                                            kind="flow", sigma_w=np.zeros((1, 1))))
    h_m = vg.uncond_h(agg.spec_m)
    assert_allclose(h_m, 3.0 * vg.uncond_h(SCALAR), rtol=1e-10)


def test_aggregated_b_is_stable(ref_spec_d2):
    rng = np.random.Generator(np.random.Philox(202))
    sigma = vg.random_sigma(3, rng)
    for kind, kwargs in (("stock", {}), ("flow", {"sigma_w": np.eye(3) * 0.1})):
        agg = aggregate_params(AggregationInput(spec=ref_spec_d2, sigma=sigma,
                                                m=4, kind=kind, **kwargs))
        assert linalg.spectral_radius(agg.spec_m.B) < 1.0
        assert agg.report.residual_pme <= 1e-8
        assert agg.report.diagnostics.stationary


def test_aggregation_input_validation(ref_spec_d2):
    sigma = np.eye(3)
    with pytest.raises(InvalidInput):
        AggregationInput(spec=ref_spec_d2, sigma=sigma, m=2, kind="monthly")
    with pytest.raises(InvalidInput):
        AggregationInput(spec=ref_spec_d2, sigma=sigma, m=0, kind="stock")
    for m in (2.7, 2.0, "3"):
        with pytest.raises(InvalidInput, match="integer"):
            AggregationInput(spec=ref_spec_d2, sigma=sigma, m=m, kind="stock")
    with pytest.raises(InvalidInput, match="integer"):
        stock_gammas(ref_spec_d2, sigma, 2.5)
    with pytest.raises(InvalidInput, match="integer"):
        flow_gammas(ref_spec_d2, sigma, 2.5, sigma_w=np.zeros((3, 3)))
    with pytest.raises(InvalidInput):
        AggregationInput(spec=ref_spec_d2, sigma=np.eye(2), m=2, kind="stock")
    with pytest.raises(MissingSigmaW):
        AggregationInput(spec=ref_spec_d2, sigma=sigma, m=2, kind="flow")
    with pytest.raises(InvalidInput):
        AggregationInput(spec=ref_spec_d2, sigma=sigma, m=2, kind="stock",
                         sigma_w=np.eye(3))
    # flow with m = 1 defaults sigma_w to zero
    inp = AggregationInput(spec=ref_spec_d2, sigma=sigma, m=1, kind="flow")
    assert_allclose(inp.sigma_w, 0.0)


def test_aggregate_params_checks_sigma(ref_spec_d2):
    bad = np.eye(3)
    bad = bad.copy()
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(InvalidInput):
        aggregate_params(AggregationInput(spec=ref_spec_d2, sigma=bad, m=2,
                                          kind="stock"))
    with pytest.raises(InvalidInput, match="^sigma is not positive definite"):
        aggregate_params(AggregationInput(spec=ref_spec_d2, sigma=-np.eye(3),
                                          m=2, kind="stock"))


def test_flow_noise_must_be_a_covariance(ref_spec_d2):
    # sigma_w = -0.5 is no covariance, yet it used to aggregate silently
    # (to A = 0.211).
    with pytest.raises(InvalidInput, match="semidefinite"):
        AggregationInput(spec=SCALAR, sigma=EYE1, m=2, kind="flow",
                         sigma_w=np.array([[-0.5]]))
    asymmetric = 0.1 * np.eye(3)
    asymmetric[0, 1] = 0.05
    with pytest.raises(InvalidInput, match="symmetric"):
        AggregationInput(spec=ref_spec_d2, sigma=np.eye(3), m=2, kind="flow",
                         sigma_w=asymmetric)
    with pytest.raises(InvalidInput, match="symmetric"):
        flow_gammas(ref_spec_d2, np.eye(3), 2, sigma_w=asymmetric)
    # Zero and singular semidefinite noise pass.
    singular = np.outer([1.0, 0.5, 0.2], [1.0, 0.5, 0.2])
    for sigma_w in (np.zeros((3, 3)), singular):
        AggregationInput(spec=ref_spec_d2, sigma=np.eye(3), m=2, kind="flow",
                         sigma_w=sigma_w)


def test_gamma_functions_refuse_what_aggregate_params_refuses(ref_spec_d2):
    # stock_gammas and flow_gammas used to return numbers for sigma = -I.
    asymmetric = np.eye(3)
    asymmetric[0, 1] = 0.5
    for gammas, kwargs in ((stock_gammas, {}), (flow_gammas, {"sigma_w": np.zeros((3, 3))})):
        with pytest.raises(InvalidInput, match="^sigma is not positive definite"):
            gammas(ref_spec_d2, -np.eye(3), 2, **kwargs)
        with pytest.raises(InvalidInput, match="^sigma is not symmetric"):
            gammas(ref_spec_d2, asymmetric, 2, **kwargs)


def test_sigma_symmetry_bound_is_the_population_moments_one(ref_spec_d2):
    # Relative asymmetry 1e-10 used to pass the aggregation bound of 1e-8
    # while population_moments refused it.
    nearly = np.eye(3)
    nearly[0, 1] = 1e-10 * (1.0 + np.sqrt(3.0)) / np.sqrt(2.0)
    assert linalg.asymmetry(nearly) == pytest.approx(1e-10, rel=1e-6)
    with pytest.raises(InvalidInput, match="^sigma is not symmetric"):
        vg.population_moments(ref_spec_d2, nearly)
    with pytest.raises(InvalidInput, match="^sigma is not symmetric"):
        AggregationInput(ref_spec_d2, nearly, 2, "stock")
    with pytest.raises(InvalidInput, match="^sigma_w is not symmetric"):
        AggregationInput(ref_spec_d2, np.eye(3), 2, "flow", sigma_w=0.1 * nearly)
    with pytest.raises(InvalidInput, match="^sigma must have shape"):
        AggregationInput(ref_spec_d2, np.eye(2), 2, "stock")
    with pytest.raises(InvalidInput, match="^sigma_w must have shape"):
        flow_gammas(ref_spec_d2, np.eye(3), 2, sigma_w=np.zeros((2, 2)))


def test_aggregate_data_examples():
    y = np.array([[1.0], [2.0], [3.0], [4.0]])
    assert_allclose(aggregate_data(y, 2, kind="stock"), [[2.0], [4.0]])
    assert_allclose(aggregate_data(y, 2, kind="flow"), [[3.0], [7.0]])
    # trailing partial block is dropped
    y5 = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    assert_allclose(aggregate_data(y5, 2, kind="stock"), [[2.0], [4.0]])
    assert_allclose(aggregate_data(y5, 2, kind="flow"), [[3.0], [7.0]])
    assert_allclose(aggregate_data(y5, 1, kind="stock"), y5)


def test_aggregate_data_multicolumn(rng):
    y = rng.normal(size=(10, 2))
    stock = aggregate_data(y, 3, kind="stock")
    assert stock.shape == (3, 2)
    assert_allclose(stock, y[[2, 5, 8]])
    flow = aggregate_data(y, 3, kind="flow")
    assert_allclose(flow[1], y[3:6].sum(axis=0))


def test_aggregate_data_validation():
    with pytest.raises(InvalidInput):
        aggregate_data(np.ones((4, 1)), 0)
    for m in (2.0, 2.5, "2"):
        with pytest.raises(InvalidInput, match="integer"):
            aggregate_data(np.ones((4, 1)), m)
    with pytest.raises(InvalidInput):
        aggregate_data(np.ones((2, 1)), 5)
    with pytest.raises(InvalidInput):
        aggregate_data(np.ones((4, 1)), 2, kind="median")


def test_aggregated_spec_json(ref_spec_d2):
    rng = np.random.Generator(np.random.Philox(203))
    sigma = vg.random_sigma(3, rng)
    agg = aggregate_params(AggregationInput(spec=ref_spec_d2, sigma=sigma, m=2,
                                            kind="stock"))
    payload = agg.to_json()
    assert payload["m"] == 2 and payload["kind"] == "stock"
    assert set(payload) >= {"d", "c", "A", "B", "m", "kind"}


def test_aggregation_with_singular_b(singular_b_model):
    spec, sigma = singular_b_model
    same = aggregate_params(AggregationInput(spec=spec, sigma=sigma, m=1,
                                             kind="stock"))
    for got, want in ((same.spec_m.c, spec.c), (same.spec_m.A, spec.A),
                      (same.spec_m.B, spec.B), (same.report.sigma, sigma)):
        assert np.abs(got - want).max() <= 1e-10
    for kind, kwargs in (("stock", {}), ("flow", {"sigma_w": np.zeros((3, 3))})):
        agg = aggregate_params(AggregationInput(spec=spec, sigma=sigma, m=2,
                                                kind=kind, **kwargs))
        bound = 1e-8 * (1.0 + np.linalg.norm(agg.report.gamma_state.gamma0))
        assert agg.report.residual_pme <= bound
        assert agg.report.residual_nme <= bound
