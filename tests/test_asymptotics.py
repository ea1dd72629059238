import numpy as np
import pytest
from numpy.testing import assert_allclose

import vechgarch as vg
from vechgarch import linalg
from vechgarch.asymptotics import (
    JacobianState,
    jacobian_action,
    jacobian_matrix,
    param_names,
    standard_errors,
    xi,
)
from vechgarch.exceptions import InvalidInput
from vechgarch.moments import PsiEstimate, hac_psi, sample_moments
from vechgarch.simulate import simulate, to_x
from vechgarch.solver import estimate, gammas, recover_sigma, solve_b


def pipeline_lambda(ms):
    """Moment set -> (c, vec A, vec B), the map the Jacobian differentiates."""
    gs = gammas(ms)
    sol = solve_b(gs)
    a = gs.phi - sol.b
    c = (np.eye(ms.dbar) - gs.phi) @ ms.mean
    return np.concatenate([c, linalg.vec(a), linalg.vec(sol.b)])


def pack(ms):
    return np.concatenate([ms.mean, linalg.vec(ms.m0), linalg.vec(ms.m1),
                           linalg.vec(ms.m2)])


def unpack(vec, k):
    mean = vec[:k]
    mats = [linalg.unvec(vec[k + i * k * k : k + (i + 1) * k * k], k, k)
            for i in range(3)]
    return vg.MomentSet(mean=mean, m0=mats[0], m1=mats[1], m2=mats[2])


def finite_difference_jacobian(ms):
    m = pack(ms)
    k = ms.dbar
    base = pipeline_lambda(ms)
    jac = np.empty((base.size, m.size))
    for i in range(m.size):
        step = 1e-6 * (1.0 + abs(m[i]))
        up, down = m.copy(), m.copy()
        up[i] += step
        down[i] -= step
        jac[:, i] = (pipeline_lambda(unpack(up, k)) -
                     pipeline_lambda(unpack(down, k))) / (2.0 * step)
    return jac


def population_state(spec, sigma):
    ms = vg.population_moments(spec, sigma)
    return ms, JacobianState.from_moments(ms)


@pytest.mark.parametrize("d", [1, 2])
def test_jacobian_matches_finite_differences(d):
    rng = np.random.Generator(np.random.Philox(100 + d))
    spec = vg.random_spec(d, rng)
    sigma = vg.random_sigma(spec.dbar, rng)
    ms, js = population_state(spec, sigma)
    analytic = jacobian_matrix(js)
    numeric = finite_difference_jacobian(ms)
    rel = np.abs(analytic - numeric) / (1.0 + np.abs(numeric))
    assert rel.max() < 1e-6


def test_jacobian_scalar_symbolic_oracle():
    # Independent derivation: run the whole scalar pipeline in sympy and
    # differentiate the closed-form expressions exactly.
    sympy = pytest.importorskip("sympy")

    h, m0, m1, m2 = sympy.symbols("h m0 m1 m2", positive=True)
    phi = m2 / m1
    g0 = m0 - 2 * phi * m1 + phi**2 * m0
    g1 = m1 - phi * m0
    b = (-g0 + sympy.sqrt(g0**2 - 4 * g1**2)) / (2 * g1)
    lam = [(1 - phi) * h, phi - b, b]

    point = {h: sympy.Integer(1), m0: sympy.Rational(20, 19),
             m1: sympy.Rational(14, 95), m2: sympy.Rational(63, 475)}
    expected = np.array([
        [float(sympy.diff(expr, var).subs(point)) for var in (h, m0, m1, m2)]
        for expr in lam
    ])

    spec = vg.GarchSpec(d=1, c=[0.1], A=[[0.1]], B=[[0.8]])
    ms, js = population_state(spec, np.array([[1.0]]))
    # Make sure sympy's root branch is the stable one at this point.
    assert float(b.subs(point)) == pytest.approx(0.8, abs=1e-12)
    assert_allclose(jacobian_matrix(js), expected, rtol=1e-9, atol=1e-12)


def test_jacobian_action_is_linear(ref_spec_d2):
    rng = np.random.Generator(np.random.Philox(104))
    sigma = vg.random_sigma(3, rng)
    _, js = population_state(ref_spec_d2, sigma)
    d1 = [rng.normal(size=3), rng.normal(size=(3, 3)),
          rng.normal(size=(3, 3)), rng.normal(size=(3, 3))]
    d2 = [rng.normal(size=3), rng.normal(size=(3, 3)),
          rng.normal(size=(3, 3)), rng.normal(size=(3, 3))]
    lhs = jacobian_action(js, *(a + b for a, b in zip(d1, d2)))
    one = jacobian_action(js, *d1)
    two = jacobian_action(js, *d2)
    for left, u, v in zip(lhs, one, two):
        assert_allclose(left, u + v, atol=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_jacobian_matrix_columns_are_single_directions(d):
    rng = np.random.Generator(np.random.Philox(110 + d))
    spec = vg.random_spec(d, rng)
    _, js = population_state(spec, vg.random_sigma(spec.dbar, rng))
    k = js.dbar
    jac = jacobian_matrix(js)
    assert jac.shape == (k + 2 * k * k, k + 3 * k * k)
    for i, e in enumerate(np.eye(k + 3 * k * k)):
        dm = [linalg.unvec(e[k + s * k * k : k + (s + 1) * k * k], k, k) for s in range(3)]
        dc, da, db = jacobian_action(js, e[:k], *dm)
        assert dc.shape == (k,) and da.shape == db.shape == (k, k)
        column = np.concatenate([dc, linalg.vec(da), linalg.vec(db)])
        assert_allclose(jac[:, i], column, rtol=0, atol=1e-12 * np.abs(jac).max())


def test_jacobian_action_batches_directions(ref_spec_d2):
    rng = np.random.Generator(np.random.Philox(105))
    _, js = population_state(ref_spec_d2, vg.random_sigma(3, rng))
    dirs = [rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 3, 3)),
            rng.normal(size=(2, 4, 3, 3)), rng.normal(size=(2, 4, 3, 3))]
    batched = jacobian_action(js, *dirs)
    assert [a.shape for a in batched] == [(2, 4, 3), (2, 4, 3, 3), (2, 4, 3, 3)]
    for idx in np.ndindex(2, 4):
        single = jacobian_action(js, *(a[idx] for a in dirs))
        for many, one in zip(batched, single):
            assert_allclose(many[idx], one, rtol=0, atol=1e-12 * (1.0 + np.abs(one).max()))


def test_param_names_order():
    assert param_names(1) == ["c[0]", "A[0][0]", "B[0][0]"]
    names = param_names(2)
    assert len(names) == 3 + 9 + 9
    assert names[:3] == ["c[0]", "c[1]", "c[2]"]
    # vec order: column index moves slowest.
    assert names[3:6] == ["A[0][0]", "A[1][0]", "A[2][0]"]
    assert names[12:15] == ["B[0][0]", "B[1][0]", "B[2][0]"]


def test_xi_shapes_and_clipping():
    jac = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    report = xi(jac, PsiEstimate(psi=np.diag([1.0, 1.0, 1.0, -1.0]), bandwidth=0), n=400)
    assert report.clipped
    assert_allclose(report.xi, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert_allclose(report.std_errors, [0.05, 0.05, 0.0], atol=1e-12)
    assert report.param_names == ["c[0]", "A[0][0]", "B[0][0]"]

    wrapped = xi(jac, PsiEstimate(psi=np.eye(4), bandwidth=7), n=100)
    assert wrapped.bandwidth == 7
    assert not wrapped.clipped

    with pytest.raises(InvalidInput, match="psi must be a PsiEstimate"):
        xi(jac, np.eye(4), n=100)
    with pytest.raises(InvalidInput):
        xi(jac, PsiEstimate(psi=np.eye(5), bandwidth=0), n=100)
    with pytest.raises(InvalidInput):
        xi(jac, PsiEstimate(psi=np.eye(4), bandwidth=0), n=0)
    with pytest.raises(InvalidInput):
        # 4 rows is no dbar + 2 dbar^2
        xi(np.ones((4, 4)), PsiEstimate(psi=np.eye(4), bandwidth=0), n=10)


def test_standard_errors_end_to_end(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 40_000, seed=61).y)
    report = standard_errors(estimate(x), x)
    assert report.n == x.shape[0]
    from vechgarch.moments import default_bandwidth

    assert report.bandwidth == default_bandwidth(x.shape[0])
    assert (report.std_errors > 0.0).all()
    assert (report.std_errors < 1.0).all()

    with pytest.raises(InvalidInput, match="bandwidth must be an integer >= 0, got 2.5"):
        standard_errors(estimate(x), x, bandwidth=2.5)


@pytest.mark.parametrize("spec_name", ["ref_spec_d2", "ref_spec_d3"])
def test_hac_standard_errors_need_no_clip(spec_name, request):
    # The HAC Psi is a Gram product, so J Psi J' is positive semidefinite
    # and, on these fits, comfortably positive definite: xi clips nothing.
    x = to_x(simulate(request.getfixturevalue(spec_name), 20_000, seed=701).y)
    report = standard_errors(estimate(x), x)
    assert report.clipped is False
    assert np.linalg.eigvalsh(report.xi).min() > 0.0


def test_standard_errors_shrink_with_n(ref_spec_d1):
    small = to_x(simulate(ref_spec_d1, 10_000, seed=67).y)
    large = to_x(simulate(ref_spec_d1, 80_000, seed=67).y)
    se_small = standard_errors(estimate(small), small).std_errors
    se_large = standard_errors(estimate(large), large).std_errors
    assert (se_large < se_small).all()


def test_report_json_names_errors(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 8_000, seed=71).y)
    payload = standard_errors(estimate(x), x).to_json()
    assert set(payload["std_errors"]) == {"c[0]", "A[0][0]", "B[0][0]"}
    assert payload["n"] == 8_000
    assert payload["caveats"]


def test_standard_errors_reuse_the_fitted_state(ref_spec_d1):
    # The report's stored state is the one from_moments builds, so the two
    # routes to the delta method agree bit for bit.
    x = to_x(simulate(ref_spec_d1, 8_000, seed=73).y)
    via_report = standard_errors(estimate(x), x)
    js = JacobianState.from_moments(sample_moments(x))
    direct = xi(jacobian_matrix(js), hac_psi(x), x.shape[0])
    assert np.array_equal(via_report.xi, direct.xi)
    assert np.array_equal(via_report.std_errors, direct.std_errors)


def test_standard_errors_refuse_pooled_lags(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 8_000, seed=83).y)
    report = estimate(x, lags=3)
    with pytest.raises(InvalidInput, match="pools 3 lag identities"):
        standard_errors(report, x)


def test_standard_errors_refuse_aggregation_report(ref_spec_d1):
    agg = vg.aggregate_params(vg.AggregationInput(ref_spec_d1, np.eye(1), 2, "stock"))
    with pytest.raises(InvalidInput, match="aggregation report"):
        standard_errors(agg.report, np.ones((100, 1)))


def test_jacobian_norm_grows_with_persistence():
    norms = []
    for b in (0.5, 0.9, 0.99):
        a = (1.0 - b) / 2.0
        c = 1.0 - a - b
        spec = vg.GarchSpec(d=1, c=[c], A=[[a]], B=[[b]])
        _, js = population_state(spec, np.array([[1.0]]))
        norms.append(np.linalg.norm(jacobian_matrix(js)))
    assert norms[0] < norms[1] < norms[2]
