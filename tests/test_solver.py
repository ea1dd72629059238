import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vechgarch as vg
from vechgarch import linalg, solver
from vechgarch.exceptions import (
    InsufficientData,
    InvalidInput,
    PositivityViolation,
    SingularMatrix,
    UnimodularEigenvalues,
)
from vechgarch.moments import sample_moments
from vechgarch.simulate import simulate, to_x
from vechgarch.solver import (
    GammaState,
    build_p,
    estimate,
    gammas,
    nme_residual,
    phi_lstsq,
    pme_residual,
    recover_sigma,
    solve_b,
)


def stable_scalar_root(g0, g1):
    # gamma1 b^2 + gamma0 b + gamma1 = 0; the roots are reciprocal, keep
    # the one inside the unit circle.
    roots = np.roots([g1, g0, g1])
    stable = roots[np.abs(roots) < 1.0]
    assert stable.size == 1
    return float(stable[0].real)


def random_ma_pair(rng, dbar):
    # (B, Sigma) with rho(B) < 1, B invertible, Sigma positive definite.
    while True:
        b = rng.normal(size=(dbar, dbar))
        b *= rng.uniform(0.2, 0.9) / max(linalg.spectral_radius(b), 1e-12)
        if np.linalg.svd(b, compute_uv=False)[-1] > 0.05:
            break
    sigma = vg.random_sigma(dbar, rng)
    return b, sigma


def gamma_state_of(b, sigma, phi=None):
    dbar = b.shape[0]
    g0 = sigma + b @ sigma @ b.T
    g1 = -b @ sigma
    return GammaState(phi=np.zeros((dbar, dbar)) if phi is None else phi,
                      gamma0=g0, gamma1=g1)


# ---------------------------------------------------------------------------
# gammas / Phi estimation


def test_gammas_scalar_example():
    spec = vg.GarchSpec(d=1, c=[0.1], A=[[0.1]], B=[[0.8]])
    ms = vg.population_moments(spec, np.array([[1.0]]))
    gs = gammas(ms)
    assert_allclose(gs.phi, [[0.9]], rtol=1e-12)
    assert_allclose(gs.gamma0, [[1.64]], rtol=1e-12)
    assert_allclose(gs.gamma1, [[-0.8]], rtol=1e-12)


def test_gammas_recovers_population_structure(rng):
    for d in (1, 2, 3):
        spec = vg.random_spec(d, rng)
        sigma = vg.random_sigma(spec.dbar, rng)
        ms = vg.population_moments(spec, sigma)
        gs = gammas(ms)
        scale = 1.0 + np.abs(sigma).max()
        assert np.abs(gs.phi - spec.phi).max() <= 1e-9
        assert np.abs(gs.gamma0 - (sigma + spec.B @ sigma @ spec.B.T)).max() <= 1e-9 * scale
        assert np.abs(gs.gamma1 - (-spec.B @ sigma)).max() <= 1e-9 * scale


def test_gamma_state_symmetrises_gamma0():
    gs = GammaState(phi=np.eye(2) * 0.5, gamma0=np.array([[1.0, 0.3], [0.1, 1.0]]),
                    gamma1=np.eye(2) * -0.5)
    assert_allclose(gs.gamma0, [[1.0, 0.2], [0.2, 1.0]])
    assert gs.gamma0_asymmetry > 0.0


def test_gamma0_asymmetry_is_not_a_keyword():
    # It is measured from gamma0; a passed value used to be dropped silently.
    with pytest.raises(TypeError, match="gamma0_asymmetry"):
        GammaState(phi=[[0.5]], gamma0=[[1.0]], gamma1=[[0.1]], gamma0_asymmetry=5.0)


def test_singular_m1_mentions_the_stacked_fallback():
    ms = vg.MomentSet(mean=[1.0], m0=[[1.0]], m1=[[0.0]], m2=[[0.0]])
    with pytest.raises(SingularMatrix, match="lags > 1"):
        gammas(ms)


def test_phi_variants_agree_on_population(ref_spec_d2):
    rng = np.random.Generator(np.random.Philox(2))
    sigma = vg.random_sigma(3, rng)
    ms = vg.population_moments(ref_spec_d2, sigma)
    phi = ref_spec_d2.phi
    m3 = phi @ ms.m2
    covs = [ms.m1, ms.m2, m3]
    assert_allclose(phi_lstsq(covs), phi, atol=1e-10)
    # K = 1 least squares on an invertible m1 is plain right division.
    assert_allclose(phi_lstsq([ms.m1, ms.m2]), linalg.rsolve(ms.m2, ms.m1),
                    atol=1e-12)


def test_lag_weight_validation():
    with pytest.raises(InvalidInput):
        phi_lstsq([np.eye(2)])


# ---------------------------------------------------------------------------
# companion matrix and the solvent


def test_build_p_scalar():
    gs = GammaState(phi=[[0.9]], gamma0=[[1.25]], gamma1=[[-0.5]])
    p = build_p(gs)
    assert_allclose(p, [[0.0, 1.0], [-1.0, 2.5]])


def test_build_p_block_layout(rng):
    b, sigma = random_ma_pair(rng, 3)
    gs = gamma_state_of(b, sigma)
    p = build_p(gs)
    assert_allclose(p[:3, :3], 0.0)
    assert_allclose(p[:3, 3:], np.eye(3))
    assert_allclose(gs.gamma1 @ p[3:, :3], -gs.gamma1.T, atol=1e-12)
    assert_allclose(gs.gamma1 @ p[3:, 3:], -gs.gamma0, atol=1e-12)


def test_build_p_needs_invertible_gamma1():
    gs = GammaState(phi=[[0.5]], gamma0=[[1.0]], gamma1=[[0.0]])
    with pytest.raises(SingularMatrix, match="B = 0"):
        build_p(gs)


def test_companion_eigenvalues_pair_up(rng):
    for _ in range(100):
        dbar = int(rng.integers(1, 4))
        b, sigma = random_ma_pair(rng, dbar)
        gs = gamma_state_of(b, sigma)
        moduli = np.sort(np.abs(linalg.eig(build_p(gs)).eigenvalues))
        products = moduli * moduli[::-1]
        assert np.abs(products - 1.0).max() <= 1e-8


def test_solve_b_scalar_example():
    gs = GammaState(phi=[[0.9]], gamma0=[[1.25]], gamma1=[[-0.5]])
    sol = solve_b(gs)
    assert_allclose(sol.b, [[0.5]], rtol=1e-12)
    assert_allclose(np.sort(sol.p_eigenvalues.real), [0.5, 2.0], atol=1e-10)
    rec = recover_sigma(sol.b, gs)
    assert_allclose(rec.sigma, [[1.0]], rtol=1e-12)
    assert rec.nme_residual <= 1e-12


def test_solve_b_round_trip(rng):
    for _ in range(50):
        dbar = int(rng.integers(1, 4))
        b, sigma = random_ma_pair(rng, dbar)
        gs = gamma_state_of(b, sigma)
        sol = solve_b(gs)
        scale = 1.0 + np.abs(b).max()
        assert np.abs(sol.b - b).max() <= 1e-8 * scale
        assert sol.residual_pme <= 1e-8 * (1.0 + np.linalg.norm(gs.gamma0)
                                           + np.linalg.norm(gs.gamma1))
        got = np.sort_complex(sol.b_eigenvalues)
        want = np.sort_complex(np.linalg.eigvals(b).astype(complex))
        assert np.abs(got - want).max() <= 1e-8 * scale
        rec = recover_sigma(sol.b, gs)
        assert np.abs(rec.sigma - sigma).max() <= 1e-8 * (1.0 + np.abs(sigma).max())
        assert rec.nme_residual <= 1e-8 * (1.0 + np.linalg.norm(gs.gamma0))


def test_solve_b_matches_scalar_quadratic(rng):
    for _ in range(200):
        b = float(rng.uniform(0.05, 0.95) * rng.choice([-1.0, 1.0]))
        sigma = float(rng.uniform(0.2, 5.0))
        gs = gamma_state_of(np.array([[b]]), np.array([[sigma]]))
        sol = solve_b(gs)
        root = stable_scalar_root(gs.gamma0[0, 0], gs.gamma1[0, 0])
        assert abs(sol.b[0, 0] - root) <= 1e-10


def test_unimodular_band_raises():
    # gamma0 = 2, gamma1 = -1 puts both companion eigenvalues at exactly 1.
    gs = GammaState(phi=[[0.9]], gamma0=[[2.0]], gamma1=[[-1.0]])
    with pytest.raises(UnimodularEigenvalues):
        solve_b(gs)
    # Complex pair on the circle: b^2 - b + 1 = 0.
    gs2 = GammaState(phi=[[0.9]], gamma0=[[-1.0]], gamma1=[[1.0]])
    with pytest.raises(UnimodularEigenvalues):
        solve_b(gs2)
    # b^2 + 1 = 0 puts the pair at +-i, and A_0 = gamma0 = 0 is singular.
    gs3 = GammaState(phi=[[0.9]], gamma0=[[0.0]], gamma1=[[1.0]])
    with pytest.raises(UnimodularEigenvalues, match="singular"):
        solve_b(gs3)


def test_unimodular_band_is_fixed():
    b, sigma = np.array([[0.98]]), np.array([[1.0]])
    assert_allclose(solve_b(gamma_state_of(b, sigma)).b, b, rtol=1e-10)
    # gamma0 = 1 + b^2, gamma1 = -b with b = 1 - 1e-9: cyclic reduction
    # converges and the band check refuses the solvent.
    near = gamma_state_of(np.array([[1.0 - 1e-9]]), sigma)
    with pytest.raises(UnimodularEigenvalues, match="within 1e-08 of 1"):
        solve_b(near)


def test_recover_sigma_zero_b():
    gs = GammaState(phi=[[0.0, 0.0], [0.0, 0.0]],
                    gamma0=np.array([[2.0, 0.5], [0.5, 1.0]]),
                    gamma1=np.zeros((2, 2)))
    rec = recover_sigma(np.zeros((2, 2)), gs)
    assert_allclose(rec.sigma, gs.gamma0)
    assert rec.nme_residual <= 1e-12


def test_recover_sigma_flags_indefinite():
    # B = 0.5 solves 1 - 2.5 b + b^2 = 0, and Sigma = gamma0 + gamma1 B' =
    # -B^{-1} gamma1 = -2.
    gs = GammaState(phi=[[0.5]], gamma0=[[-2.5]], gamma1=[[1.0]])
    rec = recover_sigma(np.array([[0.5]]), gs)
    assert_allclose(rec.sigma, [[-2.0]])
    assert any(w["code"] == "sigma_not_pd" for w in rec.warnings)


def test_refusals_match_the_companion_spectrum(ref_spec_d1, ref_spec_d2):
    # Small-sample states on both sides of the identifiable region: solve_b
    # refuses exactly where the companion spectrum of build_p has a modulus
    # within the unimodular band, and elsewhere reports that spectrum.
    band = solver._UNIMODULAR_BAND
    refused = accepted = 0
    for spec, n, seeds in ((ref_spec_d1, 200, range(1000, 1150)),
                           (ref_spec_d2, 400, range(1000, 1060))):
        for seed in seeds:
            gs = gammas(sample_moments(to_x(simulate(spec, n, seed=seed).y)))
            companion = linalg.eig(build_p(gs)).eigenvalues
            if (np.abs(np.abs(companion) - 1.0) <= band).any():
                with pytest.raises(UnimodularEigenvalues, match="unit circle"):
                    solve_b(gs)
                refused += 1
                continue
            got = solve_b(gs).p_eigenvalues
            assert np.all(np.diff(np.abs(got)) >= 0.0)
            gap = np.abs(got[:, None] - companion[None, :]) / np.abs(companion)
            assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-10
            accepted += 1
    assert refused >= 10 and accepted >= 100


def test_estimate_round_trip_with_singular_b(singular_b_model):
    # The companion matrix needs gamma1 = -B Sigma invertible; cyclic
    # reduction does not.
    spec, sigma = singular_b_model
    report = estimate(vg.population_moments(spec, sigma))
    assert np.abs(report.spec.c - spec.c).max() <= 1e-10
    assert np.abs(report.spec.A - spec.A).max() <= 1e-10
    assert np.abs(report.spec.B - spec.B).max() <= 1e-10
    assert np.abs(report.sigma - sigma).max() <= 1e-10
    payload = report.to_json()
    assert json.loads(json.dumps(payload)) == payload


def test_zero_b_eigenvalue_has_an_infinite_reciprocal():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    gs = GammaState(phi=np.zeros((2, 2)), gamma0=sigma, gamma1=np.zeros((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_b(gs)
    assert np.array_equal(sol.b, np.zeros((2, 2)))
    assert np.array_equal(sol.p_eigenvalues, [0.0, 0.0, np.inf, np.inf])
    assert_allclose(recover_sigma(sol.b, gs).sigma, sigma)


# ---------------------------------------------------------------------------
# the full pipeline


def test_estimate_round_trip_from_population(ref_spec_d2):
    rng = np.random.Generator(np.random.Philox(10))
    sigma = vg.random_sigma(3, rng)
    ms = vg.population_moments(ref_spec_d2, sigma)
    report = estimate(ms)
    assert np.abs(report.spec.c - ref_spec_d2.c).max() <= 1e-10
    assert np.abs(report.spec.A - ref_spec_d2.A).max() <= 1e-10
    assert np.abs(report.spec.B - ref_spec_d2.B).max() <= 1e-10
    assert np.abs(report.sigma - sigma).max() <= 1e-10
    assert report.residual_pme <= 1e-10
    assert report.residual_nme <= 1e-10
    assert report.diagnostics.stationary


def test_estimate_scalar_agrees_with_quadratic_formula(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 30_000, seed=37).y)
    report = estimate(x)

    from vechgarch.moments import sample_moments

    ms = sample_moments(x)
    phi = ms.m2[0, 0] / ms.m1[0, 0]
    g0 = ms.m0[0, 0] * (1 + phi * phi) - 2 * phi * ms.m1[0, 0]
    g1 = ms.m1[0, 0] - phi * ms.m0[0, 0]
    b = stable_scalar_root(g0, g1)
    assert abs(report.spec.B[0, 0] - b) <= 1e-10
    assert abs(report.spec.A[0, 0] - (phi - b)) <= 1e-10
    assert abs(report.spec.c[0] - (1 - phi) * ms.mean[0]) <= 1e-10
    assert abs(report.sigma[0, 0] - (-g1 / b)) <= 1e-10


def test_estimate_on_simulated_d2_sample(ref_spec_d2):
    x = to_x(simulate(ref_spec_d2, 200_000, seed=41).y)
    report = estimate(x)
    assert np.abs(report.spec.A - ref_spec_d2.A).max() < 0.15
    assert np.abs(report.spec.B - ref_spec_d2.B).max() < 0.15
    assert np.abs(report.spec.c - ref_spec_d2.c).max() < 0.15
    assert report.diagnostics.stationary and report.diagnostics.invertible


def test_estimate_accepts_moment_set_and_raw_data(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 5_000, seed=43).y)
    from vechgarch.moments import sample_moments

    direct = estimate(x)
    via_ms = estimate(sample_moments(x))
    assert_allclose(direct.spec.B, via_ms.spec.B, atol=1e-14)


def test_estimate_stage_labels(monkeypatch):
    with pytest.raises(InsufficientData) as info:
        estimate(np.ones((3, 1)))
    assert info.value.stage == "moments"

    bad = vg.MomentSet(mean=[1.0], m0=[[2.0]], m1=[[-1.0]], m2=[[-0.9]])
    # gamma0/gamma1 ratio lands inside (-2, 2): unimodular pair.
    with pytest.raises(UnimodularEigenvalues) as info:
        estimate(bad)
    assert info.value.stage == "solve_b"

    # An error type with its own __init__ gets its stage too, and the caller
    # sees the very object the stage raised.
    raised = PositivityViolation("x", step=3)

    def fail(gs):
        raise raised

    monkeypatch.setattr(solver, "solve_b", fail)
    with pytest.raises(PositivityViolation) as info:
        estimate(vg.population_moments(vg.GarchSpec(d=1, c=[0.1], A=[[0.1]], B=[[0.8]]),
                                       [[1.0]]))
    assert info.value is raised
    assert (info.value.stage, info.value.step) == ("solve_b", 3)
    assert str(info.value).startswith("[solve_b] ")


def test_estimate_rejects_bad_arguments(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 1_000, seed=47).y)
    with pytest.raises(InvalidInput):
        estimate(x, lags=0)
    with pytest.raises(InvalidInput, match="integer"):
        estimate(x, lags=2.5)
    with pytest.raises(InvalidInput, match="lags=2 needs a MomentSet with max_lag >= 3"):
        estimate(sample_moments(x), lags=2)
    with pytest.raises(InvalidInput):
        estimate(np.ones((100, 2)))  # 2 is not a vech width


def test_estimate_with_extra_lags_runs(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 20_000, seed=53).y)
    base = estimate(x)
    for lags in (2, 3):
        rep = estimate(x, lags=lags)
        assert np.isfinite(rep.spec.B).all()
        assert abs(rep.spec.B[0, 0] - base.spec.B[0, 0]) < 0.2


def test_estimate_lags_pool_by_stacked_least_squares(ref_spec_d2):
    # lags = K alone selects the pooled estimator: Phi is the stacked
    # least-squares solution over m1..m_{K+1}, and the report says so.
    x = to_x(simulate(ref_spec_d2, 5_000, seed=59).y)
    report = estimate(x, lags=3)
    covs = sample_moments(x, 4).covs
    assert_allclose(report.gamma_state.phi, phi_lstsq(covs[1:]), rtol=1e-12)
    assert report.lags == 3


@pytest.mark.parametrize("lags", [2, 3, 4])
def test_pooled_estimate_reads_its_moments_from_one_pass(ref_spec_d2, lags):
    # The MomentSet holds the lag-0..K+1 autocovariances; its m0..m2 are
    # bitwise the default sample_moments', and the pooled Phi is the
    # stacked least squares over its m1..m_{K+1}.
    x = to_x(simulate(ref_spec_d2, 3_000, seed=61).y)
    report = estimate(x, lags=lags)
    ms = sample_moments(x)
    assert report.moments.max_lag == lags + 1
    for name in ("mean", "m0", "m1", "m2"):
        assert np.array_equal(getattr(report.moments, name), getattr(ms, name)), name
    covs = sample_moments(x, lags + 1).covs
    assert np.array_equal(report.gamma_state.phi, phi_lstsq(covs[1:]))
    assert report.lags == lags


def _deep_population_moments(spec, sigma, max_lag):
    """``population_moments`` extended by ``m_{k+1} = Phi m_k``."""
    ms = vg.population_moments(spec, sigma)
    covs = list(ms.covs)
    while len(covs) <= max_lag:
        covs.append(spec.phi @ covs[-1])
    return vg.MomentSet(mean=ms.mean, m0=covs[0], m1=covs[1], m2=covs[2],
                        higher=covs[3:])


@pytest.mark.parametrize("lags", [2, 4, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pooled_estimate_round_trips_population_moments(
        ref_spec_d1, ref_spec_d2, ref_spec_d3, d, lags):
    # At exact moments every lag identity holds, so pooling K of them gives
    # back (c, A, B, Sigma) within the acceptance suite's round-trip bound.
    spec = {1: ref_spec_d1, 2: ref_spec_d2, 3: ref_spec_d3}[d]
    sigma = vg.random_sigma(spec.dbar, np.random.Generator(np.random.Philox(10 + d)))
    report = estimate(_deep_population_moments(spec, sigma, lags + 1), lags=lags)
    err = max(np.abs(report.spec.c - spec.c).max(), np.abs(report.spec.A - spec.A).max(),
              np.abs(report.spec.B - spec.B).max(), np.abs(report.sigma - sigma).max())
    assert err <= 1e-8
    assert report.lags == lags


def test_shallow_moment_set_is_refused_by_name(ref_spec_d2):
    sigma = vg.random_sigma(3, np.random.Generator(np.random.Philox(12)))
    ms = _deep_population_moments(ref_spec_d2, sigma, 4)
    estimate(ms, lags=3)
    with pytest.raises(InvalidInput, match="^lags=4 needs a MomentSet with max_lag >= 5, "
                                           "got max_lag 4$"):
        estimate(ms, lags=4)


def _assert_same_fit(one, two):
    for name in ("c", "A", "B"):
        assert np.array_equal(getattr(one.spec, name), getattr(two.spec, name)), name
    for name in ("sigma", "p_eigenvalues", "b_eigenvalues"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
    assert (one.residual_pme, one.residual_nme, one.lags) == \
        (two.residual_pme, two.residual_nme, two.lags)
    for name in ("phi", "gamma0", "gamma1"):
        assert np.array_equal(getattr(one.gamma_state, name), getattr(two.gamma_state, name))


@pytest.mark.parametrize("lags", [2, 4])
def test_pooled_estimate_from_sample_moments_matches_the_sample(ref_spec_d2, lags):
    x = to_x(simulate(ref_spec_d2, 3_000, seed=67).y)
    _assert_same_fit(estimate(sample_moments(x, lags + 1), lags=lags), estimate(x, lags=lags))


def test_lag_one_fit_ignores_deeper_moments(ref_spec_d2):
    # n = 2e4, as the benchmark's fits: at 3000 draws the lag-1 ratio can
    # land on the unit circle and both calls refuse alike.
    x = to_x(simulate(ref_spec_d2, 20_000, seed=71).y)
    _assert_same_fit(estimate(sample_moments(x, 5)), estimate(x))


def test_estimate_refuses_explosive_phi():
    ms = vg.MomentSet(mean=[1.0], m0=[[2.0]], m1=[[1.9]], m2=[[2.0]])
    with pytest.raises(UnimodularEigenvalues):
        estimate(ms)


def test_estimate_notes_gamma0_symmetrisation(ref_spec_d2):
    rng = np.random.Generator(np.random.Philox(12))
    sigma = vg.random_sigma(3, rng)
    ms = vg.population_moments(ref_spec_d2, sigma)
    bump = np.zeros((3, 3))
    bump[0, 1] = 1e-4
    skewed = vg.MomentSet(mean=ms.mean, m0=ms.m0 + bump, m1=ms.m1, m2=ms.m2)
    report = estimate(skewed)
    codes = {w["code"] for w in report.diagnostics.warnings}
    assert "gamma0_symmetrized" in codes


def test_estimate_report_json(ref_spec_d1):
    x = to_x(simulate(ref_spec_d1, 5_000, seed=59).y)
    payload = estimate(x).to_json()
    assert set(payload) >= {"spec", "sigma", "p_eigenvalues", "b_eigenvalues",
                            "residual_pme", "residual_nme", "diagnostics"}
    assert len(payload["p_eigenvalues"]) == 2
    assert {"re", "im"} == set(payload["p_eigenvalues"][0])
