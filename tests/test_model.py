import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vechgarch as vg
from vechgarch import linalg
from vechgarch.exceptions import InvalidInput, NonStationary

SCALAR = vg.GarchSpec(d=1, c=np.array([0.1]), A=np.array([[0.1]]), B=np.array([[0.8]]))


def test_spec_validation():
    with pytest.raises(InvalidInput):
        vg.GarchSpec(d=0, c=[], A=[[]], B=[[]])
    with pytest.raises(InvalidInput):
        vg.GarchSpec(d=2, c=[0.1, 0.1], A=np.eye(3) * 0.1, B=np.eye(3) * 0.1)
    with pytest.raises(InvalidInput):
        vg.GarchSpec(d=1, c=[np.nan], A=[[0.1]], B=[[0.1]])
    # d must be an integer, not truncated to one; numpy integers count.
    for d in (1.9, 1.0, "1"):
        with pytest.raises(InvalidInput, match=re.escape(f"d must be an integer >= 1, got {d!r}")):
            vg.GarchSpec(d=d, c=[0.1], A=[[0.1]], B=[[0.1]])
    spec = vg.GarchSpec(d=np.int64(1), c=[0.1], A=[[0.1]], B=[[0.1]])
    assert type(spec.d) is int and spec.d == 1


def test_spec_json_round_trip(ref_spec_d2):
    data = ref_spec_d2.to_json()
    assert sorted(data) == ["A", "B", "c", "d"]
    back = vg.GarchSpec.from_json(data)
    assert back.d == ref_spec_d2.d
    assert_allclose(back.c, ref_spec_d2.c)
    assert_allclose(back.A, ref_spec_d2.A)
    assert_allclose(back.B, ref_spec_d2.B)
    with pytest.raises(InvalidInput):
        vg.GarchSpec.from_json({"d": 1, "c": [0.1]})
    for bad in ([1, 2], "spec", None):
        with pytest.raises(InvalidInput, match="spec JSON must be an object"):
            vg.GarchSpec.from_json(bad)


def _moment_set(*higher):
    return vg.MomentSet(mean=[1.0], m0=[[1.0]], m1=[[0.5]], m2=[[0.25]], higher=higher)


@pytest.mark.parametrize("make, message", [
    (lambda: vg.GarchSpec.from_json({"d": 1, "c": ["x"], "A": [[0.1]], "B": [[0.6]]}),
     "c must be an array of numbers"),
    (lambda: vg.GarchSpec(d=2, c=[0.1] * 3, A=[[0.1, 0, 0], [0, 0.1], [0, 0, 0.1]],
                          B=np.eye(3) * 0.5), "A must be an array of numbers"),
    (lambda: vg.MomentSet(mean=[1.0], m0=[["a"]], m1=[[0.1]], m2=[[0.1]]),
     "m0 must be an array of numbers"),
    (lambda: vg.MomentSet(mean=["a"], m0=[[1.0]], m1=[[0.1]], m2=[[0.1]]),
     "mean must be an array of numbers"),
    (lambda: _moment_set([[0.1]], [[np.nan]]), "m4 contains non-finite entries"),
    (lambda: _moment_set([[0.1]], [[np.inf]]), "m4 contains non-finite entries"),
    (lambda: _moment_set([0.1]), r"m3 must have shape \(1, 1\), got \(1,\)"),
    (lambda: _moment_set([[0.1]], np.eye(2)), r"m4 must have shape \(1, 1\), got \(2, 2\)"),
    (lambda: vg.GarchSpec(d=True, c=[0.1], A=[[0.1]], B=[[0.6]]),
     "d must be an integer >= 1, got True"),
], ids=["non_numeric_c", "ragged_A", "non_numeric_m0", "non_numeric_mean",
        "nan_higher", "inf_higher", "flat_higher", "wide_higher", "bool_d"])
def test_malformed_numbers_are_refused(make, message):
    with pytest.raises(InvalidInput, match=f"^{message}"):
        make()


def test_moment_set_depth():
    ms = _moment_set([[0.125]], [[0.0625]])
    assert (ms.max_lag, len(ms.covs), type(ms.higher)) == (4, 5, tuple)
    assert [m[0, 0] for m in ms.covs] == [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert _moment_set().max_lag == 2


def test_phi_is_a_plus_b(ref_spec_d2):
    assert_allclose(ref_spec_d2.phi, ref_spec_d2.A + ref_spec_d2.B)


def test_uncond_h_scalar():
    spec = vg.GarchSpec(d=1, c=np.array([0.05]), A=np.array([[0.15]]),
                        B=np.array([[0.80]]))
    assert_allclose(vg.uncond_h(spec), [1.0], rtol=1e-14)


def test_uncond_h_requires_stationarity():
    spec = vg.GarchSpec(d=1, c=[0.1], A=[[0.5]], B=[[0.5]])
    with pytest.raises(NonStationary):
        vg.uncond_h(spec)


def test_population_moments_scalar_values():
    # a = 0.1, b = 0.8, sigma = 1:  h = 1, m0 = 20/19, m1 = 2.8/19,
    # m2 = 0.9 * m1 (worked out by hand from the lag identities).
    ms = vg.population_moments(SCALAR, np.array([[1.0]]))
    assert_allclose(ms.mean, [1.0], rtol=1e-12)
    assert_allclose(ms.m0, [[20.0 / 19.0]], rtol=1e-12)
    assert_allclose(ms.m1, [[2.8 / 19.0]], rtol=1e-12)
    assert_allclose(ms.m2, [[2.52 / 19.0]], rtol=1e-12)


def test_population_moments_lag_identities(rng):
    for d in (1, 2, 3):
        spec = vg.random_spec(d, rng)
        sigma = vg.random_sigma(spec.dbar, rng)
        ms = vg.population_moments(spec, sigma)
        p = spec.phi
        gamma0 = sigma + spec.B @ sigma @ spec.B.T
        gamma1 = -spec.B @ sigma
        scale = 1.0 + np.abs(ms.m0).max()
        assert np.abs(ms.m1 - (gamma1 + p @ ms.m0)).max() <= 1e-10 * scale
        assert np.abs(ms.m2 - p @ ms.m1).max() <= 1e-10 * scale
        recon = ms.m0 - ms.m1 @ p.T - p @ ms.m1.T + p @ ms.m0 @ p.T
        assert np.abs(recon - gamma0).max() <= 1e-10 * scale


def test_population_moments_rejects_bad_sigma(ref_spec_d2):
    with pytest.raises(InvalidInput, match="^sigma is not positive definite"):
        vg.population_moments(ref_spec_d2, -np.eye(3))
    with pytest.raises(InvalidInput):
        vg.population_moments(ref_spec_d2, np.eye(2))


def test_diagnostics_healthy(ref_spec_d2):
    diag = vg.diagnostics(ref_spec_d2)
    assert diag.stationary and diag.invertible and diag.h_positive
    assert diag.rho_phi < 1.0 and diag.rho_b < 1.0
    assert diag.warnings == []
    as_json = diag.to_json()
    assert as_json["stationary"] is True
    assert as_json["warnings"] == []


def test_diagnostics_flags_indefinite_h():
    # c = vech([[1, 2], [2, 1]]) with A = B = 0: h itself is indefinite.
    c = linalg.vech(np.array([[1.0, 2.0], [2.0, 1.0]]))
    spec = vg.GarchSpec(d=2, c=c, A=np.zeros((3, 3)), B=np.zeros((3, 3)))
    diag = vg.diagnostics(spec)
    assert diag.stationary and not diag.h_positive
    assert any(w["code"] == "h_not_pd" for w in diag.warnings)


def test_diagnostics_flags_nonstationary():
    spec = vg.GarchSpec(d=1, c=[0.1], A=[[0.6]], B=[[0.6]])
    diag = vg.diagnostics(spec)
    assert not diag.stationary
    assert not diag.h_positive
    codes = {w["code"] for w in diag.warnings}
    assert "nonstationary" in codes and "h_undefined" in codes


def test_diagnostics_flags_noninvertible():
    # Phi = A + B = 0.6 is stable, but rho(B) = 1.2.
    spec = vg.GarchSpec(d=1, c=[0.1], A=[[-0.6]], B=[[1.2]])
    diag = vg.diagnostics(spec)
    assert diag.stationary and diag.h_positive and not diag.invertible
    assert [w["code"] for w in diag.warnings] == ["noninvertible"]


def test_random_spec_properties(rng):
    for d in (1, 2, 3):
        for _ in range(20):
            spec = vg.random_spec(d, rng)
            # The Gershgorin bounds random_spec states.
            assert linalg.spectral_radius(spec.B) < 0.85
            assert linalg.spectral_radius(spec.phi) < 0.95
            assert (spec.A >= 0.0).all()
            assert_allclose(vg.uncond_h(spec), linalg.vech(np.eye(d)), atol=1e-12)


def test_random_sigma_is_pd(rng):
    for dbar in (1, 3, 6):
        sigma = vg.random_sigma(dbar, rng)
        assert linalg.asymmetry(sigma) <= 1e-12
        linalg.cholesky(sigma)
