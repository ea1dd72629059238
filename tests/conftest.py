import numpy as np
import pytest

import vechgarch as vg


def _reference_spec_d2():
    # Moderate-persistence 2-dimensional spec used across the stochastic
    # tests: rho(A + B) ~ 0.69, unconditional covariance [[1, .25], [.25, 1]].
    a = np.array([
        [0.12, 0.02, 0.01],
        [0.01, 0.10, 0.02],
        [0.02, 0.01, 0.12],
    ])
    b = np.array([
        [0.50, 0.03, 0.01],
        [0.02, 0.52, 0.02],
        [0.01, 0.03, 0.48],
    ])
    h = np.array([1.0, 0.25, 1.0])
    c = (np.eye(3) - a - b) @ h
    return vg.GarchSpec(d=2, c=c, A=a, B=b)


@pytest.fixture(scope="session")
def ref_spec_d2():
    return _reference_spec_d2()


@pytest.fixture(scope="session")
def ref_spec_d1():
    return vg.GarchSpec(d=1, c=np.array([0.3]), A=np.array([[0.1]]),
                        B=np.array([[0.6]]))


@pytest.fixture(scope="session")
def ref_spec_d3():
    # A = 0.15 I, B = 0.45 I plus small off-diagonal terms, rho(A + B) ~ 0.63,
    # unit variances and correlation 0.25.
    k = 6
    off = np.ones((k, k)) - np.eye(k)
    a = 0.15 * np.eye(k) + 0.005 * off
    b = 0.45 * np.eye(k) + 0.0025 * off
    h = vg.vech(np.eye(3) + 0.25 * (np.ones((3, 3)) - np.eye(3)))
    return vg.GarchSpec(d=3, c=(np.eye(k) - a - b) @ h, A=a, B=b)


@pytest.fixture(scope="session")
def positivity_spec_d2():
    # Stationary (rho(A + B) ~ 0.69) but with negative entries in A, so a
    # large shock can leave H_t indefinite.  Found by a search over random
    # off-diagonal A: at burn-in 200 and n = 900, seeds 31-33 fail at steps
    # [none, 730, none], i.e. seed 32 fails between burn-in + 400 and
    # burn-in + 900 while its neighbours run to the end.
    a = np.array([
        [0.10, 0.12, 0.21],
        [-0.02, 0.10, 0.14],
        [-0.04, 0.24, 0.10],
    ])
    b = np.diag([0.52, 0.38, 0.53])
    h = np.array([1.0, 0.3, 1.0])
    return vg.GarchSpec(d=2, c=(np.eye(3) - a - b) @ h, A=a, B=b)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240814))


@pytest.fixture(params=[(0.5, 0.0, 0.4), (0.0, 0.0, 0.0)], ids=["singular_b", "zero_b"])
def singular_b_model(request):
    # d = 2 spec with a singular diagonal B (B = 0 in the second case), and
    # a positive definite innovation covariance: a well-defined model whose
    # lag-1 innovation autocovariance -B Sigma is singular.
    a = np.array([
        [0.10, 0.02, 0.01],
        [0.01, 0.30, 0.02],
        [0.02, 0.01, 0.15],
    ])
    b = np.diag(request.param)
    h = np.array([1.0, 0.25, 1.0])
    spec = vg.GarchSpec(d=2, c=(np.eye(3) - a - b) @ h, A=a, B=b)
    sigma = vg.random_sigma(3, np.random.Generator(np.random.Philox(14)))
    return spec, sigma
