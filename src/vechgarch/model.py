"""Parameter containers and population moments of the vech-GARCH(1,1) model.

The observation model is ``y_t = H_t^{1/2} eps_t`` with i.i.d. standard
Gaussian ``eps_t`` and a linear recursion for the half-vectorised
conditional covariance::

    vech(H_t) = c + A vech(y_{t-1} y_{t-1}') + B vech(H_{t-1}).

Writing ``x_t = vech(y_t y_t')`` turns the model into a VARMA(1,1) with
autoregressive matrix ``Phi = A + B``, moving-average matrix ``-B`` and a
martingale-difference innovation ``xi_t = x_t - vech(H_t)`` whose
covariance ``Sigma`` is a free input at the population level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import InvalidInput, NonStationary, NotPositiveDefinite, VechGarchError

__all__ = [
    "GarchSpec",
    "MomentSet",
    "Diagnostics",
    "uncond_h",
    "population_moments",
    "diagnostics",
    "random_spec",
    "random_sigma",
]


def _as_covariance(value, k, name):
    """``value`` as a finite ``k x k`` symmetric positive definite matrix;
    refused with ``InvalidInput`` naming it."""
    s = linalg._as_array(value, name, (k, k))
    try:
        linalg.cholesky(s, name)
    except NotPositiveDefinite as exc:
        raise InvalidInput(str(exc)) from exc
    return s


@dataclass(frozen=True)
class GarchSpec:
    """Parameters (c, A, B) of a d-dimensional vech-GARCH(1,1).

    ``c`` has length ``dbar = d(d+1)/2`` and ``A``, ``B`` are ``dbar x dbar``.
    Only shapes and finiteness are validated here; stationarity and related
    properties are diagnostic flags, not admission criteria, because
    estimated parameter sets may legitimately violate them.
    """

    d: int
    c: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", linalg._as_count(self.d, "d", least=1))
        k = linalg.vech_dim(self.d)
        object.__setattr__(self, "c", linalg._as_array(self.c, "c", (k,)))
        object.__setattr__(self, "A", linalg._as_array(self.A, "A", (k, k)))
        object.__setattr__(self, "B", linalg._as_array(self.B, "B", (k, k)))

    @property
    def dbar(self):
        return self.c.shape[0]

    @property
    def phi(self):
        """Autoregressive matrix ``A + B`` of the implied VARMA(1,1)."""
        return self.A + self.B

    def to_json(self):
        return {
            "d": self.d,
            "c": self.c.tolist(),
            "A": self.A.tolist(),
            "B": self.B.tolist(),
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise InvalidInput(f"spec JSON must be an object, got {type(data).__name__}")
        try:
            return cls(d=data["d"], c=data["c"], A=data["A"], B=data["B"])
        except KeyError as exc:
            raise InvalidInput(f"spec JSON is missing field {exc}") from exc


@dataclass(frozen=True)
class MomentSet:
    """Mean and autocovariances of the squared-returns series.

    ``mean`` is ``E[x_t]`` and ``m_k = E[(x_{t+k} - mean)(x_t - mean)']``.
    Lags 0, 1 and 2 are everything the lag-1 estimator consumes; ``higher``
    holds ``m3 .. m_max_lag`` for a fit that pools ``lags = K`` identities,
    which needs ``max_lag >= K + 1``.
    """

    mean: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    higher: tuple = ()

    def __post_init__(self):
        mean = linalg._as_array(self.mean, "mean", ndim=1)
        k = mean.shape[0]
        object.__setattr__(self, "mean", mean)
        for name in ("m0", "m1", "m2"):
            object.__setattr__(self, name, linalg._as_array(getattr(self, name), name, (k, k)))
        object.__setattr__(self, "higher", tuple(
            linalg._as_array(m, f"m{lag}", (k, k)) for lag, m in enumerate(self.higher, 3)))

    @property
    def dbar(self):
        return self.mean.shape[0]

    @property
    def covs(self):
        """``(m0, m1, ..., m_max_lag)``."""
        return (self.m0, self.m1, self.m2, *self.higher)

    @property
    def max_lag(self):
        return 2 + len(self.higher)


@dataclass
class Diagnostics:
    """Health flags for a parameter set, never raised as errors."""

    stationary: bool
    rho_phi: float
    invertible: bool
    rho_b: float
    h_positive: bool
    warnings: list = field(default_factory=list)

    def note(self, code, message):
        self.warnings.append({"code": code, "message": message})

    def to_json(self):
        return {
            "stationary": self.stationary,
            "rho_phi": self.rho_phi,
            "invertible": self.invertible,
            "rho_b": self.rho_b,
            "h_positive": self.h_positive,
            "warnings": list(self.warnings),
        }


def uncond_h(spec):
    """Unconditional mean ``h = (I - Phi)^{-1} c`` of ``vech(H_t)``.

    Requires a stationary spec, i.e. ``rho(A + B) < 1``.
    """
    p = spec.phi
    rho = linalg.spectral_radius(p)
    if rho >= 1.0:
        raise NonStationary(f"spectral radius of A + B is {rho:.6g} >= 1")
    return linalg.solve(np.eye(spec.dbar) - p, spec.c, name="I - Phi")


def population_moments(spec, sigma):
    """Exact moments implied by ``spec`` and an innovation covariance.

    Parameters
    ----------
    spec : GarchSpec
        Stationary parameter set.
    sigma : ndarray
        Symmetric positive definite ``dbar x dbar`` covariance of the
        martingale-difference innovation ``xi_t``.

    Returns
    -------
    MomentSet
        Satisfies ``m1 = gamma1 + Phi m0`` and ``m2 = Phi m1`` with
        ``gamma0 = Sigma + B Sigma B'`` and ``gamma1 = -B Sigma``.

    Notes
    -----
    The lag-0 autocovariance solves the discrete Lyapunov equation
    ``m0 - Phi m0 Phi' = gamma0 + gamma1 Phi' + Phi gamma1'``, obtained by
    eliminating ``m1`` from the lag identities.
    """
    s = _as_covariance(sigma, spec.dbar, "sigma")
    p = spec.phi
    h = uncond_h(spec)
    gamma0 = s + spec.B @ s @ spec.B.T
    gamma1 = -spec.B @ s
    q = gamma0 + gamma1 @ p.T + p @ gamma1.T
    m0 = linalg.dlyap(p, q)
    m1 = gamma1 + p @ m0
    m2 = p @ m1
    return MomentSet(mean=h, m0=m0, m1=m1, m2=m2)


def diagnostics(spec):
    """Stationarity, invertibility and positivity flags for a spec.

    Never raises: every failed check is reported as a flag plus a warning
    entry so that callers can surface all problems at once.
    """
    p = spec.phi
    rho_phi = linalg.spectral_radius(p)
    rho_b = linalg.spectral_radius(spec.B)
    diag = Diagnostics(
        stationary=bool(rho_phi < 1.0),
        rho_phi=float(rho_phi),
        invertible=bool(rho_b < 1.0),
        rho_b=float(rho_b),
        h_positive=False,
    )
    if not diag.stationary:
        diag.note("nonstationary", f"rho(A + B) = {rho_phi:.6g} >= 1")
    if not diag.invertible:
        diag.note("noninvertible", f"rho(B) = {rho_b:.6g} >= 1")
    if diag.stationary:
        try:
            h = linalg.solve(np.eye(spec.dbar) - p, spec.c, name="I - Phi")
            linalg.cholesky(linalg.unvech(h))
            diag.h_positive = True
        except VechGarchError as exc:
            diag.note("h_not_pd", f"unvech(h) is not positive definite: {exc}")
    else:
        diag.note("h_undefined", "unconditional variance undefined for nonstationary spec")
    return diag


def random_spec(d, rng):
    """Draw a well-behaved random spec for round-trip testing.

    ``B`` has diagonal entries in ``[0.3, 0.75)`` and off-diagonal entries of
    modulus at most ``0.1 / dbar``, and ``A`` has nonnegative entries below
    ``0.1 / dbar``.  By Gershgorin's theorem ``rho(B) < 0.85`` and
    ``rho(A + B) < 0.95``, so every draw is stationary and invertible.  ``c``
    is chosen so the unconditional covariance is the identity.
    """
    k = linalg.vech_dim(d)
    b = np.diag(rng.uniform(0.3, 0.75, size=k))
    off = rng.uniform(-1.0, 1.0, size=(k, k)) * (0.1 / k)
    off[np.diag_indices(k)] = 0.0
    b = b + off
    a = rng.uniform(0.0, 0.1 / k, size=(k, k))
    h = linalg.vech(np.eye(d))
    c = (np.eye(k) - (a + b)) @ h
    return GarchSpec(d=d, c=c, A=a, B=b)


def random_sigma(dbar, rng):
    """A random symmetric positive definite innovation covariance,
    ``W W' / dbar + I / 2`` for standard normal ``W``; multiply it to rescale."""
    dbar = linalg._as_count(dbar, "dbar", least=1)
    w = rng.standard_normal((dbar, dbar))
    return w @ w.T / dbar + 0.5 * np.eye(dbar)
