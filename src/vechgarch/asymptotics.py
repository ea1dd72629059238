"""Delta-method asymptotics for the closed-form estimator.

The estimator is a smooth map from the moment vector
``m = (mean, vec m0, vec m1, vec m2)`` to the parameter vector
``lambda = (c, vec A, vec B)``.  This module differentiates that map in
closed form, chains it with a long-run covariance ``Psi`` of the sample
moments, and reports ``Xi = J Psi J'`` together with the implied standard
errors ``sqrt(diag(Xi) / n)``.  ``vec`` stacks columns throughout, and the
parameter order within ``lambda`` follows the same convention.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from . import linalg
from .exceptions import InvalidInput
from .model import MomentSet
from .moments import PsiEstimate, hac_psi
from .solver import estimate

__all__ = [
    "JacobianState",
    "AsymptoticReport",
    "jacobian_action",
    "jacobian_matrix",
    "xi",
    "param_names",
    "standard_errors",
]


@dataclass(frozen=True)
class JacobianState:
    """Everything the derivative formulas evaluate at: the moment set plus
    the estimator outputs computed from it."""

    mean: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    phi: np.ndarray
    b: np.ndarray
    sigma: np.ndarray

    @property
    def dbar(self):
        return self.mean.shape[0]

    @classmethod
    def from_moments(cls, ms):
        """Run the lag-1 estimator once and capture its state."""
        if not isinstance(ms, MomentSet):
            raise InvalidInput("ms must be a MomentSet")
        return cls._from_report(estimate(ms))

    @classmethod
    def _from_report(cls, report):
        """The state a report was solved at, if its ``Phi`` is the lag-1 map
        ``m2 m1^{-1}`` that :func:`jacobian_action` differentiates."""
        ms = report.moments
        if ms is None:
            raise InvalidInput("no standard errors for a report without moments "
                               "(an aggregation report)")
        if report.phi_departure is not None:
            raise InvalidInput(
                "no standard errors: the delta method differentiates the lag-1 "
                f"Phi = m2 m1^-1, but this fit's Phi {report.phi_departure}"
            )
        return cls(mean=ms.mean, m0=ms.m0, m1=ms.m1, phi=report.gamma_state.phi,
                   b=report.spec.B, sigma=report.sigma)


@dataclass(frozen=True)
class AsymptoticReport:
    """Delta-method covariance and standard errors for ``(c, A, B)``."""

    xi: np.ndarray
    std_errors: np.ndarray
    param_names: list
    bandwidth: int
    n: int
    clipped: bool

    def to_json(self):
        return {
            "param_names": list(self.param_names),
            "std_errors": {name: float(se)
                           for name, se in zip(self.param_names, self.std_errors)},
            "xi": self.xi.tolist(),
            "psi_method": "hac-bartlett",
            "bandwidth": int(self.bandwidth),
            "n": int(self.n),
            "clipped": bool(self.clipped),
            "caveats": [
                "standard errors presuppose the moment conditions needed for "
                "asymptotic normality of the sample moments; they are not "
                "verified from the data"
            ],
        }


def jacobian_action(js, dmean, dm0, dm1, dm2):
    """Directional derivative of the estimator along a moment perturbation.

    Implements the chain obtained by differentiating each pipeline stage:

    - ``dPhi = (dm2 - Phi dm1) m1^{-1}``,
    - ``dgamma1 = dm1 - dPhi m0 - Phi dm0`` and the matching product rule
      for ``dgamma0`` (symmetrised, because the pipeline symmetrises
      ``gamma0``),
    - ``dSigma`` from the discrete Lyapunov equation
      ``dSigma - B dSigma B' = dgamma0 + dgamma1 B' + B dgamma1'``,
    - ``dB = -(dgamma1 + B dSigma) Sigma^{-1}``, ``dA = dPhi - dB``,
    - ``dc = -dPhi h + (I - Phi) dh``, the derivative of ``c = (I - Phi) h``.

    Directions may be batched: ``dmean`` of shape ``(..., dbar)`` and the
    ``dm*`` of shape ``(..., dbar, dbar)`` give the stacked derivatives, all
    taken through one right division by each of ``m1`` and ``Sigma`` and
    one Lyapunov solve.

    Returns the triple ``(dc, dA, dB)``.
    """
    k = js.dbar
    dmean = np.asarray(dmean, dtype=float)
    lead = dmean.shape[:-1]
    dmean = dmean.reshape(lead + (k,))
    dm0, dm1, dm2 = (np.asarray(m, dtype=float).reshape(lead + (k, k))
                     for m in (dm0, dm1, dm2))
    phi, m0, m1 = js.phi, js.m0, js.m1
    b, sigma = js.b, js.sigma
    dphi = linalg.rsolve(dm2 - phi @ dm1, m1, name="m1")
    dgamma1 = dm1 - dphi @ m0 - phi @ dm0
    # gamma0 = m0 - m1 Phi' - Phi m1' + Phi m0 Phi': under sym, each cross
    # term of its derivative and its transpose add up to twice the one.
    dgamma0 = linalg.sym(dm0 + phi @ dm0 @ phi.T + 2.0 * (
        dphi @ linalg.sym(m0) @ phi.T - dphi @ m1.T - dm1 @ phi.T))
    rhs = dgamma0 + 2.0 * linalg.sym(dgamma1 @ b.T)
    dsigma = linalg.dlyap(b, rhs)
    db = -linalg.rsolve(dgamma1 + b @ dsigma, sigma, name="sigma")
    da = dphi - db
    dc = -dphi @ js.mean + dmean @ (np.eye(k) - phi).T
    return dc, da, db


def jacobian_matrix(js):
    """Full Jacobian, ``(dbar + 2 dbar^2) x (dbar + 3 dbar^2)``.

    Columns run over the moment coordinates ``(mean, vec m0, vec m1,
    vec m2)`` and rows over ``(c, vec A, vec B)``.  Column ``i`` is the
    derivative along the ``i``-th unit moment direction; all of them come
    from one batched :func:`jacobian_action` call.
    """
    k = js.dbar
    basis = np.eye(k + 3 * k * k)
    dm = linalg.unvec(basis[:, k:].reshape(-1, 3, k * k), k, k)
    dc, da, db = jacobian_action(js, basis[:, :k], dm[:, 0], dm[:, 1], dm[:, 2])
    return np.concatenate([dc, linalg.vec(da), linalg.vec(db)], axis=1).T


def param_names(d):
    """Labels for ``(c, vec A, vec B)`` in column-stacked order."""
    k = linalg.vech_dim(d)
    names = [f"c[{i}]" for i in range(k)]
    for tag in ("A", "B"):
        names.extend(f"{tag}[{i}][{j}]" for j in range(k) for i in range(k))
    return names


def xi(jac, psi, n):
    """Parameter covariance ``Xi = J Psi J'`` and standard errors.

    ``psi`` is a :class:`~vechgarch.moments.PsiEstimate`; ``n`` is the
    sample size behind the moment estimates.  Negative eigenvalues of the
    product (rounding of a rank deficient ``J Psi J'``) are clipped at zero,
    and ``clipped`` reports whether that happened.
    """
    if n < 1:
        raise InvalidInput(f"n must be >= 1, got {n}")
    if not isinstance(psi, PsiEstimate):
        raise InvalidInput(f"psi must be a PsiEstimate, got {type(psi).__name__}")
    j = np.asarray(jac, dtype=float)
    if psi.psi.shape != (j.shape[1], j.shape[1]):
        raise InvalidInput(
            f"psi has shape {psi.psi.shape}, expected {(j.shape[1], j.shape[1])}"
        )
    prod = linalg.sym(j @ psi.psi @ j.T)
    values, vectors = np.linalg.eigh(prod)
    clipped = bool(values.min() < 0.0)
    if clipped:
        prod = linalg.sym(vectors @ np.diag(np.clip(values, 0.0, None)) @ vectors.T)
    se = np.sqrt(np.clip(np.diag(prod), 0.0, None) / n)
    return AsymptoticReport(
        xi=prod,
        std_errors=se,
        param_names=_names_from_rows(j.shape[0]),
        bandwidth=psi.bandwidth,
        n=int(n),
        clipped=clipped,
    )


def _names_from_rows(n_rows):
    # n_rows = dbar + 2 dbar^2  =>  dbar is the positive root.
    dbar = int(round((-1 + np.sqrt(1 + 8 * n_rows)) / 4))
    if dbar + 2 * dbar * dbar != n_rows:
        raise InvalidInput(f"{n_rows} rows do not match dbar + 2 dbar^2 for any dbar")
    d = linalg.mat_dim(dbar)
    return param_names(d)


def standard_errors(report, x, bandwidth=None):
    """Delta method for ``report = estimate(x)``, on a raw ``x_t`` sample.

    The Jacobian is taken at the report's stored state (no refit); ``x``
    gives the long-run covariance through :func:`~vechgarch.moments.hac_psi`.
    Raises ``InvalidInput`` for a report without moments, or whose ``Phi``
    pools lags.
    """
    a = np.asarray(x, dtype=float)
    js = JacobianState._from_report(report)
    return xi(jacobian_matrix(js), hac_psi(a, bandwidth=bandwidth), a.shape[0])
