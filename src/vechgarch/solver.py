"""Closed-form parameter recovery from moments.

The pipeline maps a :class:`~vechgarch.model.MomentSet` to parameter
estimates:

1. ``Phi`` from the lag identities ``m_{k+1} = Phi m_k``, ``k = 1 .. K``,
   by stacked least squares over ``m1 .. m_{K+1}`` (``m2 m1^{-1}`` at
   ``lags = K = 1``),
2. innovation autocovariances ``gamma0 = m0 - m1 Phi' - Phi m1' +
   Phi m0 Phi'`` and ``gamma1 = m1 - Phi m0``,
3. the moving-average matrix ``B = -gamma1 Sigma^{-1}``, the stable solvent
   of the palindromic quadratic ``gamma1' + gamma0 B' + gamma1 (B')^2 = 0``,
   where ``Sigma`` is the maximal solution of the nonlinear matrix equation
   ``gamma0 = Sigma + gamma1 Sigma^{-1} gamma1'``, computed by cyclic
   reduction without eigenvectors; the eigenvalues of ``B`` and their
   reciprocals are the ``(lambda, 1/lambda)`` pairs of the quadratic,
4. ``Sigma = gamma0 + gamma1 B'`` (that equation again, now from ``B``),
   ``A = Phi - B`` and ``c = (I - Phi) h``.

Everything is deterministic linear algebra: the cyclic reduction is a
fixed-point recursion that converges quadratically, not an optimiser.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .exceptions import (
    InvalidInput,
    NotPositiveDefinite,
    SingularMatrix,
    UnimodularEigenvalues,
    VechGarchError,
)
from .model import GarchSpec, MomentSet, diagnostics
from .moments import sample_moments

__all__ = [
    "GammaState",
    "SolventResult",
    "SigmaRecovery",
    "EstimateReport",
    "gammas",
    "phi_lstsq",
    "build_p",
    "solve_b",
    "recover_sigma",
    "estimate",
]


@dataclass(frozen=True)
class GammaState:
    """Autoregressive matrix and innovation autocovariances.

    ``gamma0`` is symmetrised on construction and the relative asymmetry of
    the raw input is recorded, so downstream solvers always see an exactly
    symmetric lag-0 autocovariance.
    """

    phi: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma0_asymmetry: float = field(init=False)

    def __post_init__(self):
        g0 = linalg._as_square(self.gamma0, "gamma0")
        for name in ("phi", "gamma1"):
            object.__setattr__(self, name, linalg._as_array(getattr(self, name), name, g0.shape))
        object.__setattr__(self, "gamma0_asymmetry", linalg.asymmetry(g0))
        object.__setattr__(self, "gamma0", linalg.sym(g0))

    @property
    def dbar(self):
        return self.gamma0.shape[0]


@dataclass(frozen=True)
class SolventResult:
    """Stable solvent of the palindromic quadratic plus its spectral data.

    ``b_eigenvalues`` holds the eigenvalues of ``b`` sorted by ascending
    modulus; ``p_eigenvalues`` all ``2 dbar`` companion eigenvalues, the
    ``b_eigenvalues`` followed by their reciprocals, also ascending.
    """

    b: np.ndarray
    b_eigenvalues: np.ndarray
    p_eigenvalues: np.ndarray
    residual_pme: float


@dataclass(frozen=True)
class SigmaRecovery:
    """Innovation covariance with its symmetry gap and equation residual."""

    sigma: np.ndarray
    symmetry_gap: float
    nme_residual: float
    warnings: list


@dataclass(frozen=True)
class EstimateReport:
    """Full output of the closed-form estimator.

    Keeps the ``gamma_state`` and ``moments`` (``None`` after aggregation)
    it was solved from, and the number ``lags`` of lag identities its
    ``Phi`` pools (1: ``m2 m1^{-1}``).  None are in JSON.
    """

    spec: GarchSpec
    sigma: np.ndarray
    p_eigenvalues: np.ndarray
    b_eigenvalues: np.ndarray
    residual_pme: float
    residual_nme: float
    sigma_symmetry_gap: float
    diagnostics: object
    gamma_state: GammaState = field(repr=False)
    moments: MomentSet = field(default=None, repr=False)
    lags: int = 1

    def to_json(self):
        return {
            "spec": self.spec.to_json(),
            "sigma": self.sigma.tolist(),
            "p_eigenvalues": _complex_list(self.p_eigenvalues),
            "b_eigenvalues": _complex_list(self.b_eigenvalues),
            "residual_pme": float(self.residual_pme),
            "residual_nme": float(self.residual_nme),
            "sigma_symmetry_gap": float(self.sigma_symmetry_gap),
            "diagnostics": self.diagnostics.to_json(),
        }


def _complex_list(values):
    return [{"re": float(v.real), "im": float(v.imag)} for v in np.asarray(values)]


def gammas(ms):
    """Build the lag-1 :class:`GammaState` of a moment set: ``Phi = m2 m1^{-1}``
    by :func:`phi_lstsq`."""
    return _gamma_state(ms, phi_lstsq(ms.covs[1:3]))


def _gamma_state(ms, phi):
    g0 = ms.m0 - ms.m1 @ phi.T - phi @ ms.m1.T + phi @ ms.m0 @ phi.T
    g1 = ms.m1 - phi @ ms.m0
    return GammaState(phi=phi, gamma0=g0, gamma1=g1)


def phi_lstsq(covs):
    """Least-squares ``Phi`` over stacked lag identities.

    ``covs`` is ``[m1, m2, ..., m_{K+1}]``; the result minimises
    ``|| Phi [m1 ... mK] - [m2 ... m_{K+1}] ||_F``, which is ``m2 m1^{-1}``
    when ``K = 1``.  The design ``[m1 ... mK]`` has rank below ``dbar``, and
    ``SingularMatrix`` is raised, when its smallest singular value is at
    most ``linalg._RCOND`` times its largest: the bound :func:`linalg.solve`
    and :func:`linalg.rsolve` apply to a square matrix.
    """
    c = linalg._as_array(covs, "covs", ndim=3)
    if len(c) < 2:
        raise InvalidInput("need at least two autocovariances (m1 and m2)")
    design = np.hstack(c[:-1])
    phi_t, _, rank, s = np.linalg.lstsq(design.T, np.hstack(c[1:]).T, rcond=linalg._RCOND)
    if rank < len(design):
        raise SingularMatrix(
            f"least-squares design of lag identities k = 1..{len(c) - 1} is singular (rank "
            f"{rank} < {len(design)}, smallest/largest singular value ratio "
            f"{0.0 if s[0] == 0 else s[-1] / s[0]:.3e}); pooling lags > {len(c) - 1} "
            "by stacked least squares handles singular individual lags"
        )
    return phi_t.T


def build_p(gs):
    """Companion matrix of the palindromic quadratic.

    ``P = [[0, I], [-gamma1^{-1} gamma1', -gamma1^{-1} gamma0]]`` whose
    eigenvalues come in ``(lambda, 1/lambda)`` pairs.  ``gamma1`` must be
    invertible; a singular ``gamma1`` (e.g. ``B = 0``) has no companion
    linearisation of this form.  :func:`solve_b` does not use it; its
    ``p_eigenvalues`` are this spectrum, computed from ``B`` alone.
    """
    k = gs.dbar
    try:
        lower = linalg.solve(gs.gamma1, np.hstack([gs.gamma1.T, gs.gamma0]), name="gamma1")
    except SingularMatrix as exc:
        raise SingularMatrix(
            f"{exc}; a singular lag-1 innovation autocovariance (for instance "
            "when B = 0) admits no companion linearisation"
        ) from exc
    p = np.zeros((2 * k, 2 * k))
    p[:k, k:] = np.eye(k)
    p[k:, :k] = -lower[:, :k]
    p[k:, k:] = -lower[:, k:]
    return p


# A solvent must keep rho(B) below 1 - _UNIMODULAR_BAND, which keeps the
# companion eigenvalues (lambda, 1/lambda) off the unit circle.  The two
# constants are one decision: cyclic reduction squares its decaying blocks at
# every step, so 32 steps reach convergence for any rho(B) up to 1 - 1e-8,
# and a narrower band would change nothing because the cap refuses first.
# With eigenvalues on the unit circle the blocks stall, or decay only
# linearly and meet the stopping test late (after 53 or more steps on sample
# states), so the cap refuses them.
_UNIMODULAR_BAND = 1e-8
_CR_MAX_STEPS = 32


def _no_stable_solvent(why):
    return UnimodularEigenvalues(
        f"{why}: the quadratic has eigenvalues on or too close to the unit "
        "circle; no stable solvent exists"
    )


def solve_b(gs):
    """Stable solvent of the palindromic quadratic, by cyclic reduction.

    Meini's cyclic reduction on ``gamma1' + gamma0 G + gamma1 G^2 = 0`` with
    ``G = B'`` starts from ``(A_-1, A_0, A_1, Ahat) = (gamma1', gamma0,
    gamma1, gamma0)``.  Each step solves ``A_0`` against ``[A_-1 A_1]`` and
    sets ``A_-1 <- -A_-1 A_0^{-1} A_-1``, ``A_1 <- -A_1 A_0^{-1} A_1``,
    ``A_0 <- A_0 - A_-1 A_0^{-1} A_1 - A_1 A_0^{-1} A_-1`` and ``Ahat <- Ahat
    - A_1 A_0^{-1} A_-1``.  Once ``||A_1|| <= eps ||Ahat||``, ``Ahat`` is the
    maximal solution ``Sigma`` of ``gamma0 = Sigma + gamma1 Sigma^{-1}
    gamma1'`` and ``B = -gamma1 Sigma^{-1}``.  Neither ``gamma1`` nor ``B``
    is inverted, so a singular ``B`` (or ``B = 0``) is solved like any other.

    ``b_eigenvalues`` are the eigenvalues of ``B`` by ascending modulus;
    ``p_eigenvalues`` appends their reciprocals (``inf`` for an exactly zero
    eigenvalue), which completes the ``(lambda, 1/lambda)`` spectrum of the
    quadratic's companion matrix.

    Raises
    ------
    UnimodularEigenvalues
        If the recursion has not converged after ``_CR_MAX_STEPS`` steps,
        ``A_0`` turns singular, or ``rho(B) >= 1 - _UNIMODULAR_BAND``: the
        quadratic then has eigenvalues on (or within the band of) the unit
        circle, where no stable/anti-stable split exists.
    """
    k = gs.dbar
    a_minus, a_zero, a_plus, a_hat = gs.gamma1.T, gs.gamma0, gs.gamma1, gs.gamma0
    for step in range(1, _CR_MAX_STEPS + 1):
        try:
            s = np.linalg.solve(a_zero, np.hstack([a_minus, a_plus]))
        except np.linalg.LinAlgError:
            s = None
        if s is None or not np.isfinite(s).all():
            raise _no_stable_solvent(f"cyclic reduction: A_0 singular at step {step}")
        s_minus, s_plus = s[:, :k], s[:, k:]
        t = a_plus @ s_minus
        a_hat = a_hat - t
        a_zero = a_zero - a_minus @ s_plus - t
        a_minus, a_plus = -a_minus @ s_minus, -a_plus @ s_plus
        if np.linalg.norm(a_plus) <= np.finfo(float).eps * np.linalg.norm(a_hat):
            break
    else:
        raise _no_stable_solvent(
            f"cyclic reduction did not converge in {_CR_MAX_STEPS} steps")
    b = linalg.rsolve(-gs.gamma1, linalg.sym(a_hat), name="Sigma")
    values = np.linalg.eigvals(b).astype(complex)
    values = values[np.argsort(np.abs(values), kind="stable")]
    rho = float(np.abs(values[-1]))
    if rho >= 1.0 - _UNIMODULAR_BAND:
        raise _no_stable_solvent(f"rho(B) = {rho:.10g} is within {_UNIMODULAR_BAND:g} of 1")
    reciprocals = np.full(k, np.inf, dtype=complex)
    nonzero = values != 0
    reciprocals[nonzero] = 1.0 / values[nonzero]
    bt = b.T
    return SolventResult(
        b=b,
        b_eigenvalues=values,
        p_eigenvalues=np.concatenate([values, reciprocals[::-1]]),
        # Frobenius residual of the palindromic quadratic at b.
        residual_pme=float(np.linalg.norm(gs.gamma1.T + gs.gamma0 @ bt + gs.gamma1 @ (bt @ bt))),
    )


def recover_sigma(b, gs):
    """Innovation covariance ``Sigma = gamma0 + gamma1 B'``.

    This is the equation ``gamma0 = Sigma + gamma1 Sigma^{-1} gamma1'``
    with ``B = -gamma1 Sigma^{-1}`` substituted, so ``B`` need not be
    invertible.  The raw solution's relative asymmetry is recorded as
    ``symmetry_gap`` and the returned matrix is symmetrised.  A
    non-positive-definite result is reported through a warning entry,
    never repaired.
    """
    bm = linalg._as_array(b, "b", gs.gamma0.shape)
    raw = gs.gamma0 + gs.gamma1 @ bm.T
    gap = linalg.asymmetry(raw)
    sigma = linalg.sym(raw)
    notes = []
    try:
        linalg.cholesky(sigma)
    except (NotPositiveDefinite, InvalidInput):
        notes.append({
            "code": "sigma_not_pd",
            "message": "recovered Sigma is not positive definite",
        })
    try:
        # Frobenius residual of gamma0 = Sigma + gamma1 Sigma^{-1} gamma1'.
        inv_term = linalg.solve(sigma, gs.gamma1.T, name="sigma")
        residual = float(np.linalg.norm(gs.gamma0 - sigma - gs.gamma1 @ inv_term))
    except SingularMatrix:
        residual = float("inf")
        notes.append({
            "code": "sigma_singular",
            "message": "recovered Sigma is singular; equation residual unavailable",
        })
    return SigmaRecovery(sigma=sigma, symmetry_gap=float(gap),
                         nme_residual=residual, warnings=notes)


def _run_stage(name, fn, *args):
    try:
        return fn(*args)
    except VechGarchError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


def estimate(data, lags=1):
    """Closed-form estimation of (c, A, B, Sigma) from data or moments.

    Parameters
    ----------
    data : ndarray or MomentSet
        Either the ``n x dbar`` series of half-vectorised outer products
        ``x_t`` (use :func:`vechgarch.simulate.to_x` on raw returns), whose
        moments are ``sample_moments(data, lags + 1)``, or a precomputed
        :class:`~vechgarch.model.MomentSet` with ``max_lag >= lags + 1``.
    lags : int
        Number ``K`` of lag identities ``m_{k+1} = Phi m_k``, ``k = 1..K``,
        pooled into ``Phi`` by stacked least squares (:func:`phi_lstsq`);
        ``1`` gives ``m2 m1^{-1}``.

    Returns
    -------
    EstimateReport
        Parameter estimates plus spectral data, equation residuals and
        diagnostics; soft repairs are listed in ``diagnostics.warnings``.
    """
    lags = linalg._as_count(lags, "lags", least=1)
    if isinstance(data, MomentSet):
        ms = data
    else:
        ms = _run_stage("moments", sample_moments, data, lags + 1)
    if ms.max_lag < lags + 1:
        raise InvalidInput(f"lags={lags} needs a MomentSet with max_lag >= {lags + 1}, "
                           f"got max_lag {ms.max_lag}")
    linalg.mat_dim(ms.dbar)  # validates the vech width
    phi_hat = _run_stage("gammas", phi_lstsq, ms.covs[1 : lags + 2])
    report = _solve(_gamma_state(ms, phi_hat), ms.mean)
    return replace(report, moments=ms, lags=lags)


# Relative asymmetry of gamma0 above which its symmetrisation is noted.
_GAMMA_SYMMETRY = 1e-10


def _solve(gs, mean):
    """(GammaState, mean) -> EstimateReport, for estimation and aggregation."""
    notes = []
    if gs.gamma0_asymmetry > _GAMMA_SYMMETRY:
        notes.append({
            "code": "gamma0_symmetrized",
            "message": f"gamma0 symmetrised (relative asymmetry "
                       f"{gs.gamma0_asymmetry:.3e})",
        })
    sol = _run_stage("solve_b", solve_b, gs)
    rec = _run_stage("sigma", recover_sigma, sol.b, gs)
    k = gs.dbar
    spec = GarchSpec(d=linalg.mat_dim(k), c=(np.eye(k) - gs.phi) @ mean,
                     A=gs.phi - sol.b, B=sol.b)
    diag = diagnostics(spec)
    diag.warnings = notes + rec.warnings + diag.warnings
    return EstimateReport(
        spec=spec,
        sigma=rec.sigma,
        p_eigenvalues=sol.p_eigenvalues,
        b_eigenvalues=sol.b_eigenvalues,
        residual_pme=sol.residual_pme,
        residual_nme=rec.nme_residual,
        sigma_symmetry_gap=rec.symmetry_gap,
        diagnostics=diag,
        gamma_state=gs,
    )
