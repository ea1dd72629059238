"""Temporal aggregation of vech-GARCH(1,1) processes.

Sampling a process every ``m`` periods (stock aggregation) or summing
returns over blocks of ``m`` periods (flow aggregation) again yields a
weak VARMA(1,1) in the squared returns, with autoregressive matrix
``Phi^m``.  Its innovation autocovariances are ``gamma0 = sum_i J_i Sigma
J_i'`` and ``gamma1 = sum_i J_{i+m} Sigma J_i'`` over one MA ladder: the
sampled process's ``J_0..J_m`` (stock) or their moving sums over ``m`` lags
(flow).  The palindromic solve then recovers the low-frequency ``(c, A, B)``.

Flow aggregation allows an additive noise ``w`` on the aggregated returns
whose squared-process covariance ``sigma_w`` enters the autocovariances;
``w`` is taken to be mean preserving, so the aggregated unconditional
moment is ``m h``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import InvalidInput, MissingSigmaW
from .model import GarchSpec, _as_covariance, _as_float_array, uncond_h
from .solver import EstimateReport, GammaState, _solve

__all__ = [
    "AggregationInput",
    "AggregatedSpec",
    "stock_gammas",
    "flow_gammas",
    "aggregate_params",
    "aggregate_data",
]


@dataclass(frozen=True)
class AggregationInput:
    """A spec, its innovation covariance and the aggregation request.

    ``sigma`` is the covariance of the martingale-difference innovation of
    the disaggregated squared-returns process.  ``sigma_w`` (flow only,
    required for ``m > 1``) is the covariance contribution of the additive
    aggregation noise.  Construction refuses a ``sigma`` that is not
    symmetric positive definite and a ``sigma_w`` that is not symmetric
    positive semidefinite.
    """

    spec: GarchSpec
    sigma: np.ndarray
    m: int
    kind: str = "stock"
    sigma_w: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("stock", "flow"):
            raise InvalidInput(f"kind must be 'stock' or 'flow', got {self.kind!r}")
        _check_m(self.m)
        object.__setattr__(self, "m", int(self.m))
        k = self.spec.dbar
        object.__setattr__(self, "sigma", _as_covariance(self.sigma, k, "sigma"))
        if self.kind == "flow":
            object.__setattr__(self, "sigma_w", _flow_noise(self.sigma_w, k, self.m))
        elif self.sigma_w is not None:
            raise InvalidInput("sigma_w only applies to flow aggregation")


@dataclass(frozen=True)
class AggregatedSpec:
    """Low-frequency parameters plus the autocovariances they solve."""

    spec_m: GarchSpec
    gamma0_m: np.ndarray
    gamma1_m: np.ndarray
    m: int
    kind: str
    report: EstimateReport

    def to_json(self):
        out = self.spec_m.to_json()
        out["m"] = int(self.m)
        out["kind"] = self.kind
        return out


def _ladder(spec, m, kind):
    """MA coefficients ``J_i`` of the aggregated squared-returns process.

    The stock ladder ``J_0..J_m`` is ``J_0 = I``, ``J_i = Phi^{i-1} A`` for
    ``1 <= i <= m-1``, and ``J_m = -Phi^{m-1} B`` (it replaces ``Phi^{m-1}
    A``: the lag-m innovation enters through the previous low-frequency
    observation).  A block sum adds the stock coefficients of its ``m``
    periods, so the flow ladder ``J_0..J_{2m-1}`` is the moving sum
    ``J_i^flow = sum_{i-m < l <= i} J_l^stock``.
    """
    powers = linalg.power_sequence(spec.phi, m - 1)
    stock = [np.eye(spec.dbar)]
    for i in range(1, m):
        stock.append(powers[i - 1] @ spec.A)
    stock.append(-powers[m - 1] @ spec.B)
    if kind == "stock":
        return stock
    # Highest lag first, so that the largest term, J_0 = I, is added last.
    return [sum(reversed(stock[max(i - m + 1, 0) : i + 1])) for i in range(2 * m)]


def _gammas(inp):
    """``(gamma0, gamma1)`` of a validated :class:`AggregationInput`."""
    spec, sigma, m, kind, sigma_w = inp.spec, inp.sigma, inp.m, inp.kind, inp.sigma_w
    ladder = _ladder(spec, m, kind)
    gamma0 = sum(j @ sigma @ j.T for j in ladder)
    gamma1 = sum(ladder[i + m] @ sigma @ ladder[i].T for i in range(len(ladder) - m))
    if kind == "flow":
        phi_m = np.linalg.matrix_power(spec.phi, m)
        gamma0 = gamma0 + sigma_w + phi_m @ sigma_w @ phi_m.T
        gamma1 = gamma1 - phi_m @ sigma_w
    return linalg.sym(gamma0), gamma1


def stock_gammas(spec, sigma, m):
    """Innovation autocovariances of the every-m-th-period process.

    Returns ``(gamma0_m, gamma1_m)`` with ``gamma0_m = sum_i J_i Sigma
    J_i'`` over the stock ladder and ``gamma1_m = J_m Sigma``.
    """
    return _gammas(AggregationInput(spec, sigma, m, "stock"))


def flow_gammas(spec, sigma, m, sigma_w=None):
    """Innovation autocovariances of the block-summed process.

    ``sigma_w`` adds ``sigma_w + Phi^m sigma_w (Phi^m)'`` to the lag-0
    autocovariance and ``-Phi^m sigma_w`` to the lag-1 one; both outputs
    are affine in it.  Required for ``m > 1``; pass a zero matrix for
    noiseless aggregation.
    """
    return _gammas(AggregationInput(spec, sigma, m, "flow", sigma_w))


def _flow_noise(sigma_w, k, m):
    """Validated flow-noise covariance; a zero matrix if omitted at m = 1.

    It must be symmetric positive semidefinite; zero is allowed.
    """
    if sigma_w is None:
        if m > 1:
            raise MissingSigmaW(
                "flow aggregation with m > 1 requires sigma_w (use a zero "
                "matrix for noiseless aggregation)"
            )
        return np.zeros((k, k))
    s = _as_float_array(sigma_w, (k, k), "sigma_w")
    linalg.check_symmetric(s, "sigma_w")
    if np.linalg.eigvalsh(s)[0] < -1e-12 * (1.0 + np.linalg.norm(s)):
        raise InvalidInput("sigma_w must be positive semidefinite")
    return s


def _check_m(m):
    if not isinstance(m, numbers.Integral) or m < 1:
        raise InvalidInput(f"m must be an integer >= 1, got {m!r}")


def aggregate_params(inp):
    """Low-frequency GARCH parameters implied by a high-frequency spec.

    Solves the palindromic quadratic for the aggregated autocovariances,
    so the output moving-average matrix is the stable solvent:
    ``A_m = Phi^m - B_m`` and ``c_m = (I - Phi^m) h_m`` with ``h_m = h``
    for stock sampling and ``h_m = m h`` for flow sums.

    Returns
    -------
    AggregatedSpec
        With an :class:`~vechgarch.solver.EstimateReport` documenting the
        solve (eigenvalues, residuals, diagnostics).  That report has no
        moments, so it has no standard errors.
    """
    if not isinstance(inp, AggregationInput):
        raise InvalidInput("inp must be an AggregationInput")
    spec, m = inp.spec, inp.m
    h = uncond_h(spec)
    gamma0_m, gamma1_m = _gammas(inp)
    h_m = h if inp.kind == "stock" else m * h
    phi_m = np.linalg.matrix_power(spec.phi, m)
    gs = GammaState(phi=phi_m, gamma0=gamma0_m, gamma1=gamma1_m)
    report = _solve(gs, h_m)
    return AggregatedSpec(spec_m=report.spec, gamma0_m=gamma0_m, gamma1_m=gamma1_m,
                          m=m, kind=inp.kind, report=report)


def aggregate_data(y, m, kind="stock"):
    """Aggregate a returns sample: take every m-th row or block sums.

    Stock aggregation keeps rows ``m-1, 2m-1, ...`` (the last observation
    of each block); flow aggregation sums consecutive blocks of ``m``
    rows.  A trailing incomplete block is dropped.
    """
    a = np.asarray(y, dtype=float)
    if a.ndim != 2:
        raise InvalidInput(f"y must be an n x d matrix, got shape {a.shape}")
    if kind not in ("stock", "flow"):
        raise InvalidInput(f"kind must be 'stock' or 'flow', got {kind!r}")
    _check_m(m)
    n_blocks = a.shape[0] // m
    if n_blocks == 0:
        raise InvalidInput(f"need at least {m} rows to aggregate with m = {m}")
    trimmed = a[: n_blocks * m]
    if kind == "stock":
        return trimmed[m - 1 :: m].copy()
    return trimmed.reshape(n_blocks, m, a.shape[1]).sum(axis=1)
