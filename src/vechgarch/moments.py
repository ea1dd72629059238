"""Sample moments of the squared-returns series and long-run covariances.

The estimator consumes the sample mean of ``x_t = vech(y_t y_t')`` and its
first three autocovariances.  For delta-method standard errors this module
also estimates the long-run covariance ``Psi`` of the stacked moment
process

    g_t = (x_t, vec(z_t z_t'), vec(z_{t+1} z_t'), vec(z_{t+2} z_t')),

where ``z_t = x_t - mean`` and ``vec`` stacks columns.  The default is a
Bartlett-kernel HAC estimate; a block-diagonal alternative tailored to
spherically distributed innovations is also provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import InsufficientData, InvalidInput
from .linalg import DEFAULT_TOL
from .model import MomentSet

__all__ = [
    "PsiEstimate",
    "sample_moments",
    "sample_autocovariances",
    "default_bandwidth",
    "hac_psi",
    "spherical_cov_h",
    "spherical_psi",
]


@dataclass(frozen=True)
class PsiEstimate:
    """Long-run covariance of the stacked moment process.

    ``psi`` is symmetric positive semidefinite by construction: negative
    eigenvalues left by the kernel sum are clipped at zero and the
    ``clipped`` flag records whether that happened.
    """

    psi: np.ndarray
    bandwidth: int
    method: str
    clipped: bool


def _as_sample(x):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise InvalidInput(f"x must be an n x dbar matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("x contains non-finite entries")
    return a


def sample_moments(x):
    """Mean and first three autocovariances of an ``n x dbar`` sample.

    Lag ``k`` pairs ``(x_{t+k}, x_t)`` are averaged with divisor ``n - k``;
    the mean is the full-sample average and is used to centre every lag.

    Raises
    ------
    InsufficientData
        If fewer than 4 observations are supplied.
    """
    a = _as_sample(x)
    n = a.shape[0]
    if n < 4:
        raise InsufficientData(f"need at least 4 observations, got {n}")
    mean = a.mean(axis=0)
    m0, m1, m2 = _autocovariances(a - mean, 2)
    return MomentSet(mean=mean, m0=m0, m1=m1, m2=m2)


def sample_autocovariances(x, max_lag):
    """List ``[m0, ..., m_max_lag]`` with divisor ``n - k`` at lag ``k``."""
    a = _as_sample(x)
    n = a.shape[0]
    if max_lag < 0:
        raise InvalidInput(f"max_lag must be >= 0, got {max_lag}")
    if n < max_lag + 2:
        raise InsufficientData(f"need at least {max_lag + 2} observations, got {n}")
    return _autocovariances(a - a.mean(axis=0), max_lag)


def _autocovariances(z, max_lag):
    """``[m0, ..., m_max_lag]`` of the centred sample ``z``.

    A single column goes through an elementwise multiply-and-sum: as a
    matrix product it is a BLAS dot, whose thread start-up alone costs
    milliseconds at these lengths.
    """
    n = z.shape[0]
    out = []
    for k in range(max_lag + 1):
        lead, lag = z[k:], z[: n - k]
        if z.shape[1] == 1:
            product = np.multiply(lead, lag).sum(axis=0, keepdims=True)
        else:
            product = lead.T @ lag
        out.append(product / (n - k))
    return out


def default_bandwidth(n):
    """Bartlett-kernel bandwidth ``floor(4 (n/100)^{2/9})``."""
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def _stacked_process(x):
    """Rows ``g_t`` of the stacked moment process, for ``t = 0..n-3``."""
    a = _as_sample(x)
    n, k = a.shape
    if n < 4:
        raise InsufficientData(f"need at least 4 observations, got {n}")
    z = a - a.mean(axis=0)
    g = np.empty((n - 2, k + 3 * k * k))
    g[:, :k] = a[: n - 2]
    # Lag-l block, row t: vec(z_{t+l} z_t'), whose entry j k + i is
    # z_{t+l,i} z_{t,j}.  Split the block's columns into (lag, j, i) and
    # write each product in place.
    lagged = g[:, k:].reshape(n - 2, 3, k, k)
    for lag in range(3):
        np.multiply(z[: n - 2, :, None], z[lag : n - 2 + lag, None, :], out=lagged[:, lag])
    return g


def _clip_psd(m):
    values, vectors = np.linalg.eigh(linalg.sym(m))
    if values.min() >= 0.0:
        return linalg.sym(m), False
    clipped = vectors @ np.diag(np.clip(values, 0.0, None)) @ vectors.T
    return linalg.sym(clipped), True


def hac_psi(x, bandwidth=None):
    """Bartlett-kernel HAC estimate of the long-run covariance of ``g_t``.

    With ``w = bandwidth + 1`` and ``Gamma_l = (1/n_g) sum_t g_{t+l} g_t'``
    the Bartlett (Newey-West) sum

        Psi = sum_{|l| < w} (1 - |l| / w) Gamma_l

    is computed as a box filter: every moving sum ``s_j`` of ``w``
    consecutive centred ``g_t`` (the series zero-padded at both ends, so
    ``n_g + w - 1`` windows) holds a lag-``l`` pair in ``w - l`` windows, so
    ``Psi = sum_j s_j s_j' / (n_g w)`` exactly.  The moving sums are
    differences of one cumulative sum and the whole estimate is one
    matrix product.

    Parameters
    ----------
    x : ndarray
        The ``n x dbar`` squared-returns sample.
    bandwidth : int, optional
        Number of lags; defaults to ``floor(4 (n/100)^{2/9})``.

    Returns
    -------
    PsiEstimate
        With ``method == "hac-bartlett"``.
    """
    a = _as_sample(x)
    n = a.shape[0]
    if bandwidth is None:
        bandwidth = default_bandwidth(n)
    if bandwidth < 0:
        raise InvalidInput(f"bandwidth must be >= 0, got {bandwidth}")
    if n <= 10 * max(bandwidth, 1):
        raise InsufficientData(
            f"need more than {10 * max(bandwidth, 1)} observations for bandwidth "
            f"{bandwidth}, got {n}"
        )
    k = a.shape[1]
    n_g, p, w = n - 2, k + 3 * k * k, bandwidth + 1
    # Zero-padded copy of g' with g_t in column w + t, then running sums.
    # The buffer is allocated before g: once g is freed, box can reuse its
    # space on the heap, and the resident peak stays at about two g-sized
    # arrays instead of three.
    buf = np.zeros((p, n_g + 2 * w - 1))
    g = _stacked_process(a)
    g -= g.mean(axis=0)
    buf[:, w : w + n_g] = g.T
    del g
    np.cumsum(buf, axis=1, out=buf)
    box = buf[:, w:] - buf[:, :-w]
    del buf
    psi, clipped = _clip_psd(box @ box.T / (n_g * w))
    return PsiEstimate(psi=psi, bandwidth=int(bandwidth), method="hac-bartlett", clipped=clipped)


def spherical_cov_h(ms, phi, tol=DEFAULT_TOL):
    """Closed-form long-run covariance of the sample mean of ``x_t``.

    Valid when the innovation sequence is a martingale difference with
    spherically distributed shocks, in which case the VARMA structure gives

        Cov = m0 + (I - Phi)^{-1} m1 + m1' (I - Phi')^{-1}.
    """
    if not isinstance(ms, MomentSet):
        raise InvalidInput("ms must be a MomentSet")
    p = np.asarray(phi, dtype=float)
    k = ms.dbar
    if p.shape != (k, k):
        raise InvalidInput(f"phi must have shape {(k, k)}, got {p.shape}")
    eye = np.eye(k)
    lead = linalg.solve(eye - p, ms.m1, tol=tol, name="I - Phi")
    return ms.m0 + lead + lead.T


def spherical_psi(x, phi, tol=DEFAULT_TOL):
    """Block-diagonal long-run covariance for spherical innovations.

    The mean block uses :func:`spherical_cov_h`; the autocovariance block
    is the plain (lag-0) sample covariance of the stacked outer-product
    process; the cross block is zero by construction.

    Returns
    -------
    PsiEstimate
        With ``method == "spherical-block"``.
    """
    a = _as_sample(x)
    k = a.shape[1]
    ms = sample_moments(a)
    g = _stacked_process(a)
    g = g - g.mean(axis=0)
    m_block = g[:, k:].T @ g[:, k:] / g.shape[0]
    psi = np.zeros((k + 3 * k * k, k + 3 * k * k))
    psi[:k, :k] = spherical_cov_h(ms, phi, tol=tol)
    psi[k:, k:] = m_block
    psi, clipped = _clip_psd(psi)
    return PsiEstimate(psi=psi, bandwidth=0, method="spherical-block", clipped=clipped)
