"""Sample moments of the squared-returns series and long-run covariances.

The estimator consumes the sample mean of ``x_t = vech(y_t y_t')`` and its
first three autocovariances.  For delta-method standard errors this module
also estimates the long-run covariance ``Psi`` of the stacked moment
process

    g_t = (x_t, vec(z_t z_t'), vec(z_{t+1} z_t'), vec(z_{t+2} z_t')),

where ``z_t = x_t - mean`` and ``vec`` stacks columns.  The estimate is the
Bartlett-kernel (Newey-West) HAC.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientData, InvalidInput
from .model import MomentSet

__all__ = [
    "PsiEstimate",
    "sample_moments",
    "sample_autocovariances",
    "default_bandwidth",
    "hac_psi",
]


@dataclass(frozen=True)
class PsiEstimate:
    """Long-run covariance of the stacked moment process.

    ``psi`` is symmetric positive semidefinite by construction: it is a Gram
    product of moving sums (:func:`hac_psi`).
    """

    psi: np.ndarray
    bandwidth: int


def _as_sample(x):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise InvalidInput(f"x must be an n x dbar matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("x contains non-finite entries")
    return a


def _check_count(value, name):
    if not isinstance(value, numbers.Integral) or value < 0:
        raise InvalidInput(f"{name} must be an integer >= 0, got {value!r}")


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
    _check_count(max_lag, "max_lag")
    if n < max_lag + 2:
        raise InsufficientData(f"need at least {max_lag + 2} observations, got {n}")
    return _autocovariances(a - a.mean(axis=0), max_lag)


def _autocovariances(z, max_lag):
    """``[m0, ..., m_max_lag]`` of the centred sample ``z``."""
    n = z.shape[0]
    return [z[k:].T @ z[: n - k] / (n - k) for k in range(max_lag + 1)]


def default_bandwidth(n):
    """Bartlett-kernel bandwidth ``floor(4 (n/100)^{2/9})``."""
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


# Columns per step of the in-place moving sums in ``hac_psi``.  A step
# wider than the window reads columns it also writes, which numpy's overlap
# rule makes safe by buffering the operand; steps of one window width are
# several times slower at small ``p``, where call overhead dominates.  At
# n = 2e4 and dbar = 1, 3, 6, widths 512 to 2048 time alike and narrower
# ones are slower; 512 keeps the buffered operand small.
_BOX_BLOCK = 512


def _stacked_process(a, lead=0, trail=0):
    """The stacked moment process, transposed: ``g_t`` is a column.

    Returns a ``(p, lead + n_g + trail)`` array, ``p = dbar + 3 dbar^2`` and
    ``n_g = n - 2``, with ``g_t`` in column ``lead + t`` and zeros in the
    ``lead`` and ``trail`` padding columns.  Row ``dbar + l dbar^2 + j dbar
    + i`` holds ``z_{t+l,i} z_{t,j}``, entry ``j dbar + i`` of
    ``vec(z_{t+l} z_t')``.
    """
    n, k = a.shape
    if n < 4:
        raise InsufficientData(f"need at least 4 observations, got {n}")
    n_g = n - 2
    buf = np.empty((k + 3 * k * k, lead + n_g + trail))
    buf[:, :lead] = 0.0
    buf[:, lead + n_g :] = 0.0
    g = buf[:, lead : lead + n_g]
    g[:k] = a[:n_g].T
    zt = np.subtract(a.T, a.mean(axis=0)[:, None], order="C")
    # The lag-l block, split into (j, i, t), is z_{t,j} z_{t+l,i}.
    lagged = g[k:].reshape(3, k, k, n_g)
    for lag in range(3):
        np.multiply(zt[:, None, :n_g], zt[None, :, lag : lag + n_g], out=lagged[lag])
    return buf


def hac_psi(x, bandwidth=None):
    """Bartlett-kernel HAC estimate of the long-run covariance of ``g_t``.

    With ``w = bandwidth + 1`` and ``Gamma_l = (1/n_g) sum_t g_{t+l} g_t'``
    the Bartlett (Newey-West) sum

        Psi = sum_{|l| < w} (1 - |l| / w) Gamma_l

    is computed as a box filter: every moving sum ``s_j`` of ``w``
    consecutive centred ``g_t`` (the series zero-padded at both ends, so
    ``n_g + w - 1`` windows) holds a lag-``l`` pair in ``w - l`` windows, so
    ``Psi = sum_j s_j s_j' / (n_g w)`` exactly.

    Everything happens in one ``(p, n_g + 2w - 1)`` buffer: ``g_t`` is
    written into column ``w + t`` (:func:`_stacked_process`), the rows are
    centred by their means and cumulated in place into running sums
    ``c_j``, and ``s_j = c_{j+w} - c_j`` overwrites ``c_j`` in forward
    steps of :data:`_BOX_BLOCK` columns.  ``Psi`` is then one Gram product
    of the first ``n_g + w - 1`` columns, and the memory peak is about one
    ``g``.  As a Gram product, ``Psi`` is symmetric positive semidefinite
    without repair (Newey & West 1987).

    Parameters
    ----------
    x : ndarray
        The ``n x dbar`` squared-returns sample.
    bandwidth : int, optional
        Number of lags; defaults to ``floor(4 (n/100)^{2/9})``.

    Returns
    -------
    PsiEstimate
    """
    a = _as_sample(x)
    n = a.shape[0]
    if bandwidth is None:
        bandwidth = default_bandwidth(n)
    _check_count(bandwidth, "bandwidth")
    if n <= 10 * max(bandwidth, 1):
        raise InsufficientData(
            f"need more than {10 * max(bandwidth, 1)} observations for bandwidth "
            f"{bandwidth}, got {n}"
        )
    n_g, w = n - 2, bandwidth + 1
    # g' between w leading and w - 1 trailing zero columns, centred and
    # cumulated in place: column j then holds the running sum c_j.
    buf = _stacked_process(a, lead=w, trail=w - 1)
    g = buf[:, w : w + n_g]
    g -= g.mean(axis=1, keepdims=True)
    np.cumsum(buf[:, w:], axis=1, out=buf[:, w:])
    # s_j = c_{j+w} - c_j overwrites c_j; forward steps read only columns
    # not yet overwritten.
    windows = n_g + w - 1
    for j in range(0, windows, _BOX_BLOCK):
        e = min(j + _BOX_BLOCK, windows)
        np.subtract(buf[:, j + w : e + w], buf[:, j:e], out=buf[:, j:e])
    box = buf[:, :windows]
    return PsiEstimate(psi=box @ box.T / (n_g * w), bandwidth=int(bandwidth))
