"""Sample moments of the squared-returns series and long-run covariances.

The estimator consumes the sample mean of ``x_t = vech(y_t y_t')`` and its
autocovariances: lags 0 to 2 for the lag-1 fit, up to ``K + 1`` for a fit
that pools ``K`` lag identities, all from :func:`sample_moments`.  For
delta-method standard errors this module also estimates the long-run
covariance ``Psi`` of the stacked moment process

    g_t = (x_t, vec(z_t z_t'), vec(z_{t+1} z_t'), vec(z_{t+2} z_t')),

where ``z_t = x_t - mean`` and ``vec`` stacks columns.  The estimate is the
Bartlett-kernel (Newey-West) HAC, a box filter over ``g_t`` that is built
and consumed in blocks of columns, so beyond a centred copy of the sample
its working memory is ``O(p (block + bandwidth))`` floats,
``p = dbar + 3 dbar^2``, whatever the sample length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import InsufficientData
from .model import MomentSet

__all__ = [
    "PsiEstimate",
    "sample_moments",
    "default_bandwidth",
    "hac_psi",
]


@dataclass(frozen=True)
class PsiEstimate:
    """Long-run covariance of the stacked moment process.

    ``psi`` is symmetric positive semidefinite by construction: it is a sum
    of Gram products of moving sums, one per block of :func:`hac_psi`.
    """

    psi: np.ndarray
    bandwidth: int

    def __post_init__(self):
        object.__setattr__(self, "psi", linalg._as_square(self.psi, "psi"))
        object.__setattr__(self, "bandwidth", linalg._as_count(self.bandwidth, "bandwidth"))


def sample_moments(x, max_lag=2):
    """Mean and autocovariances ``m0 .. m_max_lag`` of an ``n x dbar`` sample.

    Lag ``k`` pairs ``(x_{t+k}, x_t)`` are averaged with divisor ``n - k``;
    the mean is the full-sample average and is used to centre every lag.
    The default depth 2 is what the lag-1 estimator reads; a fit pooling
    ``K`` lag identities needs ``max_lag = K + 1``.

    Raises
    ------
    InvalidInput
        If ``max_lag`` is not an integer >= 2.
    InsufficientData
        If fewer than ``max_lag + 2`` observations are supplied.
    """
    a = linalg._as_array(x, "x", ndim=2)
    max_lag = linalg._as_count(max_lag, "max_lag", least=2)
    n = a.shape[0]
    if n < max_lag + 2:
        raise InsufficientData(f"need at least {max_lag + 2} observations, got {n}")
    mean = a.mean(axis=0)
    z = a - mean
    m0, m1, m2, *higher = (z[k:].T @ z[: n - k] / (n - k) for k in range(max_lag + 1))
    return MomentSet(mean=mean, m0=m0, m1=m1, m2=m2, higher=higher)


def default_bandwidth(n):
    """Bartlett-kernel bandwidth ``floor(4 (n/100)^{2/9})``."""
    n = linalg._as_count(n, "n")
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


# Columns of the stacked process per block of ``hac_psi``; each block adds
# one Gram product of this width to Psi, and the working memory is about
# p * (width + bandwidth) floats whatever n is.  At n = 2e4 and d = 1, 2, 3
# (2 cores, OpenBLAS), 4096 ran as fast as one whole-sample Gram product,
# while 2048 cost up to 1.5 times as much at d = 1, where the per-block
# overhead dominates (interleaved medians in CHANGES.md).
_BOX_BLOCK = 4096


def _stacked_columns(out, a, zt, t0):
    """Write ``g_{t0}, g_{t0+1}, ...`` into the columns of ``out``.

    ``out`` is a ``(p, b)`` view, ``p = dbar + 3 dbar^2``, and ``zt`` the
    centred sample, transposed.  Row ``dbar + l dbar^2 + j dbar + i`` holds
    ``z_{t+l,i} z_{t,j}``, entry ``j dbar + i`` of ``vec(z_{t+l} z_t')``.
    Only ``g_t`` with ``t < n - 2`` exist; returns how many were written,
    and leaves the columns after them untouched.
    """
    k = a.shape[1]
    m = max(0, min(out.shape[1], a.shape[0] - 2 - t0))
    out[:k, :m] = a[t0 : t0 + m].T
    # The lag-l block, split into (j, i, t), is z_{t,j} z_{t+l,i}.
    lagged = out[k:, :m].reshape(3, k, k, m)
    for lag in range(3):
        np.multiply(zt[:, None, t0 : t0 + m], zt[None, :, t0 + lag : t0 + lag + m],
                    out=lagged[lag])
    return m


def hac_psi(x, bandwidth=None):
    """Bartlett-kernel HAC estimate of the long-run covariance of ``g_t``.

    With ``w = bandwidth + 1`` and ``Gamma_l = (1/n_g) sum_t g_{t+l} g_t'``
    the Bartlett (Newey-West) sum

        Psi = sum_{|l| < w} (1 - |l| / w) Gamma_l

    is computed as a box filter: every moving sum ``s_j`` of ``w``
    consecutive centred ``g_t`` (the series zero-padded at both ends, so
    ``n_g + w - 1`` windows) holds a lag-``l`` pair in ``w - l`` windows, so
    ``Psi = sum_j s_j s_j' / (n_g w)`` exactly.

    The ``g_t`` are streamed in blocks of :data:`_BOX_BLOCK` columns
    through one ``(p, w + _BOX_BLOCK)`` buffer, so the working memory does
    not grow with ``n``.  Each block writes its ``g_t`` after the last
    ``w`` running sums of the previous block (zeros before the first),
    centres them by the row means of ``g``, computed once before the loop,
    continues the running sums ``c_j`` from that carried column, lets
    ``s_j = c_j - c_{j-w}`` overwrite ``c_{j-w}`` in forward steps, and
    adds the Gram product of its ``s_j`` to ``Psi``.  As a sum of Gram
    products, ``Psi`` is symmetric positive semidefinite without repair
    (Newey & West 1987).

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
    a = linalg._as_array(x, "x", ndim=2)
    n = a.shape[0]
    if bandwidth is None:
        bandwidth = default_bandwidth(n)
    bandwidth = linalg._as_count(bandwidth, "bandwidth")
    if n <= 10 * max(bandwidth, 1):
        raise InsufficientData(
            f"need more than {10 * max(bandwidth, 1)} observations for bandwidth "
            f"{bandwidth}, got {n}"
        )
    n_g, w = n - 2, bandwidth + 1
    zt = np.subtract(a.T, a.mean(axis=0)[:, None], order="C")
    # Row means of g: the x rows, then sum_t z_{t,j} z_{t+l,i} at (j, i).
    mean = np.concatenate([a[:n_g].mean(axis=0)] + [
        (zt[:, :n_g] @ zt[:, lag : lag + n_g].T).ravel() / n_g for lag in range(3)
    ])[:, None]
    p = mean.shape[0]
    # Column w + i holds c_{t0+i} of the block at t0, after c_{t0-w} ..
    # c_{t0-1} in the first w columns.
    buf = np.zeros((p, w + _BOX_BLOCK))
    psi = np.zeros((p, p))
    windows, step = n_g + w - 1, _BOX_BLOCK // 8
    for t0 in range(0, windows, _BOX_BLOCK):
        b = min(_BOX_BLOCK, windows - t0)
        block = buf[:, w : w + b]
        m = _stacked_columns(block, a, zt, t0)
        block[:, :m] -= mean
        block[:, m:] = 0.0  # the w - 1 windows past the last g_t
        block[:, 0] += buf[:, w - 1]
        np.cumsum(block, axis=1, out=block)
        # s_j = c_j - c_{j-w} overwrites c_{j-w}; forward steps read only
        # columns not yet overwritten.  A step wider than w reads columns
        # it also writes, which numpy's overlap rule makes safe by copying
        # the read operand, so steps of an eighth of a block bound that
        # copy; one step per block raised the cli_fit_se peak RSS by 4 MB.
        for j in range(0, b, step):
            e = min(j + step, b)
            np.subtract(buf[:, j + w : e + w], buf[:, j:e], out=buf[:, j:e])
        box = buf[:, :b]
        psi += box @ box.T
        buf[:, :w] = buf[:, b : b + w]
    psi /= n_g * w
    return PsiEstimate(psi=psi, bandwidth=bandwidth)
