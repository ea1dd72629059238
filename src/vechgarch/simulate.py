"""Path simulation for the vech-GARCH(1,1) recursion.

Draws use ``numpy.random.Generator`` seeded with the counter-based Philox
bit generator, whose stream is documented and stable across numpy
releases, so a given seed gives the same draws everywhere.  The path built
from them is bitwise reproducible only for one numpy build, one BLAS build
and one CPU: at d >= 2 the recursion's matrix-vector products go through
BLAS ``gemv``, whose rounding depends on the kernel the BLAS picks for the
CPU (OpenBLAS chooses at run time, and its kernels differ in where they
fuse multiply-adds).  The noise block is drawn up front as
``standard_normal((burn_in + n, d))`` and consumed row by row; that draw
order is part of the reproducibility contract.  So is its consequence, the
prefix property: for ``n1 <= n2``, ``simulate(spec, n2, seed).y[:n1]``
equals ``simulate(spec, n1, seed).y`` bitwise, and so does ``h_path``.
The ``montecarlo`` command relies on it to simulate each replication once,
at the largest sample size.

At d >= 2 the recursion runs a stack of paths together in one pass, one
batched Cholesky factorisation and a few batched products per step; every
path is computed with the same per-path arithmetic as a path run alone.  A
path whose covariance fails to be positive definite stays in the stack: its
factor, and from then on its returns and states, are NaN, and its failing
step is read off afterwards as its first NaN return.  A stack of one path
runs the same steps on 1-D views with ``np.dot``, which calls the same
BLAS routine, so it too is bitwise the path a larger stack gives.

Returns go to CSV as a header ``y1,...,yd`` and one line per observation:
``%.17g`` fields joined by ``,``, each line ended by ``\n``, the bytes that
``np.savetxt(path, y, fmt="%.17g", delimiter=",", header=..., comments="")``
writes.  Seventeen significant digits round-trip a double, so
:func:`read_returns_csv` reads the returns back bitwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import linalg
from .exceptions import InvalidInput, PositivityViolation

__all__ = ["SimulationResult", "simulate", "to_x", "write_returns_csv", "read_returns_csv"]


@dataclass(frozen=True)
class SimulationResult:
    """A simulated sample path.

    ``y`` holds the ``n x d`` returns and ``h_path`` the matching
    ``n x dbar`` half-vectorised conditional covariances (the variance that
    generated each row of ``y``).
    """

    y: np.ndarray
    h_path: np.ndarray
    seed: int
    burn_in: int


def simulate(spec, n, seed, burn_in=1000):
    """Simulate ``n`` observations from a stationary spec.

    Parameters
    ----------
    spec : GarchSpec
        Must be stationary; the recursion starts at the unconditional
        covariance and runs ``burn_in`` warm-up steps that are discarded.
    n : int
        Number of retained observations.
    seed : int
        Non-negative seed for the Philox bit generator.
    burn_in : int, optional
        Warm-up length, 1000 by default.

    Returns
    -------
    SimulationResult

    Raises
    ------
    PositivityViolation
        If some conditional covariance fails to be positive definite; the
        exception carries the zero-based recursion step (burn-in included).
    """
    y, h_path, fail = _simulate_paths(spec, n, [seed], burn_in=burn_in)
    step = int(fail[0])
    if step < burn_in + n:
        if spec.d == 1:
            what = f"conditional variance {h_path[step, 0, 0]:.6g} is not positive"
        else:
            what = "conditional covariance is not positive definite"
        raise PositivityViolation(f"{what} at step {step}", step=step)
    return SimulationResult(y=y[burn_in:, 0], h_path=h_path[burn_in:, 0], seed=seed,
                            burn_in=burn_in)


def _simulate_paths(spec, n, seeds, burn_in):
    """Run :func:`simulate` for several seeds through one stacked recursion.

    Each seed draws its own noise block exactly as ``simulate`` does, so
    path ``r`` equals ``simulate(spec, n, seeds[r], burn_in)`` bitwise
    wherever that call returns.  Returns ``y`` of shape
    ``(burn_in + n, R, d)`` and ``h_path`` of shape ``(burn_in + n, R, dbar)``,
    burn-in included, and ``fail``: for each path the step at which its
    conditional covariance first failed to be positive definite, or
    ``burn_in + n``.  A failed path's rows from ``fail`` on are NaN, except
    ``h_path[fail]``, which holds the covariance that failed.
    """
    n = linalg._as_count(n, "n", least=1)
    burn_in = linalg._as_count(burn_in, "burn_in")
    seeds = [linalg._as_count(seed, "seed") for seed in seeds]
    from .model import uncond_h  # local import to avoid a cycle at import time

    h0 = uncond_h(spec)
    total = burn_in + n
    eps = np.empty((total, len(seeds), spec.d))
    for r, seed in enumerate(seeds):
        eps[:, r] = np.random.Generator(np.random.Philox(seed)).standard_normal((total, spec.d))
    if spec.d == 1:
        return _recursion_scalar(spec, h0, eps)
    return _recursion(spec, h0, eps)


def _recursion_scalar(spec, h0, eps):
    # Plain-float loop, one path at a time: identical arithmetic to the
    # generic path but far cheaper, which matters for Monte Carlo runs with
    # n ~ 1e5.
    c = float(spec.c[0])
    a = float(spec.A[0, 0])
    b = float(spec.B[0, 0])
    total, paths, _ = eps.shape
    y = np.full((total, paths, 1), np.nan)
    h_path = np.full((total, paths, 1), np.nan)
    fail = np.full(paths, total)
    for r in range(paths):
        h = float(h0[0])
        ys = []
        hs = []
        for t, e in enumerate(eps[:, r, 0].tolist()):
            hs.append(h)
            if not h > 0.0:
                fail[r] = t
                break
            yv = math.sqrt(h) * e
            ys.append(yv)
            h = c + a * (yv * yv) + b * h
        y[: len(ys), r, 0] = ys
        h_path[: len(hs), r, 0] = hs
    return y, h_path, fail


def _recursion(spec, h0, eps):
    # Runs all paths of eps, shape (total, R, d), through every step at once.
    # Step t reads h_path[t] and writes y[t] and h_path[t + 1].
    total, paths, d = eps.shape
    k = h0.shape[0]
    y = np.empty_like(eps)
    # Row t + 1 receives h_{t+1} from step t, so one spare row at the end.
    h_path = np.empty((total + 1, paths, k))
    h_path[0] = h0
    rows, cols = linalg.vech_indices(d)
    # Flat indices into one step's (R, dbar) states and (R, d) returns, so
    # each gather is a single take into a preallocated buffer.
    path = np.arange(paths)[:, None]
    fill = path[:, :, None] * k + linalg.unvech(np.arange(k)).astype(np.intp)
    a, b = spec.A, spec.B
    if paths == 1:
        # One path: the same steps on its 1-D and 2-D views.  np.dot of a
        # matrix and a vector makes the cblas_dgemv call that np.matmul makes
        # for a (1, k, k) @ (1, k, 1) stack, with less dispatch around it, so
        # the path is bitwise the same.
        fill, pick_rows, pick_cols, c = fill[0], rows, cols, spec.c
        eps_col, y_col, h_col = eps[:, 0], y[:, 0], h_path[:, 0]
        square, column, product = (d, d), (k,), np.dot
    else:
        pick_rows = (path * d + rows)[..., None]
        pick_cols = (path * d + cols)[..., None]
        c = np.tile(spec.c[:, None], (paths, 1, 1))
        eps_col, y_col, h_col = eps[..., None], y[..., None], h_path[..., None]
        square, column, product = (paths, d, d), (paths, k, 1), np.matmul
    hfull, chol = np.empty(square), np.empty(square)
    x, x_cols, ax, bh = (np.empty(column) for _ in range(4))
    # The gufunc behind np.linalg.cholesky, called directly: the wrapper's
    # checks and errstate cost more than the factorisation of a small matrix.
    # A failed factorisation fills only that path's factor with NaN.
    cholesky = _umath_linalg.cholesky_lo
    multiply, add = np.multiply, np.add
    with np.errstate(invalid="ignore"):
        for t in range(total):
            h = h_col[t]
            h.take(fill, None, hfull, "clip")
            cholesky(hfull, out=chol, signature="d->d")
            yt = y_col[t]
            product(chol, eps_col[t], yt)
            # x_t = vech(y_t y_t'), then h_{t+1} = c + A x_t + B h_t.
            yt.take(pick_rows, None, x, "clip")
            yt.take(pick_cols, None, x_cols, "clip")
            multiply(x, x_cols, x)
            product(a, x, ax)
            product(b, h, bh)
            h_next = h_col[t + 1]
            add(c, ax, h_next)
            add(h_next, bh, h_next)
    # A failed path's factor is NaN, so are its return and every later
    # state and return; a path that has not failed has finite returns.
    nan = np.isnan(y[:, :, 0])
    fail = np.where(nan.any(axis=0), nan.argmax(axis=0), total)
    return y, h_path[:total], fail


def to_x(y):
    """Map returns to half-vectorised outer products ``x_t = vech(y_t y_t')``."""
    a = linalg._as_array(y, "y")
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise InvalidInput(f"y must be an n x d matrix, got shape {a.shape}")
    rows, cols = linalg.vech_indices(a.shape[1])
    return a[:, rows] * a[:, cols]


_CSV_BLOCK_ROWS = 4096


def write_returns_csv(y, path):
    """Write returns to CSV with header ``y1,...,yd`` at full precision.

    The bytes are those of the ``np.savetxt`` call in the module docstring.
    """
    a = linalg._as_array(y, "y", ndim=2, finite=False)
    row = ",".join(["%.17g"] * a.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"y{i + 1}" for i in range(a.shape[1])) + "\n")
        # One % per block of rows: formatting Python floats in one pass is
        # several times cheaper than savetxt's numpy scalars row by row.
        for start in range(0, a.shape[0], _CSV_BLOCK_ROWS):
            block = a[start : start + _CSV_BLOCK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def read_returns_csv(path):
    """Read a returns CSV written by :func:`write_returns_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        names = header.split(",") if header else []
        expected = [f"y{i + 1}" for i in range(len(names))]
        if not names or names != expected:
            raise InvalidInput(f"CSV header must be y1,...,yd, got {header!r}")
        try:
            with warnings.catch_warnings():
                # An empty body is refused below; numpy's warning would only
                # precede that error.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidInput(f"cannot read returns from {path}: {exc}") from exc
    if data.size == 0:
        raise InvalidInput("CSV contains no data rows")
    if data.shape[1] != len(names):
        raise InvalidInput(
            f"CSV rows have {data.shape[1]} columns but header names {len(names)}"
        )
    return data
