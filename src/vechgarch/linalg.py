"""Small dense linear-algebra kernel shared by the estimator modules.

Everything here operates on modest matrices (a handful of rows), so plain
LAPACK-backed numpy routines are used throughout.  The half-vectorisation
``vech`` stacks the lower triangle column by column, i.e. for a symmetric
``d x d`` matrix the entry order is ``(0,0), (1,0), ..., (d-1,0), (1,1),
(2,1), ...``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import (
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
    SingularLyapunov,
    SingularMatrix,
)

__all__ = [
    "EigenDecomposition",
    "vech",
    "unvech",
    "vech_indices",
    "vech_dim",
    "mat_dim",
    "vec",
    "unvec",
    "sym",
    "asymmetry",
    "check_symmetric",
    "eig",
    "dlyap",
    "cholesky",
    "solve",
    "rsolve",
    "lstsq",
    "spectral_radius",
    "power_sequence",
]


# Relative asymmetry (:func:`asymmetry`) up to which ``check_symmetric``
# accepts a matrix, and ``dlyap`` treats a right-hand side, as symmetric.
_SYMMETRY = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and unit-norm right eigenvectors (columns), both complex."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_array(value, name, shape=None, ndim=None, finite=True):
    """``value`` as a float array, of ``shape`` or with ``ndim`` dimensions
    when given and with finite entries unless ``finite`` is false; refused
    with ``InvalidInput`` naming it.

    The one check of every array a public function takes from its caller.
    """
    # Convert once and look at the dtype: a complex array, or a list that
    # holds a complex scalar, would otherwise lose its imaginary part.
    try:
        a = np.asarray(value)
        if a.dtype.kind == "c":
            raise InvalidInput(f"{name} must be an array of real numbers, got dtype {a.dtype}")
        a = a.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be an array of numbers: {exc}") from exc
    if shape is not None and a.shape != shape:
        raise InvalidInput(f"{name} must have shape {shape}, got {a.shape}")
    if ndim is not None and a.ndim != ndim:
        raise InvalidInput(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if finite and not np.isfinite(a).all():
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def _as_count(value, name, least=0):
    """``value`` as a plain ``int >= least``; refused with ``InvalidInput``
    naming it if it is no integer (a bool is none) or is smaller.

    The one check of every count a public function takes from its caller.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _as_square(m, name="matrix"):
    a = _as_array(m, name, ndim=2)
    if a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    return a


@lru_cache(maxsize=None)
def vech_indices(d):
    """Row/column index arrays of the lower triangle in vech order."""
    rows = []
    cols = []
    for j in range(d):
        for i in range(j, d):
            rows.append(i)
            cols.append(j)
    return np.asarray(rows), np.asarray(cols)


def vech_dim(d):
    """Length of the half-vectorisation of a ``d x d`` symmetric matrix."""
    d = _as_count(d, "d", least=1)
    return d * (d + 1) // 2


def mat_dim(dbar):
    """Invert ``d*(d+1)/2``; errors if ``dbar`` is not a triangular number."""
    dbar = _as_count(dbar, "dbar", least=1)
    d = (math.isqrt(8 * dbar + 1) - 1) // 2
    if d * (d + 1) // 2 != dbar:
        raise InvalidInput(f"{dbar} is not a valid vech length d*(d+1)/2")
    return d


def vech(m):
    """Half-vectorise a symmetric matrix (lower triangle, column by column)."""
    a = _as_square(m, "m")
    check_symmetric(a, "m")
    rows, cols = vech_indices(a.shape[0])
    return a[rows, cols].copy()


def unvech(v):
    """Rebuild the symmetric matrix whose half-vectorisation is ``v``."""
    x = _as_array(v, "v", ndim=1)
    d = mat_dim(x.shape[0])
    rows, cols = vech_indices(d)
    out = np.zeros((d, d))
    out[rows, cols] = x
    out[cols, rows] = x
    return out


def vec(m):
    """Stack the columns of a matrix into one vector; a stack ``(..., r, c)``
    of matrices gives a stack ``(..., r c)`` of vectors."""
    a = np.asarray(m)
    return a.swapaxes(-1, -2).reshape(a.shape[:-2] + (-1,))


def unvec(v, n_rows, n_cols):
    """Inverse of :func:`vec` for ``n_rows x n_cols`` matrices."""
    a = np.asarray(v)
    return a.reshape(a.shape[:-1] + (n_cols, n_rows)).swapaxes(-1, -2)


def sym(m):
    """Symmetric part ``(M + M') / 2``, of each matrix of a stack."""
    a = np.asarray(m)
    return 0.5 * (a + a.swapaxes(-1, -2))


def asymmetry(m):
    """Relative Frobenius asymmetry ``||M - M'|| / (1 + ||M||)``.

    A float for one matrix; an array with one value per matrix for a stack
    ``(..., n, n)``.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 2:
        return float(np.linalg.norm(a - a.T) / (1.0 + np.linalg.norm(a)))
    axes = (-2, -1)
    gap = np.linalg.norm(a - a.swapaxes(-1, -2), axis=axes)
    return gap / (1.0 + np.linalg.norm(a, axis=axes))


def check_symmetric(a, name="matrix"):
    """Refuse a square matrix whose :func:`asymmetry` exceeds ``_SYMMETRY``."""
    gap = asymmetry(a)
    if gap > _SYMMETRY:
        raise InvalidInput(f"{name} is not symmetric (relative asymmetry {gap:.3e})")


def eig(m):
    """Full complex eigendecomposition with unit-norm eigenvectors.

    Thin wrapper around LAPACK ``geev`` that maps a convergence failure to
    :class:`~vechgarch.exceptions.NumericalFailure` and normalises the
    output container.
    """
    a = _as_square(m)
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    return EigenDecomposition(values, vectors)


def spectral_radius(m):
    """Largest eigenvalue modulus of a square matrix."""
    a = _as_square(m)
    return float(np.abs(np.linalg.eigvals(a)).max())


_LYAPUNOV_MARGIN = 1e-10


def dlyap(b, q):
    """Solve the discrete Lyapunov equation ``X - B X B' = Q``.

    The equation is vectorised to ``(I - kron(B, B)) vec(X) = vec(Q)`` and
    solved directly, which is exact (up to rounding) and perfectly adequate
    at the matrix sizes this package works with.  Requires
    ``rho(B) < 1 - 1e-10`` so the operator is invertible with a margin.  A
    symmetric ``Q`` yields a symmetrised ``X``.

    ``Q`` may be a stack ``(..., n, n)`` of right-hand sides; the result is
    the matching stack of solutions.  The spectral-radius check runs once,
    the operator is solved once against every ``vec(Q)`` as a column, and
    each solution is symmetrised when its own ``Q`` is symmetric.
    """
    bm = _as_square(b, "B")
    qm = _as_array(q, "Q")
    if qm.shape[-2:] != bm.shape:
        raise InvalidInput(f"Q must be {bm.shape} like B, got shape {qm.shape}")
    rho = spectral_radius(bm)
    if rho >= 1.0 - _LYAPUNOV_MARGIN:
        raise SingularLyapunov(
            f"spectral radius {rho:.6g} >= {1.0 - _LYAPUNOV_MARGIN:.6g}; "
            "the Lyapunov operator is singular or nearly so"
        )
    n = bm.shape[0]
    op = np.eye(n * n) - np.kron(bm, bm)
    rhs = vec(qm)
    x = unvec(np.linalg.solve(op, rhs.reshape(-1, n * n).T).T.reshape(rhs.shape), n, n)
    symmetric = asymmetry(qm) <= _SYMMETRY
    return np.where(np.expand_dims(symmetric, (-2, -1)), sym(x), x)


def cholesky(m, name="matrix"):
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    a = _as_square(m, name)
    check_symmetric(a, name)
    try:
        return np.linalg.cholesky(sym(a))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite") from exc


# Smallest ratio of extreme singular values of a non-singular square matrix.
_RCOND = 1e-13


def _check_invertible(a, name):
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= _RCOND * s[0]:
        raise SingularMatrix(
            f"{name} is singular to working precision "
            f"(smallest/largest singular value ratio {0.0 if s[0] == 0 else s[-1] / s[0]:.3e})"
        )


def solve(a, b, name="matrix"):
    """Solve ``A X = B`` for square ``A`` with an explicit singularity check."""
    am = _as_square(a, name)
    bm = _as_array(b, "b")
    if bm.ndim > 2 or bm.shape[:1] != am.shape[:1]:
        raise InvalidInput(f"b of shape {bm.shape} does not match {name} of shape {am.shape}")
    _check_invertible(am, name)
    return np.linalg.solve(am, bm)


def rsolve(b, a, name="matrix"):
    """Solve ``X A = B`` for square ``A`` (right division ``B A^{-1}``).

    ``B`` may be a stack ``(..., p, n)``: ``A`` is checked once and every
    row of every slice is solved in one call.
    """
    am = _as_square(a, name)
    bm = _as_array(b, "b")
    if bm.shape[-1:] != am.shape[:1]:
        raise InvalidInput(f"b of shape {bm.shape} does not match {name} of shape {am.shape}")
    _check_invertible(am, name)
    rows = bm.reshape(-1, am.shape[0])
    return np.linalg.solve(am.T, rows.T).T.reshape(bm.shape)


def lstsq(a, b):
    """Minimise ``||X A - B||_F`` over ``X``.

    ``A`` is ``q x r`` and ``B`` is ``p x r``; the solution is ``p x q``.
    Rank deficiency of ``A`` (non-unique minimiser) raises
    :class:`~vechgarch.exceptions.SingularMatrix`.
    """
    am = _as_array(a, "A", ndim=2)
    bm = _as_array(b, "B", ndim=2)
    if am.shape[1] != bm.shape[1]:
        raise InvalidInput(
            f"A and B must have the same number of columns, got {am.shape} and {bm.shape}"
        )
    xt, _, rank, _ = np.linalg.lstsq(am.T, bm.T, rcond=None)
    if rank < am.shape[0]:
        raise SingularMatrix(
            f"least-squares design has rank {rank} < {am.shape[0]}; minimiser is not unique"
        )
    return xt.T


def power_sequence(m, k_max):
    """Return ``[I, M, M^2, ..., M^k_max]``, accumulated incrementally."""
    a = _as_square(m)
    powers = [np.eye(a.shape[0])]
    for _ in range(_as_count(k_max, "k_max")):
        powers.append(powers[-1] @ a)
    return powers
