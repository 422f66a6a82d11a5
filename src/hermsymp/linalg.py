"""Dense linear algebra helpers in Euclidean coordinates.

No helper here sees a Gram matrix.  A :class:`~hermsymp.spaces.HermitianSymplecticSpace`
owns its frame: it keeps the Cholesky factor ``U`` of its Gram matrix
(``gram = U^H U``) and hands whitened blocks ``U x``, in which the Gram inner
product is the Euclidean one, or the factor itself to :func:`gram_mgs`.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes, of a matrix or a stack of them."""
    return a.conj().swapaxes(-1, -2)


def max_abs(a):
    """Largest entry modulus of a matrix, or of each matrix of a stack; 0 if empty."""
    return np.abs(a).max(axis=(-2, -1), initial=0.0)


def gram_mgs(upper: np.ndarray, basis: np.ndarray, drop_tol: float) -> np.ndarray:
    """Gram-orthonormal basis of the span of ``basis``, columns in input order.

    ``upper`` is the upper Cholesky factor ``U`` of the Gram matrix
    (``gram = U^H U``), as a space keeps it.  Classical Gram-Schmidt with
    reorthogonalization in the whitened coordinates: each column of
    ``U @ basis`` gets two block projections ``v -= Q (Q^H v)`` against the
    columns kept so far; one solve with ``U`` maps ``Q`` back.  Column j is
    dropped when its residual is at most ``drop_tol`` times its own whitened
    norm ``|U b_j|``, a rule without units, else kept as that residual
    normalized.  The name predates the algorithm; the benchmark tracer wraps
    it and counts columns through ``basis``, the second argument.
    """
    basis = as_complex_matrix(basis, "basis")
    n, cols = basis.shape
    q = np.empty((n, cols), dtype=np.complex128)
    q_h = np.empty((cols, n), dtype=np.complex128)  # conjugate rows of q
    kept = 0
    for v in (upper @ basis).T:
        limit = drop_tol * math.sqrt(np.vdot(v, v).real)
        for _ in range(2 if kept else 0):
            v = v - q[:, :kept] @ (q_h[:kept] @ v)
        nrm = math.sqrt(np.vdot(v, v).real)
        if nrm <= limit:
            continue
        q[:, kept] = v = v / nrm
        q_h[kept] = v.conj()
        kept += 1
    return np.linalg.solve(upper, q[:, :kept])


def singular_values(mat: np.ndarray) -> np.ndarray:
    mat = as_complex_matrix(mat)
    if mat.size == 0:
        return np.zeros(0)
    return np.linalg.svd(mat, compute_uv=False)


def nullspace(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the right null space, singular values below ``tol``."""
    mat = as_complex_matrix(mat)
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T


def span_intersection(
    a: np.ndarray, b: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient blocks ``(x, y)`` of the null space of ``[a | -b]``.

    The stacked columns of ``[x; y]`` are an orthonormal basis of the right
    null space, taking singular values at most ``tol`` as zero, so the columns
    of ``a @ x`` (equal to ``b @ y``) span ``span(a) & span(b)``.  They may be
    linearly dependent, or zero, when ``a`` or ``b`` has dependent columns.
    """
    null = nullspace(np.hstack([a, -b]), tol)
    return null[: a.shape[1]], null[a.shape[1] :]


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out
