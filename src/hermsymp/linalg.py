"""Gram-aware dense linear algebra helpers.

Subspace computations throughout the package are performed relative to an
explicit Hermitian positive-definite Gram matrix, because the natural
coordinate bases (e.g. cohomology bases of a curved torus) are not
orthonormal.
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


def max_abs(a) -> float:
    arr = np.asarray(a)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def gram_norm(gram: np.ndarray, v: np.ndarray) -> float:
    return math.sqrt(max(float(np.real(np.conj(v) @ gram @ v)), 0.0))


def gram_mgs(gram: np.ndarray, basis: np.ndarray, drop_tol: float) -> np.ndarray:
    """Modified Gram-Schmidt with respect to ``gram``, columns in input order.

    Columns whose residual norm falls at or below ``drop_tol * max(1, original
    norm)`` are dropped.  Two projection passes per column keep residuals of
    truly dependent columns at roundoff level, so the drop decision is sharp.
    The column order makes the result deterministic for identical input.
    """
    basis = as_complex_matrix(basis, "basis")
    n = basis.shape[0]
    kept: list[np.ndarray] = []
    for j in range(basis.shape[1]):
        v = basis[:, j].copy()
        orig = gram_norm(gram, v)
        for _ in range(2):
            for q in kept:
                v = v - q * (np.conj(q) @ gram @ v)
        nrm = gram_norm(gram, v)
        if nrm <= drop_tol * max(1.0, orig):
            continue
        kept.append(v / nrm)
    if not kept:
        return np.zeros((n, 0), dtype=np.complex128)
    return np.column_stack(kept)


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


def normalized_columns(mat: np.ndarray, drop_tol: float = 1e-14) -> np.ndarray:
    """Columns scaled to unit Euclidean norm; (near-)zero columns dropped."""
    mat = as_complex_matrix(mat)
    if mat.shape[1] == 0:
        return mat
    norms = np.linalg.norm(mat, axis=0)
    scale = max(float(norms.max()), 1.0)
    keep = norms > drop_tol * scale
    return mat[:, keep] / norms[keep]


def span_intersection(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Spanning set (possibly redundant columns) of span(a) & span(b)."""
    a_n = normalized_columns(a)
    b_n = normalized_columns(b)
    n = a_n.shape[0]
    if a_n.shape[1] == 0 or b_n.shape[1] == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    null = nullspace(np.hstack([a_n, -b_n]), tol)
    return a_n @ null[: a_n.shape[1], :]


def subspace_distance(gram: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> float:
    """sin of the largest principal angle between two gram-orthonormal spans.

    Computed from the projection residual rather than from the cosines, so
    small angles are resolved down to roundoff instead of sqrt(roundoff).
    """
    if b1.shape[1] != b2.shape[1]:
        return 1.0
    if b1.shape[1] == 0:
        return 0.0
    resid = b2 - b1 @ (b1.conj().T @ gram @ b2)
    m = resid.conj().T @ gram @ resid
    lam = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return math.sqrt(max(0.0, float(lam[-1])))


def gram_complement(gram: np.ndarray, basis: np.ndarray, tol: float) -> np.ndarray:
    """Gram-orthonormal basis of the gram-orthogonal complement of a span."""
    basis = as_complex_matrix(basis, "basis")
    null = nullspace(basis.conj().T @ gram, tol)
    return gram_mgs(gram, null, drop_tol=tol)


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out
