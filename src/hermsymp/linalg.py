"""Dense linear algebra helpers in Euclidean coordinates.

No helper here sees a Gram matrix.  A :class:`~hermsymp.spaces.HermitianSymplecticSpace`
owns its frame: it keeps the Cholesky factor ``U`` of its Gram matrix
(``gram = U^H U``) and hands whitened blocks ``U x``, in which the Gram inner
product is the Euclidean one, or the factor itself to the one rank rule of
a span, :func:`gram_mgs`: Gram-Schmidt's drops, in input order, on the QR of
:func:`span_qr`.

This module owns every LAPACK call of the numeric modules: ``spaces``,
``maslov``, ``bordism`` and ``torus`` reach LAPACK only through the QR of
:func:`span_qr` and the functions below it, one per routine, each on a complex
matrix or a stack of them.  Each calls the ``numpy.linalg._umath_linalg``
gufunc that ``numpy.linalg``'s own function calls, with the same signature and
floating-point error state, so it returns that function's values bit for bit
and raises its :class:`numpy.linalg.LinAlgError` on singular,
non-positive-definite or non-convergent input; empty (k = 0) matrices pass
through.  What it skips is numpy's Python wrapper, which costs more than
LAPACK itself on the small matrices of a pair invariant: at k = 1 about
11 us against 3 us for an ``svd``, 10 against 2 for ``eigvals`` and 8 against
2 for ``inv`` (timeit minima, numpy 2.4.6).  ``numpy>=2.0`` provides these
gufunc names.
"""
from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

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


def unit_columns(a: np.ndarray) -> np.ndarray:
    """``a`` with each column, over the second-to-last axis, scaled by the power
    of two that brings its largest modulus into [0.5, 1); a column of
    subnormal numbers or zeros by 2^1021, one whose largest modulus is at
    least 2^1023 by 2^-1022, so that the factor stays a normal number.

    An entry that stays at least 2^-1022 is scaled exactly; a smaller one, more
    than 2^1020 below its column's largest modulus, is rounded to a subnormal
    number.  A non-finite column is left as it is.
    """
    _, exp = np.frexp(np.abs(a).max(axis=-2, keepdims=True, initial=2.0**-1022))
    return a * np.ldexp(1.0, -np.minimum(exp, 1022))


def whitened_columns(upper: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``U basis`` with each column times a power of two, on a matrix or a
    stack, ``upper`` broadcasting against ``basis``: ``basis`` is scaled by
    :func:`unit_columns` before the product, which then cannot overflow, and
    the product after, so that a column's sum of squares stays in the double
    range.  The scaling is exact, so a rule relative to a column's own norm
    decides as on ``U b_j`` itself.
    """
    return unit_columns(upper @ unit_columns(basis))


# Whitened column norms whose squares, and those of residuals down to 2^-250
# of them, stay normal numbers.  span_qr takes the plain U b and switches to
# whitened_columns once a norm leaves this range or overflows: scaling on
# every call cost the bordism benchmark 9% of its ops_per_s, and torus-sweep
# 3.5%.
NORM_RANGE = (2.0**-250, 2.0**250)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """``numpy.linalg.norm(x, axis=-2)``, the operations it performs without its wrapper."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-2))


def span_qr(upper: np.ndarray, basis: np.ndarray, drop_tol: float):
    """One QR of ``U basis``, on a matrix of at most ``rows`` columns or a
    stack of them, ``upper`` broadcasting against ``basis``: the step of
    :func:`gram_mgs`, and of the stacked spans of
    :func:`~hermsymp.maslov.m_stack`.

    Returns ``(q, diag, kept)``: the whitened orthonormal columns, the real
    diagonal of R, and flags of the columns with ``|R_jj| > drop_tol |U b_j|``,
    the drop rule of :func:`gram_mgs`.  Through the first dropped column the
    flags are Gram-Schmidt's verdict, and before it ``q`` times the sign of
    ``diag`` is its basis up to roundoff; after it neither holds.  A norm outside
    :data:`NORM_RANGE`, or an overflow, switches the whole product to
    :func:`whitened_columns`.  A column with a non-finite entry is never kept,
    and raises no warning.

    These are the two LAPACK calls of ``numpy.linalg.qr`` (``geqrf`` leaves R in
    the upper triangle of its argument), without its Python wrapper: that
    costs about 18 us a call, half of a k = 1 Lagrangian construction.
    """
    lo, hi = NORM_RANGE
    with np.errstate(over="ignore", invalid="ignore"):
        whitened = upper @ basis
        norms = _column_norms(whitened)
        if not ((lo <= norms) & (norms <= hi)).all():
            whitened = whitened_columns(upper, basis)
            norms = _column_norms(whitened)
    tau = _umath_linalg.qr_r_raw(whitened, signature="D->D")
    q = _umath_linalg.qr_reduced(whitened, tau, signature="DD->D")
    diag = np.diagonal(whitened, axis1=-2, axis2=-1).real
    return q, diag, np.abs(diag) > drop_tol * norms


def gram_mgs(upper: np.ndarray, basis: np.ndarray, drop_tol: float) -> np.ndarray:
    """The one rank rule of a span: an orthonormal basis of the span of
    ``basis`` in the whitened coordinates ``U x`` (``gram = U^H U``, ``upper``
    the factor ``U`` a space keeps), Gram-Schmidt's columns in input order.

    Column j is dropped when its residual against the columns kept before it
    is at most ``drop_tol`` times its whitened norm ``|U b_j|``.  Until a
    column drops, that residual is the ``|R_jj|`` of :func:`span_qr`, so the
    QR's first flagged column is Gram-Schmidt's first drop: it is deleted and
    the QR rerun on the rest, at most ``rows`` columns at a time (past
    ``rows`` kept columns every column is dependent).  The kept columns are
    the QR's, signed so that ``R_jj > 0``; a column with a non-finite entry is
    never kept.  The name predates the algorithm; the benchmark tracer wraps
    it and counts columns through ``basis``, the second argument.
    """
    basis = as_complex_matrix(basis, "basis")
    rows = basis.shape[0]
    q, diag, kept = span_qr(upper, basis[:, :rows], drop_tol)
    while not kept.all():
        basis = np.delete(basis, kept.argmin(), axis=1)
        q, diag, kept = span_qr(upper, basis[:, :rows], drop_tol)
    return q * np.sign(diag)


def _lapack(failure: str):
    """The error state of ``numpy.linalg``'s wrappers, as a decorator: a routine
    that fails sets the invalid flag, and the call raises
    ``LinAlgError(failure)``; overflow, division and underflow stay silent."""

    def fail(err, flag):
        raise np.linalg.LinAlgError(failure)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_lapack("SVD did not converge")
def singular_values(a):
    """``numpy.linalg.svd(a, compute_uv=False)``: descending singular values."""
    return _umath_linalg.svd(a, signature="D->d")


@_lapack("SVD did not converge")
def svd(a):
    """``numpy.linalg.svd(a)``: ``(u, s, vh)`` with square ``u`` and ``vh``."""
    return _umath_linalg.svd_f(a, signature="D->DdD")


@_lapack("Eigenvalues did not converge")
def eigvals(a):
    """``numpy.linalg.eigvals(a)``, which rejects non-finite input first."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    return _umath_linalg.eigvals(a, signature="D->D")


@_lapack("Eigenvalues did not converge")
def eigvalsh(a):
    """``numpy.linalg.eigvalsh(a)``: ascending eigenvalues of a Hermitian ``a``,
    read from its lower triangle."""
    return _umath_linalg.eigvalsh_lo(a, signature="D->d")


@_lapack("Eigenvalues did not converge")
def eigh(a):
    """``numpy.linalg.eigh(a)``: ``(w, v)``, ascending eigenvalues of a
    Hermitian ``a``, read from its lower triangle, and orthonormal eigenvectors."""
    return _umath_linalg.eigh_lo(a, signature="D->dD")


@_lapack("Singular matrix")
def inv(a):
    """``numpy.linalg.inv(a)``."""
    return _umath_linalg.inv(a, signature="D->D")


@_lapack("Singular matrix")
def solve(a, b):
    """``numpy.linalg.solve(a, b)`` for a matrix ``b``, or a stack of them."""
    return _umath_linalg.solve(a, b, signature="DD->D")


@_lapack("Matrix is not positive definite")
def cholesky(a):
    """``numpy.linalg.cholesky(a)``: the lower factor ``L`` with ``a = L L^H``."""
    return _umath_linalg.cholesky_lo(a, signature="D->D")


def nullspace(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the right null space, singular values below ``tol``."""
    mat = as_complex_matrix(mat)
    rows, cols = mat.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = svd(mat)
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
