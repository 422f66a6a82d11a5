"""Dense linear algebra helpers in Euclidean coordinates.

No helper here sees a Gram matrix.  A :class:`~hermsymp.spaces.HermitianSymplecticSpace`
owns its frame: it keeps the Cholesky factor ``U`` of its Gram matrix
(``gram = U^H U``) and hands whitened blocks ``U x``, in which the Gram inner
product is the Euclidean one, or the factor itself to the span kernels:
:func:`span_qr`, the one rank rule for spans of exactly k columns, and
:func:`gram_mgs` for any other column count.
"""
from __future__ import annotations

import math

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
# of them, stay normal numbers.  Both span kernels (span_qr, the one rank rule
# for exactly k columns, and gram_mgs for any other count) take the plain U b
# and switch to whitened_columns once a norm leaves this range or overflows:
# scaling on every call cost the bordism benchmark 9% of its ops_per_s, and
# torus-sweep 3.5%.
NORM_RANGE = (2.0**-250, 2.0**250)


def gram_mgs(upper: np.ndarray, basis: np.ndarray, drop_tol: float) -> np.ndarray:
    """Gram-orthonormal basis of the span of ``basis``, columns in input order.

    ``upper`` is the upper Cholesky factor ``U`` of the Gram matrix
    (``gram = U^H U``), as a space keeps it.  Classical Gram-Schmidt with
    reorthogonalization in the whitened coordinates: each column of
    ``U @ basis`` gets two block projections ``v -= Q (Q^H v)`` against the
    columns kept so far; one solve with ``U`` maps ``Q`` back.  Column j is
    dropped when its residual is at most ``drop_tol`` times its own whitened
    norm ``|U b_j|``, a rule without units, else kept as that residual
    normalized.  From the first column whose whitened norm lies outside
    :data:`NORM_RANGE`, or overflows, on, the columns are those of
    :func:`whitened_columns`, exactly scaled, so no norm leaves the double
    range.  A Lagrangian's span of exactly half-dimension columns goes to
    :func:`span_qr` first, and here only once that QR drops a column.  The
    name predates the algorithm; the benchmark tracer wraps it
    and counts columns through ``basis``, the second argument.
    """
    basis = as_complex_matrix(basis, "basis")
    n, cols = basis.shape
    q = np.empty((n, cols), dtype=np.complex128)
    q_h = np.empty((cols, n), dtype=np.complex128)  # conjugate rows of q
    kept = 0
    lo, hi = NORM_RANGE
    with np.errstate(over="ignore", invalid="ignore"):  # then whitened again below
        whitened, scaled = upper @ basis, False
    for j in range(cols):
        v = whitened[:, j]
        norm = math.sqrt(np.vdot(v, v).real)
        if not (scaled or lo <= norm <= hi):
            whitened, scaled = whitened_columns(upper, basis), True
            v = whitened[:, j]
            norm = math.sqrt(np.vdot(v, v).real)
        limit = drop_tol * norm
        for _ in range(2 if kept else 0):
            v = v - q[:, :kept] @ (q_h[:kept] @ v)
        nrm = math.sqrt(np.vdot(v, v).real)
        if nrm <= limit:
            continue
        q[:, kept] = v = v / nrm
        q_h[kept] = v.conj()
        kept += 1
    return np.linalg.solve(upper, q[:, :kept])


def span_qr(upper: np.ndarray, basis: np.ndarray, drop_tol: float):
    """The rank rule for spans of exactly k columns: one QR of ``U basis``, on
    a matrix or a stack, ``upper`` broadcasting against ``basis``.

    Returns ``(q, diag, kept)``: the whitened orthonormal columns, the real
    diagonal of R, and flags of the columns with ``|R_jj| > drop_tol |U b_j|``,
    the drop rule of :func:`gram_mgs`.  While no column drops, ``|R_jj|`` is
    column j's residual against the earlier ones, so the flags are
    Gram-Schmidt's verdict and ``q`` times the sign of ``diag`` is its basis up
    to roundoff; after a dropped column neither holds.  A norm outside
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
        norms = np.linalg.norm(whitened, axis=-2)
        if not ((lo <= norms) & (norms <= hi)).all():
            whitened = whitened_columns(upper, basis)
            norms = np.linalg.norm(whitened, axis=-2)
    tau = _umath_linalg.qr_r_raw(whitened, signature="D->D")
    q = _umath_linalg.qr_reduced(whitened, tau, signature="DD->D")
    diag = np.diagonal(whitened, axis1=-2, axis2=-1).real
    return q, diag, np.abs(diag) > drop_tol * norms


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
