"""Invariants of Lagrangian pairs and triples.

The pair invariant compares two Lagrangians V, W through the unitary
``-phi(V) phi(W)*``.  With the logarithm branch
``log(r e^{i t}) = ln r + i t`` for ``-pi < t <= pi``, it is

    m(V, W) = -(1/pi) * sum of angles of the eigenvalues different from -1.

The multiplicity of the eigenvalue -1 equals dim(V & W): each eigenvalue
lambda satisfies ``|lambda + 1| = 2 sin theta`` over the principal angles
theta of V and W.  So the eigenvalues make the one decision at -1: those
within ``tol.eig`` of it are excluded, and their count is dim(V & W).  The
invariant is genuinely discontinuous where an eigenvalue crosses -1, so
eigenvalues too close to the branch point (but not close enough to exclude)
raise :class:`~hermsymp.errors.EigenvalueAmbiguity` rather than returning a
meaningless value.  :func:`~hermsymp.spaces.intersection_dim` reads this
count too; the tests check it against a rank decision on both whitened bases.

The triple index ``m(U,V) + m(V,W) + m(W,U)`` is an integer depending only on
the underlying symplectic form: the Kashiwara-Wall index, the signature of one
Hermitian form on U + V + W.  :func:`triple_index` reads it from one
``eigvalsh`` of that form (:func:`_inertia`), an exact count with no split,
graph map or rounding.  Where two of the Lagrangians nearly meet, the form has
an eigenvalue near their principal-angle sine, half the pair's distance from
-1, so its null and ambiguity bands are the pair kernel's, halved.

Every pair invariant comes from one kernel, :func:`_pair_values`: one graph-map
pass over a stack of whitened bases, in the eigenvectors of the space's split,
then one ``eigvals`` over the pairs it names.  :func:`m_details` runs it on one
pair, :func:`eta_correction_rhs` on the 4 pairs of its chain beside one
eigensolve of its two triples, and :func:`m_stack` on a stack of spaces.
``m_stack`` gives the values of the loop of the scalar route that it stands
for: a check that fails on its batch is bisected to the lowest failing item,
and only that item is rerun through the scalar route, which names its failure.

The pair and triple kernels, and :func:`m_stack` with the checks of the
stacked space it builds, skip numpy's Python wrappers, which cost about a
microsecond a call against a few of LAPACK on a small pair: they stack with
``np.array`` and ``np.concatenate``, count and sum with ``np.add.reduce``,
and hand a check's whole flag array to
:func:`~hermsymp.spaces._raise_at_first`, which counts its flags once and
finds the first failing pair only where the check fails.  The kernel reads
the adjoint of the split frame from the space, which keeps it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenvalueAmbiguity,
    HermsympError,
    LagrangianValidationError,
    NonIntegerSum,
    SpaceValidationError,
)
from . import linalg
from .linalg import adjoint, as_complex, span_qr
from .spaces import (
    HermitianSymplecticSpace,
    Lagrangian,
    Tolerances,
    _check_shapes,
    _check_span,
    _graph_map,
    _lapack_on_whitened,
    _raise_at_first,
    _shared_space,
    _stack_space,
    lagrangian_from_basis,
)


@dataclass(frozen=True)
class PairSpectrum:
    """Pair invariant together with the spectral data that produced it.

    ``intersection_dim`` is dim(V & W), the count of eigenvalues within
    ``tol.eig`` of -1, which are ``excluded`` from the sum.
    """

    value: float
    intersection_dim: int
    excluded: int
    eigenvalues: tuple[complex, ...]


def _pair_values(space, q, first, second):
    """``(value, count, eigenvalues)`` of the pairs ``(q[first], q[second])``
    of a stack of whitened orthonormal bases ``q = U basis``, each mapped once
    in one :func:`_graph_map` pass in the space's split eigenvectors;
    ``first`` and ``second`` index the leading axis of ``q``, as integers or
    as lists of equal length.

    Eigenvalues of ``-phi[first] phi[second]*`` within ``tol.eig`` of -1 are
    excluded, and their count is dim(V & W); one in ``(tol.eig, 100 tol.eig)``
    raises, the first in the first pair that has one.  No -0.0 value.
    """
    phi = _graph_map(space, space._evecs_h, q)
    eigs = linalg.eigvals(-phi[first] @ adjoint(phi[second]))
    tau = space.tol.eig
    dist = np.abs(eigs + 1.0)
    excluded = dist <= tau
    ambiguous = (dist < 100.0 * tau) > excluded  # inside the band, not excluded

    def describe(j):
        lam = eigs[j]
        return (
            f"eigenvalue {lam:.12g} lies {abs(lam + 1.0):.3e} from -1, inside the "
            f"ambiguity band (tol.eig={tau:.0e}); the invariant is discontinuous here"
        )

    _raise_at_first(ambiguous, EigenvalueAmbiguity, describe)
    angles = np.log(eigs).imag  # the branch of the definition; libm's atan2, not a SIMD one
    value = -np.add.reduce(np.where(excluded, 0.0, angles), axis=-1) / math.pi + 0.0
    return value, np.add.reduce(excluded, axis=-1), eigs


def m_details(v: Lagrangian, w: Lagrangian) -> PairSpectrum:
    """Pair invariant of (V, W) with eigenvalues sorted by angle."""
    space = _shared_space(v, w)
    q = linalg.whiten(space._upper, np.array([v.basis, w.basis]))
    value, count, eigs = _pair_values(space, q, 0, 1)
    ordered = tuple(
        sorted(eigs.tolist(), key=lambda z: (math.atan2(z.imag, z.real), z.real, z.imag))
    )
    return PairSpectrum(
        value=float(value), intersection_dim=int(count), excluded=int(count), eigenvalues=ordered
    )


def m_invariant(v: Lagrangian, w: Lagrangian) -> float:
    return m_details(v, w).value


def m_stack(gram, gamma, v_basis, w_basis, tol: Tolerances = Tolerances()) -> np.ndarray:
    """Pair invariants of a stack of Lagrangian pairs, each in its own space.

    ``gram`` and ``gamma`` are ``(T, n, n)`` stacks, ``v_basis`` and ``w_basis``
    ``(T, n, k)`` stacks of raw spanning bases with ``n = 2k``.  Returns the
    ``(T,)`` array whose item ``j`` is the value of :func:`m_details` on the
    space ``(gram[j], gamma[j], tol)`` and the Lagrangians spanned by
    ``v_basis[j]`` and ``w_basis[j]``.

    Shapes that fit no such stack raise at once, naming no item.  Then one
    pass makes every check of that route with its thresholds, by the function
    the scalar route calls, on stacked calls in each item's whitened frame:
    the checks of a :class:`~hermsymp.spaces.HermitianSymplecticSpace` built
    on the stack, each span's count (the drop flags of the stacked QR of
    :func:`~hermsymp.linalg.span_qr`, on k columns the verdict of
    :func:`~hermsymp.linalg.gram_mgs`) and omega on it, the k/k split, the
    graph maps in its eigenvectors, and the eigenvalue band at -1 of the pair
    kernel.  V and W go through each check together, stacked on a leading
    axis, in one span check and one graph-map pass.  A check that fails on a
    stack names no item, so a failing pass is bisected, by passes on halves
    of the failing range, to the lowest item that fails on its own.  Only
    that item is rerun through the scalar route: its failure is raised with
    the message prefixed ``item j: `` and the error's ``item`` set to ``j``,
    and if it passes there, its scalar value is kept and the items after it
    are evaluated the same way.  A failure at item j costs at most
    ``1 + ceil(log2 T)`` passes over at most 2T items, and item j's scalar route.
    """
    gram, gamma = as_complex(gram, "gram"), as_complex(gamma, "gamma")
    if gram.ndim != 3:
        raise SpaceValidationError(
            f"gram must be a stack of square matrices, got shape {gram.shape}"
        )
    n = _check_shapes(gram, gamma)
    columns = [gram, gamma]
    for name, basis in (("V", v_basis), ("W", w_basis)):
        basis = as_complex(basis, f"{name} bases")
        if basis.shape != (len(gram), n, n // 2):
            raise LagrangianValidationError(
                f"{name} bases must have shape {(len(gram), n, n // 2)}, got {basis.shape}"
            )
        columns.append(basis)
    values, start = np.empty(len(gram)), 0

    def passes(lo, hi):
        """Whether items ``lo`` to ``hi`` pass as one stack, keeping their values."""
        try:
            values[lo:hi] = _stacked_m(*(x[lo:hi] for x in columns), tol)
        except HermsympError:
            return False
        return True

    # items before ``start`` have their values
    while start < len(gram) and not passes(start, len(gram)):
        stop = len(gram)  # the items from ``start`` to ``stop`` fail as a stack
        while stop - start > 1:
            mid = (start + stop) // 2
            if passes(start, mid):
                start = mid
            else:
                stop = mid
        g, gam, v, w = (x[start] for x in columns)
        try:
            space = HermitianSymplecticSpace(g, gam, tol)
            pair = [lagrangian_from_basis(space, x) for x in (v, w)]
            values[start] = m_details(*pair).value
        except HermsympError as exc:
            error = type(exc)(f"item {start}: {exc}")
            error.item = start
            raise error from None
        start += 1
    return values


def _stacked_m(gram, gamma, v_basis, w_basis, tol: Tolerances) -> np.ndarray:
    """The stacked pass of :func:`m_stack`: each check runs once on all items,
    both sides of each pair as one stack, and raises if any item fails it."""
    stack = _stack_space(gram, gamma, tol)
    # both sides in one QR, V and W on the leading axis: whitened bases q,
    # their columns kept under the drop rule (a non-finite column never is),
    # and omega vanishing on them.  Only spans are needed, so the columns keep
    # the QR's signs.
    q, _, kept = span_qr(stack._upper, np.array([v_basis, w_basis]), tol.rank)
    _check_span(stack, np.add.reduce(kept, axis=-1), q)
    # the k/k split, then both sides' graph maps and pair spectra in one pass
    return _pair_values(stack, q, 0, 1)[0]


@functools.lru_cache(maxsize=None)
def _block_signs(k: int) -> np.ndarray:
    """The 3k x 3k block-sign mask of a Kashiwara form: +1 above the diagonal
    blocks, -1 below, 0 on them."""
    blocks = np.arange(3 * k) // max(k, 1)
    return np.sign(blocks - blocks[:, None])


def _inertia(space, q) -> np.ndarray:
    """``n_+ - n_-`` of the Kashiwara form of one triple, or of each of a stack,
    from the whitened orthonormal bases ``q = U [basis_A | basis_B | basis_C]``:
    ``C = M o S`` with ``M = q^H gamma_w q`` and S of :func:`_block_signs`, so
    that ``x^H C x = 2 Re(omega(a, b) + omega(b, c) + omega(a, c))``.

    An eigenvalue within ``tol.eig/2`` of 0 is null, and one in
    ``(tol.eig/2, 50 tol.eig)`` raises: the pair kernel's bands, halved.
    """
    form = adjoint(q) @ (space._gamma_w @ q) * _block_signs(q.shape[-1] // 3)
    mu = _lapack_on_whitened((q,), linalg.eigvalsh, form)
    tau = space.tol.eig / 2.0
    size = np.abs(mu)
    ambiguous = (size < 100.0 * tau) > (size <= tau)  # inside the band, not null

    def describe(j):
        value = mu[j]
        return (
            f"Kashiwara form eigenvalue {value:.3e} lies inside the ambiguity band "
            f"({tau:.1e}, {100.0 * tau:.1e}) around 0 (tol.eig={space.tol.eig:.0e}); "
            "two of the Lagrangians nearly meet and the triple index is discontinuous here"
        )

    _raise_at_first(ambiguous, EigenvalueAmbiguity, describe)
    return np.add.reduce(mu > tau, axis=-1) - np.add.reduce(mu < -tau, axis=-1)


def triple_index(u: Lagrangian, v: Lagrangian, w: Lagrangian) -> int:
    """Integer triple index m(U,V) + m(V,W) + m(W,U).

    The signature of the Kashiwara form of the triple (:func:`_inertia`): an
    exact count, with no sum to round, so it raises no :class:`NonIntegerSum`.
    Raises :class:`EigenvalueAmbiguity` where two of the Lagrangians nearly
    meet, at a principal-angle sine of about ``(tol.eig/2, 50 tol.eig)``.
    """
    space = _shared_space(u, v, w)
    q = linalg.whiten(space._upper, np.concatenate((u.basis, v.basis, w.basis), axis=-1))
    return int(_inertia(space, q))


def eta_correction_rhs(
    vx: Lagrangian,
    vy: Lagrangian,
    wx: Lagrangian,
    wy: Lagrangian,
) -> tuple[float, int]:
    """Finite-dimensional correction for cutting and pasting with arbitrary
    boundary Lagrangians.

    Returns the pair ``(m(WX, WY), sigma(VX, VY, gamma WY) - sigma(gamma VX,
    WX, WY))``: the real pair invariant plus the integer defect by which the
    glued quantity differs from the sum of the pieces.  The two triple indices
    come from one stacked :func:`_inertia` call, with the gamma images
    ``gamma_w U basis`` as their whitened bases, no QR, whose span is checked
    like any other.  The 4 pair invariants of the equivalent chain ``m(VX,VY)
    - m(gamma VX, WX) + m(gamma VY, WY) - m(WX,WY)`` come from one stacked
    pass, and the chain must match the integer within ``space.tol.int``, else
    :class:`NonIntegerSum`: two independent routes to one integer.
    """
    space = _shared_space(vx, vy, wx, wy)
    q = linalg.whiten(space._upper, np.array([vx.basis, vy.basis, wx.basis, wy.basis]))
    gamma_q = space._gamma_w @ q[[0, 1, 3]]
    _check_span(space, np.intp(space.half_dim), gamma_q)
    # VX, VY, WX, WY, gamma VX, gamma VY, gamma WY; the triples (VX, VY, gamma WY)
    # and (gamma VX, WX, WY), one block of columns at a time
    q = np.concatenate([q, gamma_q])
    first, second = _inertia(space, np.concatenate([q[[0, 4]], q[[1, 2]], q[[6, 3]]], axis=-1))
    integer = int(first - second)
    m = _pair_values(space, q[:6], [0, 4, 5, 2], [1, 2, 3, 3])[0].tolist()
    chain = m[0] - m[1] + m[2] - m[3]
    if abs(chain - integer) > space.tol.int:
        raise NonIntegerSum(
            f"correction chain {chain!r} disagrees with integer part {integer}"
        )
    return m[3], integer
