"""Invariants of Lagrangian pairs and triples.

The pair invariant compares two Lagrangians V, W through the unitary
``-phi(V) phi(W)*``.  With the logarithm branch
``log(r e^{i t}) = ln r + i t`` for ``-pi < t <= pi``, it is

    m(V, W) = -(1/pi) * sum of angles of the eigenvalues different from -1.

The multiplicity of the eigenvalue -1 always equals dim(V & W); the excluded
count is cross-checked against the intersection dimension and any mismatch is
a hard error, because disagreement means the numerics are untrustworthy.  The
invariant is genuinely discontinuous where an eigenvalue crosses -1, so
eigenvalues too close to the branch point (but not close enough to exclude)
raise :class:`~hermsymp.errors.EigenvalueAmbiguity` rather than returning a
meaningless value.

The triple index ``m(U,V) + m(V,W) + m(W,U)`` is an integer depending only on
the underlying symplectic form; it is rounded under an integrality guard.

Every route takes graph maps in the eigenvectors of the space's split and ends
in one pair tail, which takes them and whitened columns of one pair or of a
stack: :func:`m_details` runs it on one pair,
:func:`triple_index` and :func:`eta_correction_rhs` on their 3 and 7 pairs in
one batch of LAPACK calls, and :func:`m_stack` on a stack of spaces and raw
bases.  A batch raises what a loop of the scalar route raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenvalueAmbiguity,
    ExclusionMismatch,
    HermsympError,
    LagrangianValidationError,
    NonIntegerSum,
    SpaceValidationError,
)
from . import linalg
from .linalg import adjoint, gram_mgs, span_qr
from .spaces import (
    HermitianSymplecticSpace,
    Lagrangian,
    Tolerances,
    _check_span,
    _graph_map,
    _intersection_dim,
    _raise_at_first,
    _require_same_space,
    _split,
    gamma_image,
)


@dataclass(frozen=True)
class PairSpectrum:
    """Pair invariant together with the spectral data that produced it."""

    value: float
    intersection_dim: int
    excluded: int
    eigenvalues: tuple[complex, ...]


def _pair_tail(space, phi_v, phi_w, columns):
    """``(value, count, dim, eigenvalues)`` of one pair, or of each of a stack,
    from the graph maps of V and W and their whitened columns side by side.

    Eigenvalues of ``-phi_v phi_w*`` within ``tol.eig`` of -1 are excluded and
    one in ``(tol.eig, 100 tol.eig)`` raises; then dim(V & W) is decided under
    its rank guard band and must equal the count excluded.  No -0.0 value.
    """
    eigs = linalg.eigvals(-phi_v @ adjoint(phi_w))
    tau = space.tol.eig
    dist = np.abs(eigs + 1.0)
    excluded = dist <= tau
    ambiguous = (dist < 100.0 * tau) > excluded  # inside the band, not excluded

    def describe(j):
        lam = eigs[j][ambiguous[j]][0]
        return (
            f"eigenvalue {lam:.12g} lies {abs(lam + 1.0):.3e} from -1, inside the "
            f"ambiguity band (tol.eig={tau:.0e}); the invariant is discontinuous here"
        )

    _raise_at_first(ambiguous.any(axis=-1), EigenvalueAmbiguity, describe)
    idim = _intersection_dim(space, columns)
    count = excluded.sum(axis=-1)
    _raise_at_first(
        count != idim,
        ExclusionMismatch,
        lambda j: f"{count[j]} eigenvalues excluded at -1 but dim(V & W) = {idim[j]}",
    )
    angles = np.log(eigs).imag  # the branch of the definition; libm's atan2, not a SIMD one
    return -np.where(excluded, 0.0, angles).sum(axis=-1) / math.pi + 0.0, count, idim, eigs


def _pair_values(space, pairs) -> np.ndarray:
    """Pair invariants of Lagrangian pairs of ``space``, in one stacked pass.
    If a check fails, the pairs are rerun in order through :func:`m_details`."""
    lagrangians = [x for pair in pairs for x in pair]
    try:
        for x in lagrangians:
            _require_same_space(space, x.space)
        # each Lagrangian of a triple or a correction recurs in its pairs: it
        # is whitened and mapped once, all in one call
        slot = {x: j for j, x in enumerate(dict.fromkeys(lagrangians))}
        whitened = space._upper @ np.stack([x.basis for x in slot])
        index = [slot[x] for x in lagrangians]
        phi = _graph_map(space, space._evecs, whitened)[index]
        columns = np.concatenate([whitened[index[0::2]], whitened[index[1::2]]], axis=-1)
        return _pair_tail(space, phi[0::2], phi[1::2], columns)[0]
    except HermsympError:
        return np.array([m_details(v, w).value for v, w in pairs])


def m_details(v: Lagrangian, w: Lagrangian) -> PairSpectrum:
    """Pair invariant of (V, W) with eigenvalues sorted by angle."""
    _require_same_space(v.space, w.space)
    space = v.space
    whitened = [space._upper @ x.basis for x in (v, w)]
    phi_v, phi_w = (_graph_map(space, space._evecs, x) for x in whitened)
    value, count, idim, eigs = _pair_tail(space, phi_v, phi_w, np.hstack(whitened))
    ordered = tuple(
        sorted(
            (complex(z) for z in eigs),
            key=lambda z: (math.atan2(z.imag, z.real), z.real, z.imag),
        )
    )
    return PairSpectrum(
        value=float(value), intersection_dim=int(idim), excluded=int(count), eigenvalues=ordered
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

    Every check of that route is made with its thresholds, on stacked calls in
    each item's whitened frame ``U x`` (``gram = U^H U``), by the function the
    scalar route calls: the structural checks and Cholesky factor of a
    :class:`~hermsymp.spaces.HermitianSymplecticSpace` built on the stack, the
    span count and omega on each span, the k/k split of ``i gamma_w``
    (``gamma_w = U gamma U^-1``) and its residuals, the graph maps, and the
    pair tail.  A failure raises what a loop of the scalar route over the items
    raises: the first failing check of the lowest failing item, V's before
    W's; the message names the index, the error's ``item`` holds it.

    The rank of a span is decided by the one rank rule of
    :func:`~hermsymp.spaces.lagrangian_from_basis`: the stacked QR of
    :func:`~hermsymp.linalg.span_qr` is the first step of
    :func:`~hermsymp.linalg.gram_mgs`, which recounts a finite span whose QR
    drops a column, so both routes name the same dimension.  The graph maps
    are taken in the eigenvectors of the split, as on every route: ``m`` does
    not depend on the choice of eigenbases (the pair unitary only changes by a
    unitary similarity).
    """
    if np.ndim(gram) != 3:
        raise SpaceValidationError(
            f"gram must be a stack of square matrices, got shape {np.shape(gram)}"
        )
    try:
        return _stacked_m(gram, gamma, v_basis, w_basis, tol)
    except HermsympError as exc:
        first = exc
    # The checks run stage by stage, so a lower item may fail a later stage
    # than the one that raised; the items before the named one are rerun.
    while first.item:
        try:
            _stacked_m(*(x[: first.item] for x in (gram, gamma, v_basis, w_basis)), tol)
            break
        except HermsympError as exc:
            first = exc
    raise first


def _stacked_m(gram, gamma, v_basis, w_basis, tol: Tolerances) -> np.ndarray:
    """The kernel of :func:`m_stack`: each check runs on all items, in the scalar order."""
    stack = HermitianSymplecticSpace(gram, gamma, tol)
    upper, k = stack._upper, stack.half_dim
    count, n = upper.shape[:2]
    pair = []
    for name, basis in (("V", v_basis), ("W", w_basis)):
        basis = np.asarray(basis, dtype=np.complex128)
        if basis.shape != (count, n, k):
            raise LagrangianValidationError(
                f"{name} bases must have shape {(count, n, k)}, got {basis.shape}"
            )
        pair.append(basis)
    # both spans in one QR: whitened bases q, their columns kept under the
    # drop rule, and omega vanishing on them; V is checked before W.  Only
    # spans are needed, so the columns keep the QR's signs.
    bases = np.stack(pair, axis=1)  # (T, 2, n, k)
    finite = np.isfinite(bases).all(axis=(2, 3))  # a non-finite basis is reported below
    q, _, kept = span_qr(upper[:, None], bases, tol.rank)
    kept = kept.sum(axis=-1)
    # a finite span whose QR drops a column fails the span check: gram_mgs
    # recounts it only so that the message names the scalar route's dimension
    for j, side in zip(*np.nonzero((kept != k) & finite)):
        kept[j, side] = gram_mgs(upper[j], bases[j, side], tol.rank).shape[1]
    gamma_q = stack._gamma_w[:, None] @ q
    for side in (0, 1):
        _raise_at_first(~finite[:, side], LagrangianValidationError, "basis has non-finite entries")
        _check_span(stack, kept[:, side], q[:, side], gamma_q[:, side])

    # the k/k split; the graph maps phi = c a^-1 of V, then W, in its
    # eigenbases; the pair spectrum against dim(V & W)
    evecs = _split(stack)
    phi_v, phi_w = (_graph_map(stack, evecs, q[:, side]) for side in (0, 1))
    return _pair_tail(stack, phi_v, phi_w, np.concatenate([q[:, 0], q[:, 1]], axis=-1))[0]


def _rounded(total: float, tol: float) -> int:
    nearest = round(total)
    if abs(total - nearest) > tol:
        raise NonIntegerSum(
            f"triple index sum {total!r} is {abs(total - nearest):.3e} from an integer"
        )
    return int(nearest)


def triple_index(u: Lagrangian, v: Lagrangian, w: Lagrangian) -> int:
    """Integer triple index m(U,V) + m(V,W) + m(W,U).

    Raises :class:`NonIntegerSum` if the real sum is farther than
    ``space.tol.int`` from an integer, which signals numerical breakdown or
    invalid inputs.
    """
    m_uv, m_vw, m_wu = _pair_values(u.space, [(u, v), (v, w), (w, u)]).tolist()
    return _rounded(m_uv + m_vw + m_wu, u.space.tol.int)


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
    glued quantity differs from the sum of the pieces.  Internally verifies
    the equivalent chain ``m(VX,VY) - m(gamma VX, WX) + m(gamma VY, WY) -
    m(WX,WY)`` against the integer within ``space.tol.int``.  The 7 distinct
    pair invariants are evaluated in one stacked pass.
    """
    tol = vx.space.tol.int
    g_vx, g_vy, g_wy = gamma_image(vx), gamma_image(vy), gamma_image(wy)
    pairs = [(vx, vy), (vy, g_wy), (g_wy, vx), (g_vx, wx), (wx, wy), (wy, g_vx), (g_vy, wy)]
    m = _pair_values(vx.space, pairs).tolist()
    integer = _rounded(m[0] + m[1] + m[2], tol) - _rounded(m[3] + m[4] + m[5], tol)
    chain = m[0] - m[3] + m[6] - m[4]
    if abs(chain - integer) > tol:
        raise NonIntegerSum(
            f"correction chain {chain!r} disagrees with integer part {integer}"
        )
    return m[4], integer
