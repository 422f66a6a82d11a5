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

:func:`m_stack` evaluates the pair invariant over a stack of spaces and raw
bases in one batch of LAPACK calls, with every check of the scalar route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigensplitError,
    EigenvalueAmbiguity,
    ExclusionMismatch,
    HermsympError,
    LagrangianValidationError,
    NonIntegerSum,
    RankAmbiguity,
    SpaceValidationError,
)
from .linalg import adjoint
from .spaces import (
    HermitianSymplecticSpace,
    Lagrangian,
    Tolerances,
    _raise_at_first,
    _require_same_space,
    gamma_image,
    intersection_dim,
    phi_of,
)


@dataclass(frozen=True)
class PairSpectrum:
    """Pair invariant together with the spectral data that produced it."""

    value: float
    intersection_dim: int
    excluded: int
    eigenvalues: tuple[complex, ...]


def m_details(v: Lagrangian, w: Lagrangian) -> PairSpectrum:
    """Pair invariant of (V, W) with eigenvalues sorted by angle."""
    _require_same_space(v.space, w.space)
    tau = v.space.tol.eig
    eigs = np.linalg.eigvals(-phi_of(v) @ phi_of(w).conj().T)
    excluded = 0
    total = 0.0
    for lam in eigs:
        dist = abs(lam + 1.0)
        if dist <= tau:
            excluded += 1
            continue
        if dist < 100.0 * tau:
            raise EigenvalueAmbiguity(
                f"eigenvalue {lam:.12g} lies {dist:.3e} from -1, inside the "
                f"ambiguity band (tol.eig={tau:.0e}); the invariant is "
                "discontinuous here"
            )
        total += math.atan2(lam.imag, lam.real)
    idim = intersection_dim(v, w)
    if excluded != idim:
        raise ExclusionMismatch(
            f"{excluded} eigenvalues excluded at -1 but dim(V & W) = {idim}"
        )
    value = -total / math.pi
    if value == 0.0:
        value = 0.0  # normalize -0.0
    ordered = tuple(
        sorted(
            (complex(z) for z in eigs),
            key=lambda z: (math.atan2(z.imag, z.real), z.real, z.imag),
        )
    )
    return PairSpectrum(
        value=value, intersection_dim=idim, excluded=excluded, eigenvalues=ordered
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

    Every check of that route is made, with its thresholds, on stacked calls in
    each item's whitened frame ``U x`` (``gram = U^H U``): the structural checks
    and the Cholesky factor of a :class:`~hermsymp.spaces.HermitianSymplecticSpace`
    built on the whole stack; the column-relative drop rule
    ``|R_jj| > tol.rank |U b_j|`` on a QR of ``U basis`` and the vanishing of
    omega on each span; the +i/-i split from ``eigh`` of ``i gamma_w``
    (``gamma_w = U gamma U^-1``) into k/k eigenspaces with their residuals;
    the singularity and unitarity checks of each graph map; the exclusion
    and ambiguity bands of the eigenvalues; and the intersection dimension
    with its rank guard band, cross-checked against the exclusion count.
    Residuals meet the space's own rule (``tol.alg``, times cond(U) only past
    ``tol.alg``).  A failure raises what a loop of the scalar route over the
    items raises: the error of the first failing check of the lowest failing
    item, whose index the message names and the error's ``item`` holds.  One
    check differs in kind: the k/k split is counted by the signs of the
    eigenvalues of ``i gamma_w``, where the scalar route counts the rank of
    each spectral projector under ``tol.rank``; that count also rejects a
    ``gamma`` off by more than about ``tol.rank`` that the ``tol.alg`` rule
    accepts.

    The scalar, memoized route of :func:`m_details` and
    :func:`~hermsymp.spaces.phi_of` stays, for two reasons:

    - ``phi_of`` is pinned to the phase-fixed bases of ``gram_mgs``.  ``m``
      does not depend on the choice of eigenbases (the pair unitary only
      changes by a unitary similarity), so the ``eigh`` bases serve it here,
      but ``phi_of`` does depend on them.
    - Classifying the eigenvalues of one pair with array operations costs
      about six times the loop in :func:`m_details` (18 against 3 us at k=2,
      numpy 2.4 on a 2-core x86-64 machine); batching pays only over many
      items, and ``m_details`` serves one pair at a time.
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
    bases = np.stack(pair, axis=1)  # (T, 2, n, k): V then W
    _raise_at_first(
        ~np.isfinite(bases).all(axis=(1, 2, 3)),
        LagrangianValidationError,
        "basis has non-finite entries",
    )
    if k == 0:
        return np.zeros(count)

    # Lagrangians: orthonormal whitened bases q, and omega vanishing on them
    whitened = upper[:, None] @ bases
    q, r = np.linalg.qr(whitened)
    floor = tol.rank * np.linalg.norm(whitened, axis=-2)
    kept = (np.abs(np.diagonal(r, axis1=-2, axis2=-1)) > floor).sum(axis=-1)
    _raise_at_first(
        (kept != k).any(axis=1),
        LagrangianValidationError,
        lambda j: f"basis spans dimension {kept[j].min()}, expected {k}",
    )
    gamma_w = stack._gamma_w
    r_omega = np.abs(adjoint(q) @ gamma_w[:, None] @ q).max(axis=(2, 3))
    _raise_at_first(
        stack._exceeds_alg(r_omega.max(axis=1)),
        LagrangianValidationError,
        lambda j: f"symplectic form does not vanish on the span: residual {r_omega[j].max():.3e}",
    )

    # splitting: eigenvalue -1 of i gamma_w is the +i eigenspace of gamma_w
    evals, evecs = np.linalg.eigh(0.5j * (gamma_w - adjoint(gamma_w)))
    n_plus, n_minus = (evals < 0).sum(axis=1), (evals > 0).sum(axis=1)
    _raise_at_first(
        (n_plus != k) | (n_minus != k),
        EigensplitError,
        lambda j: f"eigenspace dimensions ({n_plus[j]}, {n_minus[j]}) differ from "
        f"({k}, {k}); the space does not split evenly into +i/-i eigenspaces",
    )
    plus, minus = evecs[..., :k], evecs[..., k:]
    r_split = np.stack(
        [
            np.abs(gamma_w @ plus - 1j * plus).max(axis=(1, 2)),
            np.abs(gamma_w @ minus + 1j * minus).max(axis=(1, 2)),
            np.abs(adjoint(plus) @ minus).max(axis=(1, 2)),
        ],
        axis=1,
    )
    _raise_at_first(
        stack._exceeds_alg(r_split.max(axis=1)),
        EigensplitError,
        lambda j: "eigenspaces not separated within tolerance: residuals "
        "plus={:.3e} minus={:.3e} cross={:.3e}".format(*r_split[j]),
    )

    # graph maps phi = c a^-1 of V and W
    a = adjoint(plus)[:, None] @ q
    c = adjoint(minus)[:, None] @ q
    s_min = np.linalg.svd(a, compute_uv=False)[..., -1]
    _raise_at_first(
        (s_min <= tol.rank).any(axis=1),
        LagrangianValidationError,
        lambda j: "projection onto the +i eigenspace is singular; input is not a "
        f"valid Lagrangian (smallest singular value {s_min[j].min():.3e})",
    )
    phi = c @ np.linalg.inv(a)
    r_unit = np.abs(adjoint(phi) @ phi - np.eye(k)).max(axis=(2, 3))
    _raise_at_first(
        stack._exceeds_alg(r_unit.max(axis=1)),
        LagrangianValidationError,
        lambda j: f"graph map is not unitary: residual {r_unit[j].max():.3e}",
    )

    # the pair spectrum, cross-checked against dim(V & W)
    eigs = np.linalg.eigvals(-phi[:, 0] @ adjoint(phi[:, 1]))
    dist = np.abs(eigs + 1.0)
    excluded = dist <= tol.eig
    ambiguous = ~excluded & (dist < 100.0 * tol.eig)

    def ambiguity(j):
        lam = eigs[j][ambiguous[j]][0]
        return (
            f"eigenvalue {lam:.12g} lies {abs(lam + 1.0):.3e} from -1, inside the "
            f"ambiguity band (tol.eig={tol.eig:.0e}); the invariant is discontinuous here"
        )

    _raise_at_first(ambiguous.any(axis=1), EigenvalueAmbiguity, ambiguity)
    tau = tol.rank
    s = np.linalg.svd(np.concatenate([q[:, 0], q[:, 1]], axis=-1), compute_uv=False)
    in_band = (s > tau / 10.0) & (s < tau * 10.0)
    _raise_at_first(
        in_band.any(axis=1),
        RankAmbiguity,
        lambda j: f"singular value {s[j][in_band[j]][0]:.3e} inside the rank guard "
        f"band around {tau:.0e}",
    )
    idim = n - (s > tau).sum(axis=1)
    n_excluded = excluded.sum(axis=1)
    _raise_at_first(
        n_excluded != idim,
        ExclusionMismatch,
        lambda j: f"{n_excluded[j]} eigenvalues excluded at -1 but dim(V & W) = {idim[j]}",
    )
    return -np.where(excluded, 0.0, np.angle(eigs)).sum(axis=1) / math.pi + 0.0  # no -0.0


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
    total = m_invariant(u, v) + m_invariant(v, w) + m_invariant(w, u)
    return _rounded(total, u.space.tol.int)


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
    m(WX,WY)`` against the integer within ``space.tol.int``.  Each of the 7
    distinct pair invariants is evaluated once.
    """
    tol = vx.space.tol.int
    g_vx, g_vy, g_wy = gamma_image(vx), gamma_image(vy), gamma_image(wy)
    m_vx_vy = m_invariant(vx, vy)
    first = _rounded(m_vx_vy + m_invariant(vy, g_wy) + m_invariant(g_wy, vx), tol)
    m_gvx_wx, m_wx_wy = m_invariant(g_vx, wx), m_invariant(wx, wy)
    second = _rounded(m_gvx_wx + m_wx_wy + m_invariant(wy, g_vx), tol)
    integer = first - second
    chain = m_vx_vy - m_gvx_wx + m_invariant(g_vy, wy) - m_wx_wy
    if abs(chain - integer) > tol:
        raise NonIntegerSum(
            f"correction chain {chain!r} disagrees with integer part {integer}"
        )
    return m_wx_wy, integer
