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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigenvalueAmbiguity, ExclusionMismatch, NonIntegerSum
from .spaces import Lagrangian, _require_same_space, gamma_image, intersection_dim, phi_of


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
