"""Hermitian symplectic spaces and their Lagrangian subspaces.

A Hermitian symplectic space is a finite-dimensional complex vector space with
a positive-definite Hermitian inner product and a unitary map ``gamma``
squaring to minus the identity, such that the Hermitian form
``(x, y) -> <x, i gamma y>`` has zero signature.  The skew form
``omega(x, y) = <x, gamma y>`` is the underlying symplectic structure;
Lagrangian subspaces are the half-dimensional subspaces on which ``omega``
vanishes, equivalently the subspaces with ``gamma(W)`` equal to the orthogonal
complement of ``W``.

Every Lagrangian is the graph of a unique unitary from the +i eigenspace of
``gamma`` to the -i eigenspace; :func:`phi_of` computes its matrix in the
deterministic eigenbases produced by :func:`eigensplit`.

Coordinates are never assumed orthonormal: each space carries its Gram matrix
``gram = U^H U`` and Cholesky factor ``U``, and decides everything in the
whitened coordinates ``U x``: residuals against ``tol.alg`` times cond(U),
singular values against ``tol.rank``, independent of the coordinates' units.
Each space also carries the :class:`Tolerances` of every numerical decision
made on it or on anything derived from it.  All types are immutable after
construction and all operations are pure functions of them, so the splitting
of a space and the graph unitary of a Lagrangian are computed once, on first
use, and memoized on the object.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    EigensplitError,
    LagrangianValidationError,
    RankAmbiguity,
    SpaceValidationError,
    ValidationError,
)
from .linalg import as_complex_matrix, gram_mgs, max_abs


@dataclass(frozen=True)
class Tolerances:
    """Decision thresholds of a space and of everything derived from it.

    ``alg`` bounds whitened residuals of algebraic identities, times cond(U),
    ``rank`` whitened singular values of rank decisions, ``eig`` the distance
    at which an eigenvalue counts as -1, and ``int`` the integrality guard.
    Problems handled here are tiny (dims below ~50), so double precision leaves
    wide margins around each default.  Every field must be finite and positive;
    any other value raises :class:`ValidationError` naming the field.
    """

    alg: float = 1e-10
    rank: float = 1e-8
    eig: float = 1e-8
    int: float = 1e-6

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0.0 < value < np.inf:
                raise ValidationError(
                    f"tolerance {field.name} must be finite and positive, got {value!r}"
                )


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HermitianSymplecticSpace:
    """Complex inner-product space with a compatible complex structure.

    ``gram`` is the Hermitian positive-definite matrix of the inner product in
    the chosen coordinate basis; ``gamma`` is the matrix of the complex
    structure in the same basis; ``tol`` holds the thresholds used by every
    decision on the space, its Lagrangians and the spaces derived from it.
    Construction performs the structural checks (square, even-dimensional,
    Hermitian positive-definite gram) and keeps its Cholesky factor ``_upper``;
    the three algebraic invariants are measured by :func:`validate_space`.

    Dimension zero is allowed and carries the unique empty Lagrangian.
    """

    gram: np.ndarray
    gamma: np.ndarray
    tol: Tolerances = Tolerances()

    def __post_init__(self) -> None:
        gram = as_complex_matrix(self.gram, "gram")
        gamma = as_complex_matrix(self.gamma, "gamma")
        if gram.shape[0] != gram.shape[1]:
            raise SpaceValidationError(f"gram must be square, got shape {gram.shape}")
        if gamma.shape != gram.shape:
            raise SpaceValidationError(
                f"gamma shape {gamma.shape} does not match gram shape {gram.shape}"
            )
        if not (np.isfinite(gram).all() and np.isfinite(gamma).all()):
            raise SpaceValidationError("gram and gamma must have finite entries")
        n = gram.shape[0]
        if n % 2 != 0:
            raise SpaceValidationError(f"dimension must be even, got {n}")
        if max_abs(gram - gram.conj().T) > 1e-12 * max_abs(gram):
            raise SpaceValidationError("gram must be Hermitian")
        try:
            upper = np.linalg.cholesky(gram).conj().T
        except np.linalg.LinAlgError:
            raise SpaceValidationError("gram must be positive definite") from None
        object.__setattr__(self, "gram", _frozen(gram))
        object.__setattr__(self, "gamma", _frozen(gamma))
        object.__setattr__(self, "_upper", _frozen(upper))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    def omega(self) -> np.ndarray:
        """Matrix of the symplectic form: omega(x, y) = x^H @ omega() @ y."""
        return self.gram @ self.gamma

    @cached_property
    def _cond(self) -> float:
        return float(np.linalg.cond(self._upper))

    def _exceeds_alg(self, residual: float) -> bool:
        """The one rule for whitened residuals; cond(U) >= 1 spares the SVD below ``alg``."""
        return residual > self.tol.alg and residual > self.tol.alg * self._cond

    @cached_property
    def _splitting(self) -> EigenSplitting:
        # Lazy: most spaces built by reduction and composition never need it.
        n, k = self.dim, self.half_dim
        gm, tol = self.gamma, self.tol
        ident = np.eye(n, dtype=np.complex128)
        plus = gram_mgs(self._upper, (ident - 1j * gm) / 2.0, drop_tol=tol.rank)
        minus = gram_mgs(self._upper, (ident + 1j * gm) / 2.0, drop_tol=tol.rank)
        if plus.shape[1] != k or minus.shape[1] != k:
            raise EigensplitError(
                f"eigenspace dimensions ({plus.shape[1]}, {minus.shape[1]}) differ from "
                f"({k}, {k}); the space does not split evenly into +i/-i eigenspaces"
            )
        if k:
            plus, minus = _phase_fixed(plus), _phase_fixed(minus)
        u_gamma, u_plus, u_minus = (self._upper @ m for m in (gm, plus, minus))
        r_plus = max_abs(u_gamma @ plus - 1j * u_plus)
        r_minus = max_abs(u_gamma @ minus + 1j * u_minus)
        r_cross = max_abs(u_plus.conj().T @ u_minus)
        if self._exceeds_alg(max(r_plus, r_minus, r_cross)):
            raise EigensplitError(
                f"eigenspaces not separated within tolerance: residuals "
                f"plus={r_plus:.3e} minus={r_minus:.3e} cross={r_cross:.3e}"
            )
        return EigenSplitting(plus_basis=_frozen(plus), minus_basis=_frozen(minus))


def same_space(a: HermitianSymplecticSpace, b: HermitianSymplecticSpace) -> bool:
    return a is b or (
        a.dim == b.dim
        and a.tol == b.tol
        and np.array_equal(a.gram, b.gram)
        and np.array_equal(a.gamma, b.gamma)
    )


def _require_same_space(a: HermitianSymplecticSpace, b: HermitianSymplecticSpace) -> None:
    if not same_space(a, b):
        raise ValidationError("operands live in different spaces")


def standard_space(half_dim: int) -> HermitianSymplecticSpace:
    """Standard model: identity gram, gamma = [[0, -I], [I, 0]]."""
    k = int(half_dim)
    if k < 0:
        raise SpaceValidationError("half_dim must be non-negative")
    n = 2 * k
    gamma = np.zeros((n, n), dtype=np.complex128)
    gamma[:k, k:] = -np.eye(k)
    gamma[k:, :k] = np.eye(k)
    return HermitianSymplecticSpace(np.eye(n), gamma)


def zero_space() -> HermitianSymplecticSpace:
    return standard_space(0)


def negated(space: HermitianSymplecticSpace) -> HermitianSymplecticSpace:
    """Same inner product with the complex structure reversed.

    Models the opposite boundary orientation; the symplectic form changes
    sign while all validity invariants are preserved.
    """
    return replace(space, gamma=-space.gamma)


def direct_sum(
    a: HermitianSymplecticSpace, b: HermitianSymplecticSpace
) -> HermitianSymplecticSpace:
    if a.tol != b.tol:
        raise ValidationError("operands carry different tolerances")
    return HermitianSymplecticSpace(
        linalg.block_diag(a.gram, b.gram), linalg.block_diag(a.gamma, b.gamma), a.tol
    )


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    residual: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SpaceReport:
    """Per-invariant diagnostic produced by :func:`validate_space`."""

    checks: tuple[InvariantCheck, ...]
    signature: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_space(space: HermitianSymplecticSpace) -> SpaceReport:
    """Measure the three algebraic invariants of a space.

    Measured on the whitened ``gamma_w = U gamma U^-1``: the residuals of
    ``gamma_w^2 = -I`` and ``gamma_w^H gamma_w = I`` under the space's rule, and
    the signature of ``i gamma_w``, congruent to the form ``<x, i gamma y>``,
    which must be zero with no eigenvalue within ``tol.rank`` of zero.
    """
    upper, n = space._upper, space.dim
    gamma_w = np.linalg.solve(upper.conj().T, (upper @ space.gamma).conj().T).conj().T
    ident = np.eye(n, dtype=np.complex128)
    r_sq = max_abs(gamma_w @ gamma_w + ident)
    r_unit = max_abs(gamma_w.conj().T @ gamma_w - ident)
    eigs = np.linalg.eigvalsh(0.5j * (gamma_w - gamma_w.conj().T))
    n_pos = int(np.sum(eigs > space.tol.rank))
    n_neg = int(np.sum(eigs < -space.tol.rank))
    n_null = n - n_pos - n_neg
    signature = n_pos - n_neg
    checks = (
        InvariantCheck("gamma_squares_to_minus_identity", r_sq, not space._exceeds_alg(r_sq)),
        InvariantCheck("gamma_gram_unitary", r_unit, not space._exceeds_alg(r_unit)),
        InvariantCheck(
            "igamma_signature_zero",
            float(abs(signature) + n_null),
            signature == 0 and n_null == 0,
            detail=f"positive={n_pos} negative={n_neg} null={n_null}",
        ),
    )
    return SpaceReport(checks=checks, signature=signature)


@dataclass(frozen=True)
class EigenSplitting:
    """Gram-orthonormal bases of the +i and -i eigenspaces of ``gamma``.

    Produced deterministically: the spectral projections of the coordinate
    basis vectors are orthonormalized in input order and each eigenvector's
    phase is fixed so that its first non-negligible coordinate is real
    positive.  This pins the graph unitaries of :func:`phi_of` across runs.
    """

    plus_basis: np.ndarray
    minus_basis: np.ndarray


def _phase_fixed(basis: np.ndarray) -> np.ndarray:
    mags = np.abs(basis)
    rows = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    pivots = basis[rows, np.arange(basis.shape[1])]
    # hypot rounds like the scalar abs(pivot); np.abs of a complex array may not
    return basis * (np.conj(pivots) / np.hypot(pivots.real, pivots.imag))


def eigensplit(space: HermitianSymplecticSpace) -> EigenSplitting:
    """Split a valid space into the +i/-i eigenspaces of ``gamma``.

    Uses the exact spectral projectors (I -/+ i gamma)/2, which are
    gram-orthogonal idempotents whenever the space invariants hold, so no
    eigenvalue clustering heuristics are involved.  Computed on first use and
    memoized on the space.
    """
    return space._splitting


@dataclass(frozen=True)
class Lagrangian:
    """Half-dimensional subspace on which the symplectic form vanishes.

    ``basis`` holds a gram-orthonormal spanning matrix (dim x half_dim);
    construct through :func:`lagrangian_from_basis`, which validates and
    deterministically orthonormalizes.
    """

    space: HermitianSymplecticSpace
    basis: np.ndarray

    @property
    def half_dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _phi(self) -> np.ndarray:
        space = self.space
        k, tol = space.half_dim, space.tol
        if k == 0:
            return _frozen(np.zeros((0, 0)))
        splitting = eigensplit(space)
        gl = space.gram @ self.basis
        a = splitting.plus_basis.conj().T @ gl
        c = splitting.minus_basis.conj().T @ gl
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] <= tol.rank:
            raise LagrangianValidationError(
                "projection onto the +i eigenspace is singular; input is not a "
                f"valid Lagrangian (smallest singular value {s[-1]:.3e})"
            )
        phi = c @ np.linalg.inv(a)
        residual = max_abs(phi.conj().T @ phi - np.eye(k))
        if space._exceeds_alg(residual):
            raise LagrangianValidationError(
                f"graph map is not unitary: residual {residual:.3e}"
            )
        return _frozen(phi)


def lagrangian_from_basis(space: HermitianSymplecticSpace, basis) -> Lagrangian:
    """Validate a spanning matrix and wrap its span as a Lagrangian.

    ``basis`` may have any number of columns, dependent or zero ones included,
    but must have ``space.dim`` rows and finite entries.  It is replaced by its
    gram-orthonormalization (Cholesky-whitened classical Gram-Schmidt with
    reorthogonalization, columns in input order), which must keep exactly
    ``space.half_dim`` columns.  Rejects every other span, and spans on which
    the symplectic form does not vanish within the space's threshold rule
    (``tol.alg`` scaled by cond(U)), with :class:`LagrangianValidationError`.
    This is the one place where a span becomes a Lagrangian.
    """
    mat = as_complex_matrix(basis, "basis")
    k = space.half_dim
    if mat.shape[0] != space.dim:
        raise LagrangianValidationError(
            f"basis must have {space.dim} rows, got shape {mat.shape}"
        )
    if not np.isfinite(mat).all():
        raise LagrangianValidationError("basis has non-finite entries")
    q = gram_mgs(space._upper, mat, drop_tol=space.tol.rank)
    if q.shape[1] != k:
        raise LagrangianValidationError(
            f"basis spans dimension {q.shape[1]}, expected {k}"
        )
    # = (U q)^H gamma_w (U q) with U q orthonormal: a whitened residual
    residual = max_abs(q.conj().T @ space.omega() @ q)
    if space._exceeds_alg(residual):
        raise LagrangianValidationError(
            f"symplectic form does not vanish on the span: residual {residual:.3e}"
        )
    return Lagrangian(space=space, basis=_frozen(q))


def gamma_image(lagr: Lagrangian) -> Lagrangian:
    """The Lagrangian gamma(W), which equals the gram-orthogonal complement of W."""
    return lagrangian_from_basis(lagr.space, lagr.space.gamma @ lagr.basis)


def intersection_dim(v: Lagrangian, w: Lagrangian) -> int:
    """dim(V & W) as ``dim - rank(U [basis_V | basis_W])``, ``U`` the space's Cholesky factor.

    Raises :class:`RankAmbiguity` when a singular value falls inside the guard
    band ``(tol.rank/10, 10 tol.rank)`` of the space's tolerances, where the
    rank decision would be numerically arbitrary.
    """
    _require_same_space(v.space, w.space)
    tau = v.space.tol.rank
    s = linalg.singular_values(v.space._upper @ np.hstack([v.basis, w.basis]))
    band = s[(s > tau / 10.0) & (s < tau * 10.0)]
    if band.size:
        raise RankAmbiguity(
            f"singular value {band[0]:.3e} inside the rank guard band around {tau:.0e}"
        )
    rank = int(np.sum(s > tau))
    return v.space.dim - rank


def phi_of(lagr: Lagrangian) -> np.ndarray:
    """Matrix of the unitary whose graph is the Lagrangian.

    In the bases of :func:`eigensplit`, every column w of the Lagrangian
    decomposes as w = w+ + w- with w- = phi(w+); the returned read-only
    half_dim x half_dim matrix is unitary under the space's threshold rule.
    Fails only if the projection of the span to the +i eigenspace is singular,
    which signals an invalid input that slipped past validation.  Computed on
    first use and memoized on the Lagrangian.
    """
    return lagr._phi


def lagrangian_from_graph(space: HermitianSymplecticSpace, unitary) -> Lagrangian:
    """Lagrangian with the given graph unitary; inverse of :func:`phi_of`."""
    splitting = eigensplit(space)
    u = as_complex_matrix(unitary, "unitary")
    k = space.half_dim
    if u.shape != (k, k):
        raise ValidationError(f"unitary must have shape ({k}, {k}), got {u.shape}")
    basis = splitting.plus_basis + splitting.minus_basis @ u
    return lagrangian_from_basis(space, basis)


def subspace_distance(v: Lagrangian, w: Lagrangian) -> float:
    """sin of the largest principal angle between two Lagrangians of one space.

    Measured on the whitened columns ``U v.basis`` and ``U w.basis``, which are
    orthonormal: the norm of the residual of projecting the second onto the
    first, so small angles resolve down to roundoff, not sqrt(roundoff).
    """
    _require_same_space(v.space, w.space)
    q1, q2 = v.space._upper @ v.basis, v.space._upper @ w.basis
    return float(np.linalg.norm(q2 - q1 @ (q1.conj().T @ q2), 2))
