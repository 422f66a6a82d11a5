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
construction and all operations are pure functions of them, so the data a
space derives (its Cholesky factor, whitened ``gamma``, condition number and
splitting) is computed once and kept on the space, which many Lagrangians
share.  A Lagrangian is only its space and basis: its graph unitary is
computed on each call.  Spaces, splittings and Lagrangians compare and hash
by identity; :func:`same_space` compares two spaces by value.

The k/k split and the checks of a Lagrangian span, a graph map and an
intersection dimension are private functions shared with
:mod:`~hermsymp.maslov`, each taking a single space or a stack.  The split is
one ``eigh`` of the whitened ``i gamma``; every pair invariant takes its graph
maps in the eigenvectors, which the space keeps.  Only :func:`phi_of` and
:func:`lagrangian_from_graph` read the phase-fixed bases of :func:`eigensplit`,
which raises unless each keeps k columns.  One rank rule decides every span,
whatever its column count: :func:`~hermsymp.linalg.gram_mgs`, Gram-Schmidt's
drops on the QR of :func:`~hermsymp.linalg.span_qr`, in
:func:`lagrangian_from_basis` and in :func:`~hermsymp.maslov.m_stack`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    EigensplitError,
    LagrangianValidationError,
    RankAmbiguity,
    SpaceValidationError,
    Tolerances,
    ValidationError,
)
from .linalg import adjoint, as_complex_matrix, gram_mgs, max_abs


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HermitianSymplecticSpace:
    """Complex inner-product space with a compatible complex structure.

    ``gram`` is the Hermitian positive-definite matrix of the inner product in
    the chosen coordinate basis; ``gamma`` is the matrix of the complex
    structure in the same basis; ``tol`` holds the thresholds used by every
    decision on the space, its Lagrangians and the spaces derived from it.
    Construction performs the structural checks (square, even-dimensional,
    Hermitian positive-definite gram) and keeps its Cholesky factor ``_upper``
    and the plain attributes ``dim`` and ``half_dim``, which the pair passes
    read on every call; the three algebraic invariants are measured by
    :func:`validate_space`.

    Dimension zero is allowed and carries the unique empty Lagrangian.

    ``(T, n, n)`` stacks of ``gram`` and ``gamma`` make a stack of T spaces
    sharing ``tol``, as :func:`~hermsymp.maslov.m_stack` builds it: the same
    checks and one stacked Cholesky make ``_upper`` a stack of factors, a
    failing item is named by its index, and ``_exceeds_alg`` takes one
    residual per item.  The public functions of this module take single
    spaces; the private checks take either.
    """

    gram: np.ndarray
    gamma: np.ndarray
    tol: Tolerances = Tolerances()

    def __post_init__(self) -> None:
        gram = np.asarray(self.gram, dtype=np.complex128)
        gamma = np.asarray(self.gamma, dtype=np.complex128)
        if gram.ndim not in (2, 3):
            raise ValidationError(f"gram must be (n, n) or a (T, n, n) stack, got {gram.shape}")
        if gram.shape[-1] != gram.shape[-2]:
            raise SpaceValidationError(f"gram must be square, got shape {gram.shape}")
        if gamma.shape != gram.shape:
            raise SpaceValidationError(
                f"gamma shape {gamma.shape} does not match gram shape {gram.shape}"
            )
        finite = np.isfinite(gram).all(axis=(-2, -1)) & np.isfinite(gamma).all(axis=(-2, -1))
        _raise_at_first(~finite, SpaceValidationError, "gram and gamma must have finite entries")
        n = gram.shape[-1]
        if n % 2 != 0:
            raise SpaceValidationError(f"dimension must be even, got {n}")
        skew = np.abs(gram - adjoint(gram)).max(axis=(-2, -1), initial=0.0)
        scale = np.abs(gram).max(axis=(-2, -1), initial=0.0)
        _raise_at_first(skew > 1e-12 * scale, SpaceValidationError, "gram must be Hermitian")
        try:
            upper = adjoint(linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            # a stacked call does not say which item failed; factor them one by one
            definite = np.ones(gram.shape[:-2], dtype=bool)
            for j in np.ndindex(definite.shape):
                try:
                    linalg.cholesky(gram[j])
                except np.linalg.LinAlgError:
                    definite[j] = False
                    break
            _raise_at_first(~definite, SpaceValidationError, "gram must be positive definite")
            raise
        object.__setattr__(self, "gram", _frozen(gram))
        object.__setattr__(self, "gamma", _frozen(gamma))
        object.__setattr__(self, "_upper", _frozen(upper))
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "half_dim", n // 2)

    def omega(self) -> np.ndarray:
        """Matrix of the symplectic form: omega(x, y) = x^H @ omega() @ y."""
        return self.gram @ self.gamma

    @cached_property
    def _upper_inv(self) -> np.ndarray:
        """``U^-1``: one product maps a whitened basis back, where a solve
        would cost a k = 1 Lagrangian construction a fifth of its time."""
        return linalg.inv(self._upper)

    @cached_property
    def _cond(self):
        s = linalg.singular_values(self._upper)
        with np.errstate(all="ignore"):  # as numpy.linalg.cond
            return s[..., 0] / s[..., -1]

    @cached_property
    def _gamma_w(self) -> np.ndarray:
        """``gamma`` in the whitened frame, ``U gamma U^-1``, from one solve."""
        upper = self._upper
        return adjoint(linalg.solve(adjoint(upper), adjoint(upper @ self.gamma)))

    def _exceeds_alg(self, residual):
        """The one rule for whitened residuals; cond(U) >= 1 spares the SVD below ``alg``.

        On a stack of spaces ``residual`` holds one entry per item, and so does
        the verdict.
        """
        alg = self.tol.alg
        if isinstance(residual, np.ndarray):
            past = residual > alg
            if past.any():
                past &= residual > alg * self._cond
            return past
        return residual > alg and residual > alg * self._cond

    @cached_property
    def _evecs(self) -> np.ndarray:
        # Lazy: most spaces built by reduction and composition never need it.
        return _split(self)

    @cached_property
    def _splitting(self) -> EigenSplitting:
        k, upper, evecs = self.half_dim, self._upper, self._evecs
        # the coordinate vectors projected onto an eigenspace, U^-1 E E^H U e_j:
        # their coefficients E^H U e_j are orthonormalized in C^k (the identity
        # factor makes gram_mgs's whitened basis the basis itself), which keeps
        # at most k (fewer only past cond(U) ~ 1/tol.rank), and mapped back
        raw, coeffs = linalg.solve(upper, evecs), adjoint(evecs) @ upper
        ident = np.eye(k)
        plus = raw[:, :k] @ gram_mgs(ident, coeffs[:k], drop_tol=self.tol.rank)
        minus = raw[:, k:] @ gram_mgs(ident, coeffs[k:], drop_tol=self.tol.rank)
        columns = (plus.shape[1], minus.shape[1])
        if columns != (k, k):
            raise EigensplitError(f"pinned eigenbases have {columns} columns, expected {(k, k)}")
        if k:
            plus, minus = _phase_fixed(plus), _phase_fixed(minus)
        return EigenSplitting(plus_basis=_frozen(plus), minus_basis=_frozen(minus))


def _raise_at_first(bad, error: type, describe) -> None:
    """Raise ``error`` if a flag of ``bad`` is set: one flag, or one per item of a stack.

    ``describe`` is the message, or ``describe(j)`` words the failure read as
    ``x[j]`` from the check's numpy values: ``j`` is the item of a stack, and
    ``()`` on a single space, where ``x[()]`` is ``x`` itself.  On a stack the
    lowest flagged item is named: the message starts ``item j: `` and the
    error's ``item`` is ``j``.
    """
    if not (bad.any() if bad.ndim else bad):  # .any() of a numpy scalar costs ~1 us
        return
    j = int(np.flatnonzero(bad)[0]) if bad.ndim else ()
    message = describe if isinstance(describe, str) else describe(j)
    exc = error(f"item {j}: {message}" if bad.ndim else message)
    exc.item = j if bad.ndim else None
    raise exc from None


def _split(space) -> np.ndarray:
    """The k/k split of a space, or of each space of a stack, into the +i and
    -i eigenspaces of ``gamma_w``: the whitened eigenvectors of ``i gamma_w``,
    those of eigenvalue -1 (+i) first, then those of +1 (-i)."""
    k, gamma_w = space.half_dim, space._gamma_w
    evals, evecs = linalg.eigh(0.5j * (gamma_w - adjoint(gamma_w)))
    counts = np.stack([(evals < 0).sum(axis=-1), (evals > 0).sum(axis=-1)], axis=-1)
    _raise_at_first(
        (counts != k).any(axis=-1),
        EigensplitError,
        lambda j: "eigenspace dimensions ({}, {}) differ from ".format(*counts[j])
        + f"({k}, {k}); the space does not split evenly into +i/-i eigenspaces",
    )
    plus, minus = evecs[..., :k], evecs[..., k:]
    residuals = np.stack(
        [
            max_abs(gamma_w @ plus - 1j * plus),
            max_abs(gamma_w @ minus + 1j * minus),
            max_abs(adjoint(plus) @ minus),
        ],
        axis=-1,
    )
    _raise_at_first(
        space._exceeds_alg(residuals.max(axis=-1)),
        EigensplitError,
        lambda j: "eigenspaces not separated within tolerance: residuals "
        "plus={:.3e} minus={:.3e} cross={:.3e}".format(*residuals[j]),
    )
    return evecs


def _check_span(space, kept, q_w, gamma_q_w) -> None:
    """A span is Lagrangian: it has ``kept`` = k independent columns, and omega
    ``q_w^H gamma_q_w`` vanishes on its orthonormal whitened basis ``q_w``."""
    k = space.half_dim
    _raise_at_first(
        kept != k,
        LagrangianValidationError,
        lambda j: f"basis spans dimension {kept[j]}, expected {k}",
    )
    residual = max_abs(adjoint(q_w) @ gamma_q_w)
    _raise_at_first(
        space._exceeds_alg(residual),
        LagrangianValidationError,
        lambda j: f"symplectic form does not vanish on the span: residual {residual[j]:.3e}",
    )


def _graph_map(space, frame, q_w) -> np.ndarray:
    """The unitary ``phi = c a^-1`` whose graph is a Lagrangian, or each of a stack:
    ``a`` and ``c`` are the products of the +i and the -i half of the whitened
    orthonormal ``frame`` with the whitened basis ``q_w = U basis``."""
    k = space.half_dim
    coords = adjoint(frame) @ q_w
    a, c = coords[..., :k, :], coords[..., k:, :]
    s_min = linalg.singular_values(a).min(axis=-1, initial=np.inf)
    _raise_at_first(
        s_min <= space.tol.rank,
        LagrangianValidationError,
        lambda j: "projection onto the +i eigenspace is singular; input is not a "
        f"valid Lagrangian (smallest singular value {s_min[j]:.3e})",
    )
    phi = c @ linalg.inv(a)
    residual = max_abs(adjoint(phi) @ phi - np.eye(space.half_dim))
    _raise_at_first(
        space._exceeds_alg(residual),
        LagrangianValidationError,
        lambda j: f"graph map is not unitary: residual {residual[j]:.3e}",
    )
    return phi


def _intersection_dim(space, columns_w):
    """dim(V & W) from the whitened columns of both Lagrangians, side by side,
    with the rank guard band ``(tol.rank/10, 10 tol.rank)``."""
    tau = space.tol.rank
    s = linalg.singular_values(columns_w)
    in_band = (s > tau / 10.0) & (s < tau * 10.0)
    _raise_at_first(
        in_band.any(axis=-1),
        RankAmbiguity,
        lambda j: f"singular value {s[j][in_band[j]][0]:.3e} inside the rank guard "
        f"band around {tau:.0e}",
    )
    return space.dim - (s > tau).sum(axis=-1)


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
    gamma_w, n = space._gamma_w, space.dim
    ident = np.eye(n, dtype=np.complex128)
    r_sq = max_abs(gamma_w @ gamma_w + ident)
    r_unit = max_abs(gamma_w.conj().T @ gamma_w - ident)
    eigs = linalg.eigvalsh(0.5j * (gamma_w - gamma_w.conj().T))
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


@dataclass(frozen=True, eq=False)
class EigenSplitting:
    """Gram-orthonormal bases of the +i and -i eigenspaces of ``gamma``.

    Produced deterministically: the coordinate basis vectors, projected onto
    each eigenspace along the eigenvectors that decide the split, are
    orthonormalized in input order, in the eigenvectors' coordinates, and each
    vector's phase is fixed so that its first non-negligible coordinate is real
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

    One ``eigh`` of the whitened ``i gamma``, whose eigenvectors every pair
    invariant shares, decides the split; :class:`EigensplitError` unless it is
    k/k within the space's thresholds and each basis keeps k columns.
    Computed on first use and memoized on the space.
    """
    return space._splitting


@dataclass(frozen=True, eq=False)
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


def lagrangian_from_basis(space: HermitianSymplecticSpace, basis) -> Lagrangian:
    """Validate a spanning matrix and wrap its span as a Lagrangian.

    ``basis`` may have any number of columns, dependent or zero ones included,
    but must have ``space.dim`` rows and finite entries.  It is replaced by its
    gram-orthonormalization under the one rank rule of
    :func:`~hermsymp.linalg.gram_mgs`, columns in input order, which must keep
    exactly ``space.half_dim`` columns.  Rejects every other span, and spans
    on which the symplectic form does not vanish within the space's threshold
    rule (``tol.alg`` scaled by cond(U)), with :class:`LagrangianValidationError`.
    This is the one place where a span becomes a Lagrangian.
    """
    mat = as_complex_matrix(basis, "basis")
    if mat.shape[0] != space.dim:
        raise LagrangianValidationError(
            f"basis must have {space.dim} rows, got shape {mat.shape}"
        )
    upper = space._upper
    q_w = gram_mgs(upper, mat, drop_tol=space.tol.rank)
    # a column with a non-finite entry is never kept
    if q_w.shape[1] < mat.shape[1] and not np.isfinite(mat).all():
        raise LagrangianValidationError("basis has non-finite entries")
    q = space._upper_inv @ q_w
    _check_span(space, np.intp(q.shape[1]), q_w, upper @ (space.gamma @ q))
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
    return int(_intersection_dim(v.space, v.space._upper @ np.hstack([v.basis, w.basis])))


def phi_of(lagr: Lagrangian) -> np.ndarray:
    """Matrix of the unitary whose graph is the Lagrangian.

    In the bases of :func:`eigensplit`, every column w of the Lagrangian
    decomposes as w = w+ + w- with w- = phi(w+); the returned read-only
    half_dim x half_dim matrix is unitary under the space's threshold rule.
    Fails where :func:`eigensplit` fails, or if the projection of the span to
    the +i eigenspace is singular, which signals an invalid input that slipped
    past validation.  Computed afresh on each call.
    """
    space, splitting = lagr.space, eigensplit(lagr.space)
    frame = space._upper @ np.hstack([splitting.plus_basis, splitting.minus_basis])
    return _frozen(_graph_map(space, frame, space._upper @ lagr.basis))


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
    return float(linalg.singular_values(q2 - q1 @ (q1.conj().T @ q2)).max(initial=0.0))
