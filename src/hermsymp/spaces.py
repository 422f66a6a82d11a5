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

The checks of a Lagrangian span and a graph map are private functions
shared with :mod:`~hermsymp.maslov`, each taking a single space or a stack.
A check broadcasts over its caller's leading axes: its figures keep the
leading shape of the bases it is given, a stack's cond(U) broadcasts against
them, and it raises if any entry fails, naming the first.  Each check is one
stacked pass; the graph map decides that its +i block is not singular from
that block's Gram matrix, with an SVD only where the bound is inconclusive.
The complex structure is checked once: the space keeps the figures of
:func:`validate_space`, its two residuals and the eigenvalue counts of one
``eigh`` of the whitened ``i gamma``, and its k/k split, the eigenvectors of
that ``eigh``, raises :class:`EigensplitError` on the same figures.  Every
pair invariant takes its graph maps in those eigenvectors, through their
adjoint, which the space keeps beside them.  Only
:func:`phi_of` and :func:`lagrangian_from_graph` read the phase-fixed bases
of :func:`eigensplit`, which raises unless each keeps k columns.  One rank
rule decides every span, whatever its column count:
:func:`~hermsymp.linalg.gram_mgs`, Gram-Schmidt's drops on the QR of
:func:`~hermsymp.linalg.span_qr`, in :func:`lagrangian_from_basis`.

A floating-point failure is a typed error, never a warning: a space forms
``gamma_w`` and its check's figures under :func:`~hermsymp.linalg.quiet`, where
an overflow or a failed ``eigh`` is a failing figure, and a LAPACK call on
whitened bases fails through :func:`_lapack_on_whitened`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from . import linalg
from .errors import (
    EigensplitError,
    LagrangianValidationError,
    SpaceValidationError,
    Tolerances,
    ValidationError,
)
from .linalg import adjoint, as_complex, as_complex_matrix, gram_mgs, max_abs


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _identity(n: int, scale: float = 1.0) -> np.ndarray:
    """The real ``scale I`` of size n, read-only and shared by every space."""
    out = scale * np.eye(n)
    out.setflags(write=False)
    return out


class _lazy:
    """``functools.cached_property`` without the lock that Python 3.11 takes on
    each first access: the value is kept in the instance's ``__dict__``, which
    later reads find first.  Threads racing on a first access may each compute
    it; the values are equal, being pure functions of an immutable object."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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
    read on every call; the three algebraic invariants are measured once, on
    first use, and reported by :func:`validate_space`.  A product of two
    spaces (:func:`direct_sum`, and the flipped product of a bordism) is not
    constructed from its matrices: it takes its factor, the factor's inverse
    and its whitened ``gamma`` from its factors' blocks.

    Dimension zero is allowed and carries the unique empty Lagrangian.

    ``(T, n, n)`` stacks of ``gram`` and ``gamma`` make a stack of T spaces
    sharing ``tol``: the same checks and one stacked Cholesky make ``_upper``
    a stack of factors.  :func:`~hermsymp.maslov.m_stack` builds its stack
    with :func:`_stack_space`, on its own arrays.  A failing check on a stack
    names no item; ``m_stack`` bisects the stack to the lowest failing item
    and reruns only that one.  The public functions of this module take
    single spaces; the private checks take either.
    """

    gram: np.ndarray
    gamma: np.ndarray
    tol: Tolerances = Tolerances()

    # ``(a, b, sign)`` on a product that :func:`_block_sum` built, else None
    _factors = None

    def __post_init__(self) -> None:
        gram, gamma = as_complex(self.gram, "gram"), as_complex(self.gamma, "gamma")
        _check_shapes(gram, gamma)
        upper = _checked_factor(gram, gamma)
        self._set_fields(_frozen(gram), _frozen(gamma), self.tol, _frozen(upper))

    def _set_fields(self, gram, gamma, tol, upper) -> None:
        """The stored fields of a checked space, from arrays it owns, and the
        derived ones every pass reads, in one write to its ``__dict__``."""
        n = gram.shape[-1]
        self.__dict__.update(
            gram=gram, gamma=gamma, tol=tol, _upper=upper, dim=n, half_dim=n // 2,
            _basis_shape=(n, n // 2),
        )

    def omega(self) -> np.ndarray:
        """Matrix of the symplectic form: omega(x, y) = x^H @ omega() @ y."""
        return self.gram @ self.gamma

    @_lazy
    def _upper_inv(self) -> np.ndarray:
        """``U^-1``: one product maps a whitened basis back, where a solve
        would cost a k = 1 Lagrangian construction a fifth of its time."""
        return linalg.inv(self._upper)

    @_lazy
    @linalg.quiet  # as numpy.linalg.cond
    def _cond(self):
        s = linalg.singular_values(self._upper)
        if not s.shape[-1]:  # a zero-dimensional space: the neutral scale
            return 1.0
        return s[..., 0] / s[..., -1]

    @_lazy
    @linalg.quiet
    def _gamma_w(self) -> np.ndarray:
        """``gamma`` in the whitened frame, ``U gamma U^-1``, from one solve."""
        upper = self._upper
        return adjoint(linalg.solve(adjoint(upper), adjoint(upper @ self.gamma)))

    def _exceeds_alg(self, residual):
        """The one rule for whitened residuals; cond(U) >= 1 spares the SVD below ``alg``.

        An array of residuals gets a verdict of its shape; on a stack of spaces
        its last axis runs over the items.  A NaN residual exceeds every threshold.
        """
        alg = self.tol.alg
        if isinstance(residual, np.ndarray):
            past = ~(residual <= alg)
            if np.count_nonzero(past):
                past &= ~(residual <= alg * self._cond)
            return past
        return not (residual <= alg or residual <= alg * self._cond)

    @_lazy
    @linalg.quiet
    def _igamma(self):
        """``(evals, evecs)`` of the whitened ``i gamma_w``: the one eigensolve
        of the structure check and of the frame of every pair invariant.  An
        ``eigh`` that fails, on a non-finite ``gamma_w``, gives NaN figures,
        which count no eigenvalue above or below ``tol.rank`` and fail the check."""
        gamma_w = self._gamma_w
        try:
            return linalg.eigh(0.5j * (gamma_w - adjoint(gamma_w)))
        except np.linalg.LinAlgError:
            return np.full(gamma_w.shape[:-1], np.nan), np.full_like(gamma_w, np.nan)

    @_lazy
    @linalg.quiet
    def _structure(self):
        """``(residuals, counts)`` that decide that ``gamma`` is a complex
        structure, for a space or each of a stack, on a new first axis: the
        largest entries of ``gamma_w^2 + I`` and ``gamma_w^H gamma_w - I``, and
        the counts of eigenvalues of ``i gamma_w`` above ``tol.rank``, below
        ``-tol.rank`` and between.  :func:`validate_space` reports them."""
        gamma_w, ident, rank = self._gamma_w, _identity(self.dim), self.tol.rank
        residuals = np.array(
            [max_abs(gamma_w @ gamma_w + ident), max_abs(adjoint(gamma_w) @ gamma_w - ident)]
        )
        evals = self._igamma[0]
        above, below = np.add.reduce(evals > rank, axis=-1), np.add.reduce(evals < -rank, axis=-1)
        return residuals, np.array([above, below, self.dim - above - below])

    @_lazy
    def _evecs(self) -> np.ndarray:
        """The k/k split: the eigenvectors of ``i gamma_w``, those of -1 (the
        +i eigenspace of ``gamma_w``) first.  :class:`EigensplitError` where
        :func:`validate_space` fails, from the figures of :attr:`_structure`.
        Lazy: most spaces built by reduction and composition never need it."""
        k = self.half_dim
        residuals, counts = self._structure
        _raise_at_first(
            (counts[0] != k) | (counts[1] != k) | np.logical_or.reduce(self._exceeds_alg(residuals)),
            EigensplitError,
            lambda j: "eigenspaces not separated within tolerance: i gamma_w has "
            "({}, {}, {}) eigenvalues above, below and within tol.rank of 0, expected "
            "({k}, {k}, 0); residuals gamma_squares_to_minus_identity={:.3e} "
            "gamma_gram_unitary={:.3e}".format(
                *counts[(slice(None), *j)], *residuals[(slice(None), *j)], k=k
            ),
        )
        return self._igamma[1]

    @_lazy
    def _evecs_h(self) -> np.ndarray:
        """The adjoint of :attr:`_evecs`, which maps a whitened basis into the
        split frame of every pair invariant."""
        return adjoint(self._evecs)

    @_lazy
    def _splitting(self) -> EigenSplitting:
        k, upper, evecs = self.half_dim, self._upper, self._evecs
        # the coordinate vectors projected onto an eigenspace, U^-1 E E^H U e_j:
        # their coefficients E^H U e_j are orthonormalized in C^k (the identity
        # factor makes gram_mgs's whitened basis the basis itself), which keeps
        # at most k (fewer only past cond(U) ~ 1/tol.rank), and mapped back
        raw, coeffs = linalg.solve(upper, evecs), adjoint(evecs) @ upper
        plus = raw[:, :k] @ gram_mgs(_identity(k), coeffs[:k], drop_tol=self.tol.rank)
        minus = raw[:, k:] @ gram_mgs(_identity(k), coeffs[k:], drop_tol=self.tol.rank)
        columns = (plus.shape[1], minus.shape[1])
        if columns != (k, k):
            raise EigensplitError(f"pinned eigenbases have {columns} columns, expected {(k, k)}")
        if k:
            plus, minus = _phase_fixed(plus), _phase_fixed(minus)
        return EigenSplitting(plus_basis=_frozen(plus), minus_basis=_frozen(minus))


def _check_shapes(gram: np.ndarray, gamma: np.ndarray) -> int:
    """The shape checks of a space, or of a stack as a whole; returns ``n``."""
    if gram.ndim not in (2, 3):
        raise ValidationError(f"gram must be (n, n) or a (T, n, n) stack, got {gram.shape}")
    if gram.shape[-1] != gram.shape[-2]:
        raise SpaceValidationError(f"gram must be square, got shape {gram.shape}")
    if gamma.shape != gram.shape:
        raise SpaceValidationError(
            f"gamma shape {gamma.shape} does not match gram shape {gram.shape}"
        )
    n = gram.shape[-1]
    if n % 2 != 0:
        raise SpaceValidationError(f"dimension must be even, got {n}")
    return n


def _checked_factor(gram: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """The checks of a space's matrices, or of each of a stack, whose shapes
    :func:`_check_shapes` passed: finite entries, a Hermitian and a positive
    definite ``gram``; returns its Cholesky factor ``U``, ``gram = U^H U``."""
    finite = np.logical_and.reduce(np.isfinite(gram) & np.isfinite(gamma), axis=(-2, -1))
    _raise_at_first(~finite, SpaceValidationError, "gram and gamma must have finite entries")
    skew, scale = max_abs(gram - adjoint(gram)), max_abs(gram)
    _raise_at_first(skew > 1e-12 * scale, SpaceValidationError, "gram must be Hermitian")
    try:
        return adjoint(linalg.cholesky(gram))
    except np.linalg.LinAlgError:
        raise SpaceValidationError("gram must be positive definite") from None


def _stack_space(gram, gamma, tol: Tolerances) -> HermitianSymplecticSpace:
    """The stack of spaces of :func:`~hermsymp.maslov.m_stack`, on complex
    stacks whose shapes it has checked, with the checks of construction; it
    keeps the arrays as they are, with no read-only copies, for one call."""
    space = object.__new__(HermitianSymplecticSpace)
    space._set_fields(gram, gamma, tol, _checked_factor(gram, gamma))
    return space


def _raise_at_first(bad, error: type, describe) -> None:
    """Raise ``error`` if a flag of ``bad``, an array of any shape, is set.

    ``describe`` is the message, or ``describe(j)`` words the failure read as
    ``x[j]`` from the check's numpy values: ``j`` indexes the first flagged
    entry, and is ``()`` for a single bool flag, where ``x[()]`` is ``x``.
    """
    # a single flag is read as it is; on an array, count_nonzero without an
    # axis is one C call, a third of the cost of any() or a ufunc reduce
    if not (np.count_nonzero(bad) if isinstance(bad, np.ndarray) else bad):
        return
    j = np.unravel_index(np.flatnonzero(bad)[0], np.shape(bad))
    raise error(describe if isinstance(describe, str) else describe(j)) from None


def _check_span(space, kept, q_w) -> None:
    """A span is Lagrangian: it has ``kept`` = k independent columns, and omega
    ``q_w^H gamma_w q_w`` vanishes on its orthonormal whitened basis ``q_w``."""
    k = space.half_dim
    _raise_at_first(
        kept != k,
        LagrangianValidationError,
        lambda j: f"basis spans dimension {kept[j]}, expected {k}",
    )
    residual = max_abs(adjoint(q_w) @ (space._gamma_w @ q_w))
    _raise_at_first(
        space._exceeds_alg(residual),
        LagrangianValidationError,
        lambda j: f"symplectic form does not vanish on the span: residual {residual[j]:.3e}",
    )


def _lapack_on_whitened(whitened, routine, *args):
    """``routine(*args)``, a LAPACK function of :mod:`~hermsymp.linalg` on
    figures of the whitened bases ``whitened``.  An entry of those bases that
    is not finite, which no checked Lagrangian has, makes the routine fail, and
    is then reported as the input's fault, :class:`LagrangianValidationError`,
    not as numpy's ``LinAlgError``; any other failure raises as it is."""
    try:
        return routine(*args)
    except np.linalg.LinAlgError:
        for x in whitened:
            if not np.logical_and.reduce(np.isfinite(x), axis=None):
                raise LagrangianValidationError(
                    "basis has non-finite entries in the space's whitened frame"
                ) from None
        raise


def _graph_map(space, frame_h, q_w) -> np.ndarray:
    """The unitary ``phi = c a^-1`` whose graph is a Lagrangian, or each of a stack:
    ``a`` and ``c`` are the products of the +i and the -i half of the whitened
    orthonormal frame, whose adjoint is ``frame_h``, with the whitened basis
    ``q_w = U basis``.

    ``a`` must not be singular: its smallest singular value must exceed
    ``tol.rank``.  Its Gram block decides that without an SVD where it can:
    by Weyl's inequality ``sigma_min(a)^2 >= 1/2 - k max|a^H a - I/2|``, at
    least 1/4 when ``k max|a^H a - I/2| <= 1/4``, and then the check cannot
    fail while ``tol.rank < 1/2``.  On a valid Lagrangian ``a^H a`` is close to
    ``I/2``, since ``[a; c]`` has orthonormal columns and omega vanishes on
    them, ``a^H a - c^H c = 0``; the bound holds for any input.  Where it is
    inconclusive on some item, the SVD decides, and its value is quoted.  A
    non-finite basis, whose bound is NaN, fails that SVD: see
    :func:`_lapack_on_whitened`.
    """
    k, tol = space.half_dim, space.tol
    coords = frame_h @ q_w
    a, c = coords[..., :k, :], coords[..., k:, :]
    gram_off = adjoint(a) @ a - _identity(k, 0.5)
    # one reduce over every item decides the bound for all of them
    largest = np.maximum.reduce(np.abs(gram_off), axis=None, initial=0.0)
    if not (tol.rank < 0.5 and k * largest <= 0.25):
        s = _lapack_on_whitened((q_w,), linalg.singular_values, a)
        s_min = np.minimum.reduce(s, axis=-1, initial=np.inf)
        _raise_at_first(
            s_min <= tol.rank,
            LagrangianValidationError,
            lambda j: "projection onto the +i eigenspace is singular; input is not a "
            f"valid Lagrangian (smallest singular value {s_min[j]:.3e})",
        )
    phi = c @ linalg.inv(a)
    residual = max_abs(adjoint(phi) @ phi - _identity(k))
    _raise_at_first(
        space._exceeds_alg(residual),
        LagrangianValidationError,
        lambda j: f"graph map is not unitary: residual {residual[j]:.3e}",
    )
    return phi


def _principal_sines(q_v, q_w):
    """Descending principal-angle sines of two whitened orthonormal bases, or of
    each pair of a stack: the singular values of ``q_w`` minus its projection on ``q_v``."""
    return _lapack_on_whitened((q_v, q_w), linalg.singular_values, q_w - q_v @ (adjoint(q_v) @ q_w))


def same_space(a: HermitianSymplecticSpace, b: HermitianSymplecticSpace) -> bool:
    return a is b or (
        a.dim == b.dim
        and a.tol == b.tol
        and np.array_equal(a.gram, b.gram)
        and np.array_equal(a.gamma, b.gamma)
    )


def _shared_space(*lagrangians: Lagrangian) -> HermitianSymplecticSpace:
    """The space the Lagrangians share (else :class:`ValidationError`), each basis
    of shape ``(dim, half_dim)`` (else :class:`LagrangianValidationError`)."""
    space = lagrangians[0].space
    shape = space._basis_shape
    for x in lagrangians:
        if x.space is not space or x.basis.shape != shape:
            if not same_space(space, x.space):
                raise ValidationError("operands live in different spaces")
            if x.basis.shape != shape:
                raise LagrangianValidationError(f"basis has shape {x.basis.shape}, not {shape}")
    return space


def standard_space(half_dim: int) -> HermitianSymplecticSpace:
    """Standard model: identity gram, gamma = [[0, -I], [I, 0]]."""
    if isinstance(half_dim, bool) or not isinstance(half_dim, Integral) or half_dim < 0:
        raise SpaceValidationError(f"half_dim must be a non-negative integer, got {half_dim!r}")
    k = int(half_dim)
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


def _block_sum(
    a: HermitianSymplecticSpace, b: HermitianSymplecticSpace, sign: int
) -> HermitianSymplecticSpace:
    """The space ``(a.gram (+) b.gram, sign a.gamma (+) b.gamma)`` in its factors' frames.

    ``sign`` is 1, or -1 for the flipped product of a bordism.  The Cholesky
    factor, its inverse and the whitened ``gamma_w`` are the block diagonals of
    the factors' (each factor computes its own once), so the product makes no
    ``cholesky``, ``inv`` or ``solve`` call of its own; the checks a
    construction would repeat (finite entries, Hermitian and positive-definite
    gram) hold exactly for a block diagonal of checked spaces.  The five blocks
    are read-only views of one :func:`~hermsymp.linalg.block_diag` of the
    factors' stacks.  The factors' tolerances must agree.  The product keeps
    ``(a, b, sign)`` as ``_factors``, the factor objects themselves, so that
    a bordism relation built on it knows its blocks without comparing them.
    """
    if a.tol != b.tol:
        raise ValidationError("operands carry different tolerances")
    gamma_a, gamma_w_a = (a.gamma, a._gamma_w) if sign > 0 else (-a.gamma, -a._gamma_w)
    blocks = linalg.block_diag(
        (a.gram, gamma_a, a._upper, a._upper_inv, gamma_w_a),
        (b.gram, b.gamma, b._upper, b._upper_inv, b._gamma_w),
    )
    blocks.setflags(write=False)
    gram, gamma, upper, upper_inv, gamma_w = blocks
    space = object.__new__(HermitianSymplecticSpace)
    space._set_fields(gram, gamma, a.tol, upper)
    object.__setattr__(space, "_factors", (a, b, sign))
    # seeds the lazy attributes
    space.__dict__["_upper_inv"] = upper_inv
    space.__dict__["_gamma_w"] = gamma_w
    return space


def direct_sum(
    a: HermitianSymplecticSpace, b: HermitianSymplecticSpace
) -> HermitianSymplecticSpace:
    """``a (+) b`` in the factors' frames: its ``U``, ``U^-1`` and ``gamma_w``
    are their block diagonals, so building it factorizes, inverts and solves
    nothing."""
    return _block_sum(a, b, 1)


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
    (r_sq, r_unit), counts = space._structure
    n_pos, n_neg, n_null = counts.tolist()
    signature = n_pos - n_neg
    checks = (
        InvariantCheck(
            "gamma_squares_to_minus_identity", float(r_sq), not space._exceeds_alg(r_sq)
        ),
        InvariantCheck("gamma_gram_unitary", float(r_unit), not space._exceeds_alg(r_unit)),
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

    The bases are read from the eigenvectors of the whitened ``i gamma``,
    which every pair invariant shares; :class:`EigensplitError` where
    :func:`validate_space` fails, or unless each basis keeps k columns.
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
    This is the one place where a raw span becomes a Lagrangian.
    """
    mat = as_complex_matrix(basis, "basis")
    if mat.shape[0] != space.dim:
        raise LagrangianValidationError(
            f"basis must have {space.dim} rows, got shape {mat.shape}"
        )
    q_w = gram_mgs(space._upper, mat, drop_tol=space.tol.rank)
    # a column with a non-finite entry is never kept
    if q_w.shape[1] < mat.shape[1] and not np.isfinite(mat).all():
        raise LagrangianValidationError("basis has non-finite entries")
    _check_span(space, np.intp(q_w.shape[1]), q_w)
    basis = space._upper_inv @ q_w
    basis.setflags(write=False)
    return Lagrangian(space=space, basis=basis)


def gamma_image(lagr: Lagrangian) -> Lagrangian:
    """The Lagrangian gamma(W), which equals the gram-orthogonal complement of W."""
    return lagrangian_from_basis(lagr.space, lagr.space.gamma @ lagr.basis)


def intersection_dim(v: Lagrangian, w: Lagrangian) -> int:
    """dim(V & W): the count of eigenvalues of ``-phi_V phi_W*`` within
    ``tol.eig`` of -1, as :func:`~hermsymp.maslov.m_details` decides it.

    Each eigenvalue lies twice a principal-angle sine of V and W from -1.
    Raises :class:`~hermsymp.errors.EigenvalueAmbiguity` when one lies in
    ``(tol.eig, 100 tol.eig)`` from -1, and fails where :func:`validate_space`
    fails.
    """
    from .maslov import m_details  # maslov imports this module

    return m_details(v, w).intersection_dim


def phi_of(lagr: Lagrangian) -> np.ndarray:
    """Matrix of the unitary whose graph is the Lagrangian.

    In the bases of :func:`eigensplit`, every column w of the Lagrangian
    decomposes as w = w+ + w- with w- = phi(w+); the returned read-only
    half_dim x half_dim matrix is unitary under the space's threshold rule.
    Fails where :func:`eigensplit` fails, or if the projection of the span to
    the +i eigenspace is singular, which signals an invalid input that slipped
    past validation.  Computed afresh on each call.
    """
    space, splitting = _shared_space(lagr), eigensplit(lagr.space)
    frame = space._upper @ np.hstack([splitting.plus_basis, splitting.minus_basis])
    return _frozen(_graph_map(space, adjoint(frame), linalg.whiten(space._upper, lagr.basis)))


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
    orthonormal: the largest :func:`_principal_sines`, the norm of the residual
    of projecting the second onto the first, so small angles resolve to roundoff.
    """
    space = _shared_space(v, w)
    q1, q2 = linalg.whiten(space._upper, v.basis), linalg.whiten(space._upper, w.basis)
    return float(_principal_sines(q1, q2).max(initial=0.0))
