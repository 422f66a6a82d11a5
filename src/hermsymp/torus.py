"""Harmonic-form model of the flat 2-torus with a stretch parameter.

For each t > 0 the torus carries the flat metric making {dx, t dy} an
orthonormal coframe (both circles of circumference 2 pi).  On the harmonic
forms in the basis (1, dx, dy, dx^dy) the induced inner product is

    gram = 4 pi^2 diag(t, t, 1/t, 1/t)

and the Hodge-star complex structure acts by

    1 -> t dx^dy,   dx -> t dy,   dy -> -dx / t,   dx^dy -> -1 / t.

The Lagrangians of interest are spanned by the constant function together
with an integer line a dx + b dy; for two such Lagrangians the pair invariant
has a closed form whose value genuinely moves with t, exhibiting the metric
dependence of the invariant.  The closed form and the generic spectral
algorithm are independent computations of the same number, and keeping both
is the central oracle of this module.

For non-parallel lines the invariant is continuous in t.  With
w1 = b + i t a and w2 = B + i t A, the log argument of the closed form is
-u / conj(u) for u = w1 conj(w2), so it reaches the branch point -1 only
where Im(u) = t (aB - bA) vanishes, and for non-parallel lines it never does
at t > 0.  A :class:`BranchCut` or :class:`EigenvalueAmbiguity` in a sweep
is therefore numerical (extreme t or huge entries), not a crossing.

A :class:`TorusModel` space carries the default :class:`~hermsymp.spaces.Tolerances`.
Its eigensplitting is computed on first use and memoized on the space, so all
Lagrangians of one model share it.  :func:`torus_m_sweep` builds no model: it
stacks the matrices of a chunk of grid points and evaluates the generic route
for all of them in one :func:`~hermsymp.maslov.m_stack` call, with the sweep's
tolerances (the defaults unless given) and every check of the per-model route,
and the closed form for the same chunk in one array pass.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import islice
from numbers import Integral

import numpy as np
from numpy._core.umath import _extobj_contextvar

from .errors import BranchCut, HermsympError, ValidationError, _positive_float
from .linalg import _QUIET
from .maslov import m_stack
from .spaces import HermitianSymplecticSpace, Lagrangian, Tolerances, lagrangian_from_basis

TORUS_AREA = 4.0 * math.pi ** 2  # both circles have circumference 2 pi
SWEEP_CHUNK = 1024  # grid points per m_stack call; bounds the sweep's temporaries


def torus_gram(t) -> np.ndarray:
    """Gram matrix at stretch t; a ``(T, 4, 4)`` stack for an array of T values.
    Past the double range an entry is infinite, without a warning, for the
    space's finiteness check to report."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape + (4, 4), dtype=np.complex128)
    token = _extobj_contextvar.set(_QUIET)
    try:
        for i, scale in enumerate((t, t, 1.0 / t, 1.0 / t)):
            out[..., i, i] = TORUS_AREA * scale
    finally:
        _extobj_contextvar.reset(token)
    return out


def torus_gamma(t) -> np.ndarray:
    """Hodge-star complex structure at stretch t; stacked like :func:`torus_gram`."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape + (4, 4), dtype=np.complex128)
    token = _extobj_contextvar.set(_QUIET)
    try:
        out[..., 0, 3] = out[..., 1, 2] = -1.0 / t
    finally:
        _extobj_contextvar.reset(token)
    out[..., 2, 1] = out[..., 3, 0] = t
    return out


def _stretch(t) -> float:
    return _positive_float(t, "stretch parameter must be positive")


@dataclass(frozen=True)
class IntegerPairLagrangian:
    """Integer line a dx + b dy, completed by the constant functions.

    Only the span matters: proportional pairs give the same subspace for
    every stretch parameter.  ``reduced()`` divides out the gcd; it is never
    applied implicitly so that inputs stay traceable.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            value = int(value)
            try:
                float(value)
            except OverflowError:
                raise ValidationError(
                    f"{name} has no finite float value: an integer of {value.bit_length()} bits"
                ) from None
            object.__setattr__(self, name, value)
        if self.a == 0 and self.b == 0:
            raise ValidationError("integer pair must not be (0, 0)")

    def basis(self) -> np.ndarray:
        """Columns 1 and a dx + b dy in the basis (1, dx, dy, dx^dy)."""
        out = np.zeros((4, 2), dtype=np.complex128)
        out[0, 0] = 1.0
        out[1, 1] = self.a
        out[2, 1] = self.b
        return out

    def reduced(self) -> "IntegerPairLagrangian":
        g = math.gcd(self.a, self.b)
        return IntegerPairLagrangian(self.a // g, self.b // g)

    def parallel(self, other: "IntegerPairLagrangian") -> bool:
        return self.a * other.b == self.b * other.a


@dataclass(frozen=True)
class TorusModel:
    """The 4-dimensional harmonic-form space at stretch parameter t."""

    t: float
    space: HermitianSymplecticSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = _stretch(self.t)
        object.__setattr__(self, "t", t)
        object.__setattr__(
            self, "space", HermitianSymplecticSpace(torus_gram(t), torus_gamma(t))
        )

    def lagrangian(self, a, b=None) -> Lagrangian:
        """Lagrangian spanned by the constants and a dx + b dy."""
        pair = a if isinstance(a, IntegerPairLagrangian) else IntegerPairLagrangian(a, b)
        return lagrangian_from_basis(self.space, pair.basis())


def torus_m_closed_form(a: int, b: int, A: int, B: int, t: float) -> float:
    """Closed form of the pair invariant for two integer-line Lagrangians.

    Evaluates, on the branch (-pi, pi],

        -(1/(pi i)) * (pi i + log(-((i t a + b)/(i t a - b))
                                   * ((i t A - B)/(i t A + B))))
        + dim(V_X & V_Y)

    with dim(V_X & V_Y) = 1 + 1 when (a, b) and (A, B) are parallel (equal
    spans, detected exactly on the integers, all eigenvalues excluded, value
    0) and 1 + 0 otherwise.  The branch point is guarded with the default
    ``Tolerances.eig``, the threshold the generic route applies to the torus
    space: a log argument within it of -1 raises :class:`BranchCut`, and one
    that is not finite (``t * a`` or ``t * A`` past the double range) raises
    :class:`ValidationError`.
    """
    first, second = IntegerPairLagrangian(a, b), IntegerPairLagrangian(A, B)
    return _closed_form(first, second, np.array([_stretch(t)])).tolist()[0]


def _quotient(ar, ai, br, bi):
    """``(ar + i ai) / (br + i bi)`` on real arrays, rounded as Python's complex
    division rounds: Smith's method, dividing through by the larger of |br|, |bi|.
    (numpy's complex division multiplies by a reciprocal and differs in the last bits.)

    Where ``|bi|`` is the larger, Smith's second branch is the first one on
    ``(ai, -ar, bi, -br)`` to the bit, each product and sum being the same up
    to the order of its operands and exact negations; so the inputs are
    swapped there, and only the first branch is evaluated."""
    wide = abs(br) >= abs(bi)
    ar, ai = np.where(wide, ar, ai), np.where(wide, ai, -ar)
    br, bi = np.where(wide, br, bi), np.where(wide, bi, -br)
    ratio = bi / br
    denom = br + bi * ratio
    return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom


def _closed_form(
    first: IntegerPairLagrangian, second: IntegerPairLagrangian, t: np.ndarray, tol=Tolerances()
):
    """:func:`torus_m_closed_form` at each stretch of the float array ``t``,
    with the branch point guarded by ``tol.eig``.

    The arithmetic of the scalar formula on Python complex numbers, done on
    real arrays in the same order, so each value is that formula's to the bit.
    The first point whose log argument is within the guard of -1 or is not
    finite raises, as a loop over the points would.
    """
    if first.parallel(second):
        # identical spans: the log argument is exactly -1, both eigenvalues
        # are excluded and the dimension term cancels the remaining constants.
        return np.zeros(t.shape)
    # b and B are negated as integers: a zero entry stays +0.0, as in complex(-b, t * a)
    (a, b), (A, B) = (first.a, first.b), (second.a, second.b)
    tau = tol.eig
    # an overflow leaves a non-finite argument, raised below
    token = _extobj_contextvar.set(_QUIET)
    try:
        ta, tA = t * float(a), t * float(A)
        za_re, za_im = _quotient(float(b), ta, float(-b), ta)  # (i t a + b) / (i t a - b)
        zb_re, zb_im = _quotient(float(-B), tA, float(B), tA)  # (i t A - B) / (i t A + B)
        arg = np.empty(t.shape, np.complex128)  # -(za * zb), as Python's complex product
        arg.real = -(za_re * zb_re - za_im * zb_im)
        arg.imag = -(za_re * zb_im + za_im * zb_re)
        failed = ~np.isfinite(arg) | (np.hypot(arg.real + 1.0, arg.imag) <= tau)
    finally:
        _extobj_contextvar.reset(token)
    if np.count_nonzero(failed):
        j = int(failed.argmax())
        z = complex(arg[j])
        if not cmath.isfinite(z):
            raise ValidationError(
                f"closed form overflows at t={t[j].item()!r}: log argument {z} is not finite"
            )
        raise BranchCut(
            f"log argument {z:.12g} is within {tau:.0e} of -1 for "
            "non-parallel input; the invariant is discontinuous here"
        )
    # the imaginary part of numpy's complex log is libm's atan2; np.arctan2 may
    # be a SIMD routine that differs from it in the last bit
    return -np.log(arg).imag / math.pi


def variation_expected(a: int, b: int, A: int, B: int) -> bool:
    """Sufficient condition for the invariant to move with t.

    The known argument covers a, b both non-zero against a non-parallel
    second line; outside that case the sweep only reports what it sees.
    """
    return a * b != 0 and not IntegerPairLagrangian(a, b).parallel(
        IntegerPairLagrangian(A, B)
    )


@dataclass(frozen=True)
class SweepRow:
    t: float
    m_closed: float
    m_generic: float

    @property
    def delta(self) -> float:
        return abs(self.m_closed - self.m_generic)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    @property
    def max_delta(self) -> float:
        return max((r.delta for r in self.rows), default=0.0)

    @property
    def varies(self) -> bool:
        values = [r.m_generic for r in self.rows]
        return bool(values) and max(values) - min(values) > 1e-9


def torus_m_sweep(
    a: int, b: int, A: int, B: int, t_values, tol: Tolerances = Tolerances()
) -> SweepResult:
    """Evaluate both computation routes of the invariant over a t grid.

    Each row carries the closed form and the generic spectral value; they
    agree to high accuracy on valid input, and their difference is the
    oracle residual reported by the sweep CLI.  ``t_values`` is any iterable
    of positive finite numbers, read ``SWEEP_CHUNK`` entries at a time; each
    row's ``t`` is ``float`` of its entry.

    Both routes run once per chunk, so no array spans the whole grid: the
    closed form on the chunk's stretches, bit for bit the value of
    :func:`torus_m_closed_form` at each, and the generic values from
    :func:`~hermsymp.maslov.m_stack` on the stacked torus matrices and line
    bases, under ``tol``, whose ``eig`` also guards the closed form's branch
    point.  The two stay independent computations.  A stretch that is not
    positive and finite raises :class:`ValidationError` before any point of
    its chunk is evaluated.  Past that check a failure raises what the
    per-point loop of the per-model route raises: the error at the first
    failing grid point, the generic value's before the closed form's.  A
    generic failure has the grid index as ``item``, and its message names the
    chunk's first grid point and the item within it.
    """
    first, second = IntegerPairLagrangian(a, b), IntegerPairLagrangian(A, B)
    v, w = first.basis(), second.basis()
    values, rows = iter(t_values), []
    while chunk := [_stretch(t) for t in islice(values, SWEEP_CHUNK)]:
        t = np.array(chunk)
        bases = (x[None].repeat(len(chunk), axis=0) for x in (v, w))
        try:
            generic = m_stack(torus_gram(t), torus_gamma(t), *bases, tol)
        except HermsympError as exc:
            # a closed form failing at an earlier point raises first, as per point
            _closed_form(first, second, t[: exc.item], tol)
            error = type(exc)(f"torus sweep chunk from grid point {len(rows)}, {exc}")
            error.item = len(rows) + exc.item
            raise error from None
        closed = _closed_form(first, second, t, tol)
        rows.extend(map(SweepRow, chunk, closed.tolist(), generic.tolist()))
    return SweepResult(rows=tuple(rows))
