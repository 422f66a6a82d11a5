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

A :class:`TorusModel` space carries the default :class:`~hermsymp.spaces.Tolerances`.
Its eigensplitting is computed on first use and memoized on the space, so all
Lagrangians of one model share it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchCut, ValidationError
from .maslov import m_invariant
from .spaces import HermitianSymplecticSpace, Lagrangian, Tolerances, lagrangian_from_basis

TORUS_AREA = 4.0 * math.pi ** 2  # both circles have circumference 2 pi


def torus_gram(t: float) -> np.ndarray:
    return TORUS_AREA * np.diag([t, t, 1.0 / t, 1.0 / t]).astype(np.complex128)


def torus_gamma(t: float) -> np.ndarray:
    return np.array(
        [
            [0.0, 0.0, 0.0, -1.0 / t],
            [0.0, 0.0, -1.0 / t, 0.0],
            [0.0, t, 0.0, 0.0],
            [t, 0.0, 0.0, 0.0],
        ],
        dtype=np.complex128,
    )


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
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.a == 0 and self.b == 0:
            raise ValidationError("integer pair must not be (0, 0)")

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
        t = float(self.t)
        if not (t > 0.0 and math.isfinite(t)):
            raise ValidationError(f"stretch parameter must be positive, got {self.t!r}")
        object.__setattr__(self, "t", t)
        object.__setattr__(
            self, "space", HermitianSymplecticSpace(torus_gram(t), torus_gamma(t))
        )

    def lagrangian(self, a, b=None) -> Lagrangian:
        """Lagrangian spanned by the constants and a dx + b dy."""
        pair = a if isinstance(a, IntegerPairLagrangian) else IntegerPairLagrangian(a, b)
        basis = np.zeros((4, 2), dtype=np.complex128)
        basis[0, 0] = 1.0
        basis[1, 1] = pair.a
        basis[2, 1] = pair.b
        return lagrangian_from_basis(self.space, basis)


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
    space.
    """
    first = IntegerPairLagrangian(a, b)
    second = IntegerPairLagrangian(A, B)
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError(f"stretch parameter must be positive, got {t!r}")
    if first.parallel(second):
        # identical spans: the log argument is exactly -1, both eigenvalues
        # are excluded and the dimension term cancels the remaining constants.
        return 0.0
    za = complex(b, t * a) / complex(-b, t * a)     # (i t a + b) / (i t a - b)
    zb = complex(-B, t * A) / complex(B, t * A)     # (i t A - B) / (i t A + B)
    arg = -(za * zb)
    tau = Tolerances.eig
    if abs(arg + 1.0) <= tau:
        raise BranchCut(
            f"log argument {arg:.12g} is within {tau:.0e} of -1 for "
            "non-parallel input; the invariant is discontinuous here"
        )
    return -math.atan2(arg.imag, arg.real) / math.pi


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


def torus_m_sweep(a: int, b: int, A: int, B: int, t_values) -> SweepResult:
    """Evaluate both computation routes of the invariant over a t grid.

    Each row carries the closed form and the generic spectral value; they
    agree to high accuracy on valid input, and their difference is the
    oracle residual reported by the sweep CLI.
    """
    rows = []
    for t in t_values:
        model = TorusModel(t)
        vx = model.lagrangian(a, b)
        vy = model.lagrangian(A, B)
        generic = m_invariant(vx, vy)
        closed = torus_m_closed_form(a, b, A, B, model.t)
        rows.append(SweepRow(t=model.t, m_closed=closed, m_generic=generic))
    return SweepResult(rows=tuple(rows))
