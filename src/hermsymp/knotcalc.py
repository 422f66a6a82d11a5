"""Exact arithmetic for flat connections on torus bundles.

Everything here is rational: holonomy parameters are stored as fractions and
all mod-Z statements and cohomology ranks are computed exactly, so results are
bit-reproducible.

The pipeline: a point on the representation arc of the trefoil-complement
boundary gives diagonal holonomy parameters (phi, psi); their twisted torus
cohomology vanishes off the trivial case; the parameters extend over the
mapping torus of a gluing matrix f exactly when (phi, psi)(f + I) is an
integer vector; and for extendable parameters the Chern-Simons invariant of
the flat connection is phi*n - psi*m mod Z with (m, n) = (phi, psi)(I +
f^{-1}).  Individual Chern-Simons lifts depend on the representative
parameters; only scaled differences between two extendable points, as
returned by :func:`rho_difference_mod_z`, are used as invariants.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import ConditionFailed, OutOfArc, ValidationError


def _rational(value, name: str = "value") -> Fraction:
    """An int, a Fraction, or text in the form ``p/q``, an integer or a plain
    decimal, as a Fraction; anything else, an exponent included, raises."""
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be an exact rational, got a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if "e" in value.lower():  # Fraction would expand 1e-99999999 digit by digit
                raise ValueError("decimal exponents are not accepted")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{name}: cannot parse {value!r} as p/q") from exc
    raise ValidationError(
        f"{name} must be an int, Fraction, or 'p/q' string, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class RepPoint:
    """Diagonal holonomy parameters of the two commuting torus generators.

    The first generator maps to diag(e^{2 pi i phi}, e^{-2 pi i phi}) and the
    second to diag(e^{2 pi i psi}, e^{-2 pi i psi}).  Parameters are exact
    rationals; floats are rejected to keep the mod-Z arithmetic drift-free.
    """

    phi: Fraction
    psi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", _rational(self.phi, "phi"))
        object.__setattr__(self, "psi", _rational(self.psi, "psi"))


@dataclass(frozen=True)
class GluingMatrix:
    """2x2 integer matrix with determinant one, acting on the torus lattice."""

    rows: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        try:
            entries = tuple(tuple(row) for row in self.rows)
        except TypeError:  # rows, or a row, that cannot be iterated
            raise ValidationError("gluing matrix must be 2x2") from None
        for x in (x for row in entries for x in row):
            if isinstance(x, bool) or not isinstance(x, Integral):
                raise ValidationError(f"gluing matrix entries must be integers, got {x!r}")
        if len(entries) != 2 or any(len(row) != 2 for row in entries):
            raise ValidationError("gluing matrix must be 2x2")
        object.__setattr__(self, "rows", tuple(tuple(int(x) for x in row) for row in entries))
        if self.det != 1:
            raise ValidationError(f"gluing matrix must have determinant 1, got {self.det}")

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def inverse(self) -> "GluingMatrix":
        (a, b), (c, d) = self.rows
        return GluingMatrix(((d, -b), (-c, a)))


# Gluing used by the worked trefoil pipeline and the CLI.
DEFAULT_MONODROMY = GluingMatrix(((1, 3), (2, 7)))


def trefoil_arc_point(t) -> RepPoint:
    """Boundary holonomy parameters of the non-abelian unitary
    representations of the trefoil complement.

    The conjugacy classes form an open arc parametrized by
    (phi, psi) = (t, -6 t + 1/2) for 1/12 < t < 5/12.
    """
    t = _rational(t, "t")
    if not (Fraction(1, 12) < t < Fraction(5, 12)):
        raise OutOfArc(f"t = {t} outside the open arc (1/12, 5/12)")
    return RepPoint(phi=t, psi=-6 * t + Fraction(1, 2))


def torus_twisted_cohomology(rep: RepPoint) -> tuple[int, int, int]:
    """Cohomology dimensions (h0, h1, h2) of the torus twisted by ``rep``.

    The holonomies are diagonal, so the twisted complex splits into two lines
    on which the generators act by e^{+-2 pi i phi} and e^{+-2 pi i psi}.  A
    line with a non-trivial character is acyclic; an untwisted line has the
    cohomology (1, 2, 1) of the torus.  Both characters are trivial exactly
    when phi and psi are integers, which is decided on the fractions.
    """
    if rep.phi.denominator == 1 and rep.psi.denominator == 1:
        return (2, 4, 2)
    return (0, 0, 0)


def holonomy_constraint(rep: RepPoint, f: GluingMatrix) -> tuple[Fraction, Fraction]:
    """Row vector (phi, psi)(f + I), exact.

    The diagonal assignment extends over the mapping torus of ``f`` exactly
    when both entries are integers: conjugation by the bundle's circle
    generator multiplies the fiber generators by their lattice images.
    """
    (a, b), (c, d) = f.rows
    return (
        rep.phi * (a + 1) + rep.psi * c,
        rep.phi * b + rep.psi * (d + 1),
    )


def mapping_torus_condition(rep: RepPoint, f: GluingMatrix) -> bool:
    u, v = holonomy_constraint(rep, f)
    return u.denominator == 1 and v.denominator == 1


def cs_winding(rep: RepPoint, f: GluingMatrix) -> tuple[Fraction, Fraction]:
    """(m, n) = (phi, psi)(I + f^{-1}); an integer vector whenever the
    extension condition holds."""
    return holonomy_constraint(rep, f.inverse())


def chern_simons(rep: RepPoint, f: GluingMatrix) -> Fraction:
    """Chern-Simons invariant mod Z of the flat connection on the mapping
    torus with diagonal fiber holonomy ``rep``.

    Returns phi*n - psi*m reduced to the canonical representative in [0, 1),
    with (m, n) from :func:`cs_winding`.  Raises :class:`ConditionFailed` if
    the parameters do not extend over the mapping torus.
    """
    if not mapping_torus_condition(rep, f):
        raise ConditionFailed(
            f"(phi, psi) = ({rep.phi}, {rep.psi}) does not extend over the "
            "mapping torus: (phi, psi)(f + I) is not an integer vector"
        )
    m, n = cs_winding(rep, f)
    return (rep.phi * n - rep.psi * m) % 1


def rho_difference_mod_z(rep1: RepPoint, rep2: RepPoint, f: GluingMatrix) -> Fraction:
    """4 (cs(rep1) - cs(rep2)) mod Z, exact, in [0, 1).

    This scaled difference of Chern-Simons values is the mod-Z obstruction
    showing the two flat connections are spectrally inequivalent.  The
    rho-invariant difference of the two connections on the mapping torus is
    congruent to the negative of this value mod Z; swapping the arguments
    returns that opposite ordering.
    """
    return (4 * (chern_simons(rep1, f) - chern_simons(rep2, f))) % 1
