"""Exception types and the decision thresholds shared across the package.

Neither needs numpy, so the parser of :mod:`hermsymp.cli` reads its tolerance
defaults without loading the numeric modules.
"""
import math
from dataclasses import dataclass, fields


class HermsympError(Exception):
    """Base class for all package errors.

    ``item`` is the index of the failing item when a check over a stack fails
    (:func:`~hermsymp.maslov.m_stack`) or of the failing grid point of
    :func:`~hermsymp.torus.torus_m_sweep`, and None otherwise.
    """

    item: int | None = None


class ValidationError(HermsympError):
    """Input rejected before computation (shape, type, schema, precondition)."""


class SpaceValidationError(ValidationError):
    """A Hermitian symplectic space failed its structural checks."""


class LagrangianValidationError(ValidationError):
    """A candidate subspace is not a valid Lagrangian."""


class EigensplitError(HermsympError):
    """The +i/-i eigenspaces could not be separated: ``gamma`` fails the
    checks of :func:`~hermsymp.spaces.validate_space`, or a pinned basis of
    :func:`~hermsymp.spaces.eigensplit` keeps fewer than k columns."""


class EigenvalueAmbiguity(HermsympError):
    """An eigenvalue lies too close to -1 to classify, or one of a Kashiwara
    form too close to 0.  The pair invariant is genuinely discontinuous across
    the -1 eigenvalue, and the triple index where that form's eigenvalue
    changes sign, so no tolerance can resolve this case."""


class NonIntegerSum(HermsympError):
    """A quantity guaranteed to be an integer failed the integrality guard."""


class BranchCut(HermsympError):
    """The closed-form logarithm argument is too close to the branch endpoint
    -1 without the inputs being exactly parallel."""


class OutOfArc(ValidationError):
    """Parameter outside the open interval of the representation arc."""


class ConditionFailed(ValidationError):
    """Holonomy parameters do not extend over the mapping torus."""


@dataclass(frozen=True)
class Tolerances:
    """Decision thresholds of a space and of everything derived from it.

    ``alg`` bounds whitened residuals of algebraic identities, times cond(U),
    ``rank`` whitened singular values of rank decisions, ``eig`` the distance
    at which an eigenvalue counts as -1, and ``int`` the integrality guard.
    Problems handled here are tiny (dims below ~50), so double precision leaves
    wide margins around each default.  Each field is stored as a float, which
    must be finite and positive; any other value, or one with no float, raises
    :class:`ValidationError` naming the field.
    """

    alg: float = 1e-10
    rank: float = 1e-8
    eig: float = 1e-8
    int: float = 1e-6

    def __post_init__(self) -> None:
        for field in fields(self):
            rule = f"tolerance {field.name} must be finite and positive"
            object.__setattr__(self, field.name, _positive_float(getattr(self, field.name), rule))


def _positive_float(value, rule: str) -> float:
    """``float(value)`` if it is finite and positive, else :class:`ValidationError`
    worded ``rule``.  Text, byte buffers and booleans, numpy's by their dtype,
    are not numbers here, though ``float`` reads them.  A value with no float
    is named by its type: the ``repr`` of an integer past 4300 digits raises.
    A ``float``, ``numpy.float64`` included, skips the type checks: a grid of
    stretches reads one per point."""
    if isinstance(value, float):
        number = float(value)
    elif (
        isinstance(value, (str, bytes, bytearray, memoryview, bool))
        or getattr(getattr(value, "dtype", None), "kind", None) == "b"
    ):
        raise ValidationError(f"{rule}, got {type(value).__name__}")
    else:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):  # no float at all, or none in range
            raise ValidationError(
                f"{rule}, got {type(value).__name__} with no float value"
            ) from None
    if not 0.0 < number < math.inf:
        raise ValidationError(f"{rule}, got {number!r}")
    return number
