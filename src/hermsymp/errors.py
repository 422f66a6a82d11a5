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
    """The +i/-i eigenspaces could not be separated or are unbalanced."""


class RankAmbiguity(HermsympError):
    """A singular value fell inside the guard band around the rank threshold;
    the rank decision is numerically unsafe and the caller must decide."""


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
            if not 0.0 < value < math.inf:
                raise ValidationError(
                    f"tolerance {field.name} must be finite and positive, got {value!r}"
                )
