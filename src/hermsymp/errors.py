"""Exception types shared across the package."""


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
    """An eigenvalue lies too close to -1 to classify.  The pair invariant is
    genuinely discontinuous across the -1 eigenvalue, so no tolerance can
    resolve this case."""


class ExclusionMismatch(HermsympError):
    """The number of eigenvalues excluded at -1 disagrees with the computed
    intersection dimension; the numerics are untrustworthy."""


class NonIntegerSum(HermsympError):
    """A quantity guaranteed to be an integer failed the integrality guard."""


class BranchCut(HermsympError):
    """The closed-form logarithm argument is too close to the branch endpoint
    -1 without the inputs being exactly parallel."""


class OutOfArc(ValidationError):
    """Parameter outside the open interval of the representation arc."""


class ConditionFailed(ValidationError):
    """Holonomy parameters do not extend over the mapping torus."""
