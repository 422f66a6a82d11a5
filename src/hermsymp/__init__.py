"""Finite-dimensional Hermitian symplectic calculus.

Lagrangian subspaces of Hermitian symplectic spaces, the real-valued pair
invariant and integer triple index built from their graph unitaries,
propagation of Lagrangians across bordisms by linear canonical relations, and
two fully worked families: the harmonic-form space of a flat 2-torus with a
stretch parameter, and exact rational Chern-Simons arithmetic for flat
connections on torus bundles.
"""

from .errors import (
    BranchCut,
    ConditionFailed,
    EigensplitError,
    EigenvalueAmbiguity,
    ExclusionMismatch,
    HermsympError,
    LagrangianValidationError,
    NonIntegerSum,
    OutOfArc,
    RankAmbiguity,
    SpaceValidationError,
    ValidationError,
)
from .spaces import (
    EigenSplitting,
    HermitianSymplecticSpace,
    InvariantCheck,
    Lagrangian,
    SpaceReport,
    Tolerances,
    direct_sum,
    eigensplit,
    gamma_image,
    intersection_dim,
    lagrangian_from_basis,
    lagrangian_from_graph,
    negated,
    phi_of,
    same_space,
    standard_space,
    subspace_distance,
    validate_space,
    zero_space,
)
from .maslov import PairSpectrum, eta_correction_rhs, m_details, m_invariant, m_stack, triple_index
from .bordism import (
    BordismRelation,
    compose,
    glued_boundary_lagrangian,
    identity_relation,
    lagrangian_relation,
    reduce,
    relation_distance,
    relation_from_graph,
    relation_from_map,
)
from .torus import (
    IntegerPairLagrangian,
    SweepResult,
    SweepRow,
    TorusModel,
    torus_m_closed_form,
    torus_m_sweep,
    variation_expected,
)
from .knotcalc import (
    DEFAULT_MONODROMY,
    GluingMatrix,
    RepPoint,
    chern_simons,
    cs_winding,
    holonomy_constraint,
    mapping_torus_condition,
    rho_difference_mod_z,
    torus_twisted_cohomology,
    trefoil_arc_point,
)

__version__ = "0.1.0"
