"""Finite-dimensional Hermitian symplectic calculus.

Lagrangian subspaces of Hermitian symplectic spaces, the real-valued pair
invariant and integer triple index built from their graph unitaries,
propagation of Lagrangians across bordisms by linear canonical relations, and
two fully worked families: the harmonic-form space of a flat 2-torus with a
stretch parameter, and exact rational Chern-Simons arithmetic for flat
connections on torus bundles.

Only :mod:`~hermsymp.errors` is imported eagerly.  The other modules are
registered in ``sys.modules`` by :class:`importlib.util.LazyLoader` and run on
their first attribute access, and the names exported from them resolve on
first use, so ``import hermsymp`` and the exact commands of
:mod:`~hermsymp.cli` load no numpy.
"""

import importlib.util
import sys

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
    Tolerances,
    ValidationError,
)

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("EigenSplitting", "HermitianSymplecticSpace", "InvariantCheck", "Lagrangian",
         "SpaceReport", "direct_sum", "eigensplit", "gamma_image", "intersection_dim",
         "lagrangian_from_basis", "lagrangian_from_graph", "negated", "phi_of", "same_space",
         "standard_space", "subspace_distance", "validate_space", "zero_space"),
        "spaces",
    ),
    **dict.fromkeys(
        ("PairSpectrum", "eta_correction_rhs", "m_details", "m_invariant", "m_stack",
         "triple_index"),
        "maslov",
    ),
    **dict.fromkeys(
        ("BordismRelation", "compose", "glued_boundary_lagrangian", "identity_relation",
         "lagrangian_relation", "reduce", "relation_distance", "relation_from_graph",
         "relation_from_map"),
        "bordism",
    ),
    **dict.fromkeys(
        ("IntegerPairLagrangian", "SweepResult", "SweepRow", "TorusModel",
         "torus_m_closed_form", "torus_m_sweep", "variation_expected"),
        "torus",
    ),
    **dict.fromkeys(
        ("DEFAULT_MONODROMY", "GluingMatrix", "RepPoint", "chern_simons", "cs_winding",
         "holonomy_constraint", "mapping_torus_condition", "rho_difference_mod_z",
         "torus_twisted_cohomology", "trefoil_arc_point"),
        "knotcalc",
    ),
}

for _name in ("linalg", "spaces", "maslov", "bordism", "torus", "knotcalc", "serialization"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module

__version__ = "0.1.0"

__all__ = [*(name for name in globals() if name[0].isupper()), *_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
