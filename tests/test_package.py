"""The package surface: every exported name resolves, lazily, to its home module."""
import pytest

import hermsymp as hs

# The names ``import hermsymp`` exported when it imported every module eagerly.
EXPORTS = {
    "errors": (
        "BranchCut", "ConditionFailed", "EigensplitError", "EigenvalueAmbiguity",
        "ExclusionMismatch", "HermsympError", "LagrangianValidationError", "NonIntegerSum",
        "OutOfArc", "RankAmbiguity", "SpaceValidationError", "ValidationError", "Tolerances",
    ),
    "spaces": (
        "EigenSplitting", "HermitianSymplecticSpace", "InvariantCheck", "Lagrangian",
        "SpaceReport", "direct_sum", "eigensplit", "gamma_image", "intersection_dim",
        "lagrangian_from_basis", "lagrangian_from_graph", "negated", "phi_of", "same_space",
        "standard_space", "subspace_distance", "validate_space", "zero_space",
    ),
    "maslov": (
        "PairSpectrum", "eta_correction_rhs", "m_details", "m_invariant", "m_stack",
        "triple_index",
    ),
    "bordism": (
        "BordismRelation", "compose", "glued_boundary_lagrangian", "identity_relation",
        "lagrangian_relation", "reduce", "relation_distance", "relation_from_graph",
        "relation_from_map",
    ),
    "torus": (
        "IntegerPairLagrangian", "SweepResult", "SweepRow", "TorusModel",
        "torus_m_closed_form", "torus_m_sweep", "variation_expected",
    ),
    "knotcalc": (
        "DEFAULT_MONODROMY", "GluingMatrix", "RepPoint", "chern_simons", "cs_winding",
        "holonomy_constraint", "mapping_torus_condition", "rho_difference_mod_z",
        "torus_twisted_cohomology", "trefoil_arc_point",
    ),
}
NAMES = [(home, name) for home, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("home, name", NAMES, ids=[name for _, name in NAMES])
def test_exported_name_resolves_to_its_home(home, name):
    assert name in hs.__all__ and name in dir(hs)
    assert getattr(hs, name) is getattr(getattr(hs, home), name)


def test_version_tolerances_and_star_import():
    assert len(NAMES) == 12 + 51 and len(hs.__all__) == len(NAMES) + 1
    assert hs.__version__ == "0.1.0" and "__version__" in hs.__all__
    assert hs.spaces.Tolerances is hs.Tolerances
    namespace = {}
    exec("from hermsymp import *", namespace)
    assert {name for _, name in NAMES} <= namespace.keys()
    assert namespace["m_invariant"] is hs.maslov.m_invariant


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'm_invarient'"):
        hs.m_invarient
    assert not hasattr(hs, "sampling_helpers")
