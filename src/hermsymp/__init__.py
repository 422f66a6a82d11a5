"""Finite-dimensional Hermitian symplectic calculus.

Lagrangian subspaces of Hermitian symplectic spaces, the real-valued pair
invariant and integer triple index built from their graph unitaries,
propagation of Lagrangians across bordisms by linear canonical relations, and
two fully worked families: the harmonic-form space of a flat 2-torus with a
stretch parameter, and exact rational Chern-Simons arithmetic for flat
connections on torus bundles.

Only :mod:`~hermsymp.errors` is imported eagerly.  The other modules are
registered in ``sys.modules`` as lazy modules that run their code on their
first attribute access, and the names exported from them resolve on first
use, so ``import hermsymp`` and the exact commands of :mod:`~hermsymp.cli`
load no numpy.  A module loads under one lock, so threads that reach it at
once wait for its code to finish.
"""

import importlib.util
import sys
import threading
import types

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

# one lock for every load, re-entrant: loading spaces loads linalg on the same thread
_loading = threading.RLock()
_running = set()  # the modules whose code the thread holding _loading runs now


class _LazyModule(types.ModuleType):
    """A module whose code runs on its first attribute access.  Every access
    waits for that code under ``_loading``, so no thread sees half a module;
    then it becomes a plain module, whose accesses cost nothing extra."""

    def __getattribute__(self, name):
        with _loading:
            if type(self) is _LazyModule and self not in _running:
                _running.add(self)
                try:
                    types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                finally:
                    _running.discard(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


for _name in ("linalg", "spaces", "maslov", "bordism", "torus", "knotcalc", "serialization"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _module = importlib.util.module_from_spec(_spec)
    _module.__class__ = _LazyModule
    sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module

__version__ = "0.1.0"

__all__ = [*(name for name in globals() if name[0].isupper()), *_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
