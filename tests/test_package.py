"""The package surface: every exported name resolves, lazily, to its home module;
the test configuration of pyproject.toml; and the size README states."""
import os
import pathlib
import re
import subprocess
import sys

import pytest

import hermsymp as hs

# The names ``import hermsymp`` exported when it imported every module eagerly.
EXPORTS = {
    "errors": (
        "BranchCut", "ConditionFailed", "EigensplitError", "EigenvalueAmbiguity",
        "HermsympError", "LagrangianValidationError", "NonIntegerSum", "OutOfArc",
        "SpaceValidationError", "ValidationError", "Tolerances",
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
    assert len(NAMES) == 10 + 51 and len(hs.__all__) == len(NAMES) + 1
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
    assert not hasattr(hs, "RankAmbiguity") and not hasattr(hs.errors, "RankAmbiguity")


# Right after ``import hermsymp``, threads released together each read one
# name of the not yet loaded ``spaces``; each must wait for its code to run.
THREADED_ACCESS = """
import threading
import hermsymp

names = ["Lagrangian", "phi_of", "zero_space", "eigensplit"]
barrier = threading.Barrier(len(names))
errors = []

def touch(name):
    barrier.wait()
    try:
        getattr(hermsymp.spaces, name)
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=touch, args=(name,)) for name in names]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(errors)
"""


def test_threads_first_touching_a_lazy_module_see_all_of_it():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", THREADED_ACCESS], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout == "[]\n"


FAILING_HYPOTHESIS_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_fails_only_itself(tmp_path):
    # hypothesis imports libcst to report a failing example; its deprecation
    # warning must not become an internal error that ends the run
    (tmp_path / "test_failing.py").write_text(FAILING_HYPOTHESIS_TEST)
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


def test_readme_states_the_source_line_count():
    # README gives the size of src/hermsymp, the total of its modules as wc -l
    # counts them, so that the figure moves with the code
    root = pathlib.Path(__file__).parents[1]
    total = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "hermsymp").glob("*.py"))
    stated = re.findall(r"`src/hermsymp` has (\d+) lines", (root / "README.md").read_text())
    assert stated == [str(total)]
