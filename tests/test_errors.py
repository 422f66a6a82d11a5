"""Every error type is raised somewhere in the package and exported, every
one README names exists, and array input numpy cannot read raises a typed error."""
import ast
import pathlib
import re

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import bordism, errors, maslov, sampling

SRC = pathlib.Path(errors.__file__).parent


def _error_types() -> set[str]:
    tree = ast.parse((SRC / "errors.py").read_text())
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }

    def is_error(name):
        return name == "HermsympError" or any(is_error(b) for b in bases.get(name, ()))

    return {name for name in bases if name != "HermsympError" and is_error(name)}


def _raised_names() -> set[str]:
    """Names raised by a ``raise`` statement, or passed as the error type to
    ``spaces._raise_at_first``, which raises it when a check's flag is set."""
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_raise_at_first"
            ):
                exc = node.args[1]
            else:
                continue
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                raised.add(exc.attr)
    return raised


def test_every_error_type_is_raised_and_exported():
    types = _error_types()
    assert "ValidationError" in types
    assert sorted(types - _raised_names()) == []
    assert sorted(n for n in types if getattr(hs, n, None) is not getattr(errors, n)) == []


def test_every_error_readme_names_is_exported():
    # a backticked name ending in Error or Ambiguity is one of the package's
    # error types, or numpy's LinAlgError, so a removed type cannot linger there
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"`(?:\w+\.)*(\w+(?:Error|Ambiguity))`", readme))
    assert "EigenvalueAmbiguity" in named
    types = {"HermsympError", *_error_types()}
    exported = {name for name in types if getattr(hs, name, None) is getattr(errors, name)}
    assert sorted(named - exported - {"LinAlgError"}) == []


def _item_owners() -> set[str]:
    """``module.function`` of every assignment to an ``item`` attribute."""
    owners = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    else []
                )
                if any(isinstance(t, ast.Attribute) and t.attr == "item" for t in targets):
                    owners.add(f"{path.stem}.{func.name}")
    return owners


def test_only_the_stacked_entry_points_name_an_item():
    # a failing item is named where a stack is rerun as its scalar loop, and
    # where the torus sweep maps it to its grid index; nowhere else
    assert _item_owners() == {"maslov.m_stack", "torus.torus_m_sweep"}


MALFORMED = {
    "string": [["a"]],
    "bytes": b"ab",
    "ragged": [[1, 2], [3]],
    "dict": [[{}]],
    "object": [[object()]],
    "past_double_range": [[10**400]],
    # text numpy would parse as numbers
    "numeric_string": [["1"], [" 0 "]],
    "numeric_bytes": np.array([[b"1"], [b"0"]]),
    "numeric_object_string": np.array([["1"], ["0"]], dtype=object),
    "mixed_object": np.array([[1.0], ["0"]], dtype=object),
    "boolean": [[True], [False]],
}


def _entry_points(make):
    """Each public entry point that reads an array, fed ``make(shape)`` in one
    argument, ``shape`` being the one that argument takes there."""
    space = hs.standard_space(1)
    gram, gamma, bases = space.gram[None], space.gamma[None], np.ones((1, 2, 1))
    return {
        "space_gram": lambda: hs.HermitianSymplecticSpace(make((2, 2)), space.gamma),
        "space_gamma": lambda: hs.HermitianSymplecticSpace(space.gram, make((2, 2))),
        "lagrangian_from_basis": lambda: hs.lagrangian_from_basis(space, make((2, 1))),
        "lagrangian_from_graph": lambda: hs.lagrangian_from_graph(space, make((1, 1))),
        "relation_from_map": lambda: bordism.relation_from_map(space, space, make((2, 2))),
        "m_stack_gram": lambda: maslov.m_stack(make((1, 2, 2)), gamma, bases, bases),
        "m_stack_gamma": lambda: maslov.m_stack(gram, make((1, 2, 2)), bases, bases),
        "m_stack_v": lambda: maslov.m_stack(gram, gamma, make((1, 2, 1)), bases),
        "m_stack_w": lambda: maslov.m_stack(gram, gamma, bases, make((1, 2, 1))),
    }


ENTRY_POINTS = sorted(_entry_points(None))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", sorted(MALFORMED))
def test_an_array_numpy_cannot_read_raises_validation_error(entry, value):
    # numpy's ValueError, TypeError or OverflowError must not escape
    with pytest.raises(hs.ValidationError, match="must be an array of numbers"):
        _entry_points(lambda shape: MALFORMED[value])[entry]()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_none_entries_raise_the_non_finite_errors(entry):
    # None reads as nan, which the finite-entry checks reject
    with pytest.raises(hs.ValidationError, match="finite entries"):
        _entry_points(lambda shape: np.full(shape, None).tolist())[entry]()


def _hand_built_entry_points(value):
    """Each entry point that takes a checked ``Lagrangian`` as given, fed a
    hand-built one whose basis has ``value`` in one entry."""
    rng = np.random.default_rng(5)
    space = hs.standard_space(2)
    u, v, w, x = (sampling.random_lagrangian(space, rng) for _ in range(4))
    basis = np.array(v.basis)
    basis[1, 0] = value
    bad = hs.Lagrangian(space, basis)
    rel = sampling.random_bordism_relation(space, hs.standard_space(1), rng)
    graph = np.array(rel.graph.basis)
    graph[0, 0] = value
    bad_rel = bordism.BordismRelation(rel.source, rel.target, hs.Lagrangian(rel.graph.space, graph))
    back = sampling.random_bordism_relation(hs.standard_space(1), space, rng)
    return {
        "m_details": lambda: hs.m_details(u, bad),
        "intersection_dim": lambda: hs.intersection_dim(bad, u),
        "phi_of": lambda: hs.phi_of(bad),
        "triple_index": lambda: hs.triple_index(u, bad, w),
        # a non-finite VX, VY or WY fails the span check of its gamma image already
        "eta_correction_rhs": lambda: hs.eta_correction_rhs(u, w, bad, x),
        "subspace_distance": lambda: hs.subspace_distance(u, bad),
        "reduce": lambda: bordism.reduce(rel, bad),
        "reduce_graph": lambda: bordism.reduce(bad_rel, u),
        "compose": lambda: bordism.compose(back, bad_rel),
    }


@pytest.mark.parametrize("entry", sorted(_hand_built_entry_points(0.0)))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_hand_built_lagrangian_with_a_non_finite_entry_raises_a_typed_error(entry, value):
    # not numpy's LinAlgError from the SVD or eigensolve it fails, nor the
    # RuntimeWarning of an infinite entry times a zero of the Cholesky factor,
    # which the whitening product keeps quiet: warnings are errors here
    with pytest.raises(hs.LagrangianValidationError, match="non-finite entries"):
        _hand_built_entry_points(value)[entry]()


@pytest.mark.parametrize("spread", [0, 0.01, 0.999, -4.0, np.nan, np.inf, "4", b"4", True, None])
def test_sampling_rejects_a_spread_that_is_not_finite_or_below_one(spread):
    rng = np.random.default_rng(0)
    with pytest.raises(hs.ValidationError, match="spread must be finite and at least 1"):
        sampling.random_invertible(2, rng, spread)
    with pytest.raises(hs.ValidationError, match="spread must be finite and at least 1"):
        sampling.random_space(1, rng, spread=spread)
    # checked before any draw
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_sampling_takes_a_spread_of_one():
    t = sampling.random_invertible(3, np.random.default_rng(0), spread=1)
    assert np.allclose(np.linalg.svd(t, compute_uv=False), 1.0)
    assert hs.validate_space(sampling.random_space(2, np.random.default_rng(0), spread=1)).passed


def test_positive_float_returns_a_python_float_and_still_checks_a_float():
    for value in (2.5, np.float64(2.5), 5e-324, np.float64(1.7e308)):
        got = errors._positive_float(value, "rule")
        assert type(got) is float and got == value
    for bad in (0.0, -0.0, -1.0, float("nan"), float("inf"), np.float64("nan"),
                np.float64("-inf"), np.float64(0.0)):
        with pytest.raises(hs.ValidationError, match=r"rule, got (-?0\.0|-1\.0|nan|-?inf)$"):
            errors._positive_float(bad, "rule")
