"""The names the benchmark's tracer wraps must exist in the library.

``bench/tracer.py`` rebinds each function listed in its ``LAYERS`` table and
wraps ``__init__`` of each listed class; a rename in ``hermsymp`` would
otherwise only surface when the traced benchmark runs.  The table is parsed
from the file's source; no benchmark code is executed.
"""
import ast
import importlib
import inspect
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_layers():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACER}")


LAYERS = load_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_resolve(layer):
    module = importlib.import_module(f"hermsymp.{layer}")
    for name in LAYERS[layer]:
        obj = getattr(module, name)
        if isinstance(obj, type):
            assert "__init__" in vars(obj), f"{layer}.{name} defines no __init__"
        else:
            assert callable(obj), f"{layer}.{name} is not callable"


def test_gram_mgs_takes_factor_then_basis():
    # the tracer counts columns through the second positional argument
    from hermsymp.linalg import gram_mgs

    assert list(inspect.signature(gram_mgs).parameters)[:2] == ["upper", "basis"]
