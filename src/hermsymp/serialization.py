"""JSON encoding of spaces, Lagrangians, and bordism relations.

Complex entries are objects {"re": ..., "im": ...}; matrices are row-major
nested lists.  A space is {"dim", "gram", "gamma"}, a Lagrangian is
{"basis"}, and a relation is the product-space Lagrangian together with the
dimensions of the two factors:

    {"source_dim", "target_dim", "space", "basis"}

where "space" is the product space whose source block already carries the
reversed complex structure.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .bordism import BordismRelation, relation_from_graph
from .errors import SpaceValidationError, ValidationError
from .linalg import max_abs
from .spaces import HermitianSymplecticSpace, Lagrangian, Tolerances, lagrangian_from_basis


def complex_to_obj(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _double(part: numbers.Real) -> float:
    # JSON integers are unbounded.  One beyond the double range reads as
    # infinite, as JSON's 1e400 does, and fails the finiteness checks.
    try:
        return float(part)
    except OverflowError:
        return math.inf if part > 0 else -math.inf


def obj_to_complex(obj, where: str = "entry") -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValidationError(f'{where} must be an object {{"re": .., "im": ..}}')
    re, im = obj["re"], obj["im"]
    for part in (re, im):
        if isinstance(part, bool) or not isinstance(part, numbers.Real):
            raise ValidationError(f"{where}: re/im must be numbers")
    return complex(_double(re), _double(im))


def matrix_to_obj(mat: np.ndarray) -> list:
    return [[complex_to_obj(complex(z)) for z in row] for row in np.asarray(mat)]


def obj_to_matrix(obj, rows: int, cols: int, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ValidationError(f"{where} must be a list of {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ValidationError(f"{where} row {i} must have {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = obj_to_complex(entry, f"{where}[{i}][{j}]")
    return out


def _int_field(data: dict, key: str) -> int:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f'"{key}" must be an integer')
    return value


def space_to_dict(space: HermitianSymplecticSpace) -> dict:
    return {
        "dim": space.dim,
        "gram": matrix_to_obj(space.gram),
        "gamma": matrix_to_obj(space.gamma),
    }


def _space_matrices(data) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(data, dict):
        raise ValidationError("space document must be a JSON object")
    dim = _int_field(data, "dim")
    if dim < 0:
        raise ValidationError('"dim" must be non-negative')
    gram = obj_to_matrix(data.get("gram"), dim, dim, "gram")
    return gram, obj_to_matrix(data.get("gamma"), dim, dim, "gamma")


def space_from_dict(data, tol: Tolerances = Tolerances()) -> HermitianSymplecticSpace:
    """Parse a space document; the space carries ``tol``."""
    return HermitianSymplecticSpace(*_space_matrices(data), tol)


def lagrangian_to_dict(lagr: Lagrangian) -> dict:
    return {"basis": matrix_to_obj(lagr.basis)}


def lagrangian_from_dict(space: HermitianSymplecticSpace, data) -> Lagrangian:
    if not isinstance(data, dict) or "basis" not in data:
        raise ValidationError('Lagrangian document must be an object with "basis"')
    basis = obj_to_matrix(data["basis"], space.dim, space.half_dim, "basis")
    return lagrangian_from_basis(space, basis)


def relation_to_dict(rel: BordismRelation) -> dict:
    return {
        "source_dim": rel.source.dim,
        "target_dim": rel.target.dim,
        "space": space_to_dict(rel.graph.space),
        "basis": matrix_to_obj(rel.graph.basis),
    }


def relation_from_dict(data, tol: Tolerances = Tolerances()) -> BordismRelation:
    """Parse a relation document; its source, target and graph carry ``tol``.

    Its product matrices must be finite and block diagonal within ``tol.alg``.
    """
    if not isinstance(data, dict):
        raise ValidationError("relation document must be a JSON object")
    d0 = _int_field(data, "source_dim")
    d1 = _int_field(data, "target_dim")
    if d0 < 0 or d1 < 0:
        raise ValidationError("factor dimensions must be non-negative")
    gram, gamma = _space_matrices(data.get("space"))
    if len(gram) != d0 + d1:
        raise ValidationError(
            f"product space dim {len(gram)} does not equal source_dim + target_dim = {d0 + d1}"
        )
    if not (np.isfinite(gram).all() and np.isfinite(gamma).all()):
        raise SpaceValidationError("gram and gamma must have finite entries")
    for name, mat in (("gram", gram), ("gamma", gamma)):
        off = max(max_abs(mat[:d0, d0:]), max_abs(mat[d0:, :d0]))
        if off > tol.alg * max_abs(mat):
            raise ValidationError(f"product {name} must be block diagonal across the factors")
    source = HermitianSymplecticSpace(gram[:d0, :d0], -gamma[:d0, :d0], tol)
    target = HermitianSymplecticSpace(gram[d0:, d0:], gamma[d0:, d0:], tol)
    basis = obj_to_matrix(data.get("basis"), d0 + d1, (d0 + d1) // 2, "basis")
    return relation_from_graph(source, target, basis)
