"""JSON schema round trips and malformed-input rejection."""
import numpy as np
import pytest

import hermsymp as hs
from hermsymp import bordism, sampling
from hermsymp import serialization as ser
from hermsymp.errors import ValidationError


def test_space_roundtrip(rng):
    space = sampling.random_space(2, rng)
    doc = ser.space_to_dict(space)
    back = ser.space_from_dict(doc)
    assert np.array_equal(back.gram, space.gram)
    assert np.array_equal(back.gamma, space.gamma)


def test_lagrangian_roundtrip(rng):
    space = sampling.random_space(2, rng)
    lagr = sampling.random_lagrangian(space, rng)
    back = ser.lagrangian_from_dict(space, ser.lagrangian_to_dict(lagr))
    assert hs.subspace_distance(back, lagr) < 1e-12


def test_relation_roundtrip(rng):
    source = sampling.random_space(1, rng)
    target = sampling.random_space(2, rng)
    rel = sampling.random_bordism_relation(source, target, rng)
    back = ser.relation_from_dict(ser.relation_to_dict(rel))
    assert bordism.relation_distance(back, rel) < 1e-12
    assert hs.same_space(back.source, rel.source)
    assert hs.same_space(back.target, rel.target)


def test_zero_dim_space_roundtrip():
    space = hs.zero_space()
    back = ser.space_from_dict(ser.space_to_dict(space))
    assert back.dim == 0


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {},
        {"dim": 2},
        {"dim": "2", "gram": [], "gamma": []},
        {"dim": -2, "gram": [], "gamma": []},
        {"dim": 2, "gram": [[{"re": 1, "im": 0}]], "gamma": [[{"re": 0, "im": 0}]]},
        {
            "dim": 2,
            "gram": [[{"re": 1}, {"re": 0, "im": 0}], [{"re": 0, "im": 0}, {"re": 1, "im": 0}]],
            "gamma": [[{"re": 0, "im": 0}] * 2] * 2,
        },
        {
            "dim": 2,
            "gram": [[{"re": 1, "im": 0}, {"re": 0, "im": 0}]] * 2,
            "gamma": [[{"re": "x", "im": 0}, {"re": 0, "im": 0}]] * 2,
        },
        {
            "dim": 2,
            "gram": [[{"re": 10**330, "im": 0}, {"re": 0, "im": 0}]] * 2,
            "gamma": [[{"re": 0, "im": 0}] * 2] * 2,
        },
    ],
)
def test_malformed_space_rejected(doc):
    with pytest.raises(ValidationError):
        ser.space_from_dict(doc)


def test_malformed_lagrangian_rejected(rng):
    space = sampling.random_space(1, rng)
    with pytest.raises(ValidationError):
        ser.lagrangian_from_dict(space, {"no_basis": []})
    with pytest.raises(ValidationError):
        ser.lagrangian_from_dict(space, {"basis": [[{"re": 1, "im": 0}]]})


@pytest.mark.parametrize(
    "doc, message",
    [
        ("not a dict", "JSON object"),
        ([], "JSON object"),
        ({"source_dim": -2, "target_dim": 4}, "non-negative"),
        ({"source_dim": 2, "target_dim": -2}, "non-negative"),
    ],
)
def test_malformed_relation_rejected(doc, message):
    with pytest.raises(ValidationError, match=message):
        ser.relation_from_dict(doc)


def test_relation_requires_block_diagonal_product(rng):
    source = sampling.random_space(1, rng)
    target = sampling.random_space(1, rng)
    rel = sampling.random_bordism_relation(source, target, rng)
    doc = ser.relation_to_dict(rel)
    doc["space"]["gram"][0][2] = {"re": 0.5, "im": 0.0}
    doc["space"]["gram"][2][0] = {"re": 0.5, "im": 0.0}
    with pytest.raises(ValidationError):
        ser.relation_from_dict(doc)


@pytest.mark.parametrize("scale, coupling", [(1e-12, 0.0), (1e-12, 0.5), (1.0, np.nan)])
def test_relation_block_check_is_relative_and_finite(scale, coupling):
    # The identity relation on the standard line, its product gram scaled and
    # its two factors coupled at a fraction of the diagonal.
    doc = ser.relation_to_dict(bordism.identity_relation(hs.standard_space(1)))
    gram = scale * np.eye(4)
    gram[0, 2] = gram[2, 0] = scale * coupling
    doc["space"]["gram"] = ser.matrix_to_obj(gram)
    if coupling == 0.0:
        assert ser.relation_from_dict(doc).source.gram[0, 0] == scale
        return
    with pytest.raises(ValidationError):
        ser.relation_from_dict(doc)


def test_relation_dim_consistency(rng):
    source = sampling.random_space(1, rng)
    target = sampling.random_space(1, rng)
    doc = ser.relation_to_dict(sampling.random_bordism_relation(source, target, rng))
    doc["source_dim"] = 4
    with pytest.raises(ValidationError):
        ser.relation_from_dict(doc)
