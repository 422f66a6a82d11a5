"""Linear canonical relations: reduction, composition, gluing."""
import dataclasses
import sys

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import bordism, linalg, sampling
from hermsymp import serialization as ser


def test_identity_relation_reduces_to_input(rng):
    space = sampling.random_space(2, rng)
    ident = bordism.identity_relation(space)
    for _ in range(5):
        lagr = sampling.random_lagrangian(space, rng)
        assert hs.subspace_distance(bordism.reduce(ident, lagr), lagr) < 1e-10


def test_zero_source_relation_reduces_to_its_lagrangian(rng):
    target = sampling.random_space(2, rng)
    v1 = sampling.random_lagrangian(target, rng)
    rel = bordism.lagrangian_relation(v1)
    empty = hs.lagrangian_from_basis(hs.zero_space(), np.zeros((0, 0)))
    assert hs.subspace_distance(bordism.reduce(rel, empty), v1) < 1e-12


def test_reduce_outputs_valid_lagrangians(rng):
    source = sampling.random_space(2, rng)
    target = sampling.random_space(2, rng)
    for _ in range(10):
        rel = sampling.random_bordism_relation(source, target, rng)
        lagr = sampling.random_lagrangian(source, rng)
        out = bordism.reduce(rel, lagr)
        assert out.half_dim == target.half_dim
        residual = np.max(np.abs(out.basis.conj().T @ target.omega() @ out.basis))
        assert residual < 1e-10


def test_cylinder_neutral_for_compose(rng):
    source = sampling.random_space(2, rng)
    target = sampling.random_space(3, rng)
    rel = sampling.random_bordism_relation(source, target, rng)
    left = bordism.compose(bordism.identity_relation(source), rel)
    right = bordism.compose(rel, bordism.identity_relation(target))
    assert bordism.relation_distance(left, rel) < 1e-10
    assert bordism.relation_distance(right, rel) < 1e-10


def test_functoriality_reduce_after_compose(rng):
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(2, rng)
    h2 = sampling.random_space(1, rng)
    for _ in range(5):
        rel1 = sampling.random_bordism_relation(h0, h1, rng)
        rel2 = sampling.random_bordism_relation(h1, h2, rng)
        lagr = sampling.random_lagrangian(h0, rng)
        one_step = bordism.reduce(bordism.compose(rel1, rel2), lagr)
        two_step = bordism.reduce(rel2, bordism.reduce(rel1, lagr))
        assert hs.subspace_distance(one_step, two_step) < 1e-8


def test_compose_associative(rng):
    spaces = [sampling.random_space(k, rng) for k in (1, 2, 2, 1)]
    rels = [
        sampling.random_bordism_relation(spaces[i], spaces[i + 1], rng)
        for i in range(3)
    ]
    left = bordism.compose(bordism.compose(rels[0], rels[1]), rels[2])
    right = bordism.compose(rels[0], bordism.compose(rels[1], rels[2]))
    assert bordism.relation_distance(left, right) < 1e-8


def test_compose_of_map_graphs_is_graph_of_composition(rng):
    space = sampling.random_space(2, rng)
    omega = space.omega()
    s1 = sampling.form_preserving_map(omega, rng)
    s2 = sampling.form_preserving_map(omega, rng)
    rel1 = bordism.relation_from_map(space, space, s1)
    rel2 = bordism.relation_from_map(space, space, s2)
    composed = bordism.compose(rel1, rel2)
    direct = bordism.relation_from_map(space, space, s2 @ s1)
    assert bordism.relation_distance(composed, direct) < 1e-10


def test_relation_from_map_rejects_non_preserving(rng):
    space = sampling.random_space(2, rng)
    with pytest.raises(hs.LagrangianValidationError):
        bordism.relation_from_map(space, space, 2.0 * np.eye(space.dim))


def test_glued_boundary_lagrangian_identity_relation(rng):
    space = sampling.random_space(2, rng)
    ident = bordism.identity_relation(space)
    lagr = sampling.random_lagrangian(space, rng)
    glued = bordism.glued_boundary_lagrangian(lagr, ident)
    expected = linalg.block_diag(hs.gamma_image(lagr).basis, lagr.basis)
    prod = hs.direct_sum(space, space)
    direct = hs.lagrangian_from_basis(prod, expected)
    assert hs.subspace_distance(glued, direct) < 1e-12


def test_glued_boundary_lagrangian_random(rng):
    source = sampling.random_space(2, rng)
    target = sampling.random_space(2, rng)
    for _ in range(5):
        rel = sampling.random_bordism_relation(source, target, rng)
        lagr = sampling.random_lagrangian(source, rng)
        glued = bordism.glued_boundary_lagrangian(lagr, rel)
        assert glued.half_dim == 4
        prod = hs.direct_sum(source, target)
        residual = np.max(np.abs(glued.basis.conj().T @ prod.omega() @ glued.basis))
        assert residual < 1e-10


def test_glued_boundary_zero_source(rng):
    target = sampling.random_space(2, rng)
    v1 = sampling.random_lagrangian(target, rng)
    rel = bordism.lagrangian_relation(v1)
    empty = hs.lagrangian_from_basis(hs.zero_space(), np.zeros((0, 0)))
    glued = bordism.glued_boundary_lagrangian(empty, rel)
    assert hs.subspace_distance(glued, v1) < 1e-12


def test_compose_through_zero_dimensional_middle(rng):
    # Composing through a point gives the product relation V1 x V2.
    h0 = sampling.random_space(1, rng)
    h2 = sampling.random_space(2, rng)
    middle = hs.zero_space()
    rel1 = sampling.random_bordism_relation(h0, middle, rng)
    rel2 = sampling.random_bordism_relation(middle, h2, rng)
    composed = bordism.compose(rel1, rel2)
    expected = bordism.relation_from_graph(
        h0, h2, linalg.block_diag(rel1.graph.basis, rel2.graph.basis)
    )
    assert bordism.relation_distance(composed, expected) < 1e-10


def test_reduce_into_zero_dimensional_target(rng):
    h0 = sampling.random_space(2, rng)
    rel = sampling.random_bordism_relation(h0, hs.zero_space(), rng)
    out = bordism.reduce(rel, sampling.random_lagrangian(h0, rng))
    assert out.half_dim == 0


def test_mismatched_spaces_rejected(rng):
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(2, rng)
    h2 = sampling.random_space(1, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h2, h0, rng)
    with pytest.raises(hs.ValidationError):
        bordism.compose(rel1, rel2)
    with pytest.raises(hs.ValidationError):
        bordism.reduce(rel1, sampling.random_lagrangian(h2, rng))


def test_reduce_and_compose_orthonormalize_once(rng, monkeypatch):
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(2, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    lagr = sampling.random_lagrangian(h0, rng)
    calls = []
    original = linalg.gram_mgs

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Rebind every module-level name bound to gram_mgs, as the bench tracer does.
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "hermsymp" or name.startswith("hermsymp.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    bordism.reduce(rel1, lagr)
    assert len(calls) == 1
    calls.clear()
    bordism.compose(rel1, rel2)
    assert len(calls) == 1


@pytest.mark.parametrize("meet", [0, 1])
def test_reduce_through_product_relation_gives_its_target_lagrangian(rng, meet):
    # The graph L0 (+) L1 has pure-source and pure-target columns; reduction
    # keeps L1 whether W is transverse to L0 or meets it in a line.
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(2, rng)
    l0, w = sampling.random_lagrangian_pair(h0, rng, meet)
    l1 = sampling.random_lagrangian(h1, rng)
    rel = bordism.relation_from_graph(h0, h1, linalg.block_diag(l0.basis, l1.basis))
    assert hs.intersection_dim(l0, w) == meet
    assert hs.subspace_distance(bordism.reduce(rel, w), l1) < 1e-12


def _unflipped_graph(h0, h1, rel, rng):
    l0, l1 = sampling.random_lagrangian(h0, rng), sampling.random_lagrangian(h1, rng)
    graph = hs.lagrangian_from_basis(hs.direct_sum(h0, h1), linalg.block_diag(l0.basis, l1.basis))
    return bordism.BordismRelation(source=h0, target=h1, graph=graph)


def _swapped(h0, h1, rel, rng):
    return bordism.BordismRelation(source=h1, target=h0, graph=rel.graph)


def _other_tolerances(h0, h1, rel, rng):
    prod = dataclasses.replace(rel.graph.space, tol=hs.Tolerances(rank=1e-12))
    graph = hs.lagrangian_from_basis(prod, rel.graph.basis)
    return bordism.BordismRelation(source=h0, target=h1, graph=graph)


def _mixed_factor_tolerances(h0, h1, rel, rng):
    other = dataclasses.replace(h1, tol=hs.Tolerances(rank=1e-12))
    return bordism.relation_from_graph(h0, other, rel.graph.basis)


@pytest.mark.parametrize(
    "build", [_unflipped_graph, _swapped, _other_tolerances, _mixed_factor_tolerances]
)
def test_relation_rejects_graph_outside_flipped_product(rng, build):
    # Every graph here is a Lagrangian of its own space; only the space is wrong.
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(2, rng)
    rel = sampling.random_bordism_relation(h0, h1, rng)
    with pytest.raises(hs.ValidationError):
        build(h0, h1, rel, rng)


def test_each_relation_builds_its_product_space_once(rng, monkeypatch):
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(1, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    doc = ser.relation_to_dict(rel1)
    calls = []
    original = hs.HermitianSymplecticSpace.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(hs.HermitianSymplecticSpace, "__init__", counting)
    cases = [
        (lambda: bordism.compose(rel1, rel2), 1),
        (lambda: bordism.relation_from_graph(h0, h1, rel1.graph.basis), 1),
        (lambda: sampling.random_bordism_relation(h0, h1, rng), 1),
        # the document's two factors and the graph's product
        (lambda: ser.relation_from_dict(doc), 3),
    ]
    for build, expected in cases:
        calls.clear()
        build()
        assert len(calls) == expected
