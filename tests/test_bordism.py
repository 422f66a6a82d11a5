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


def test_relation_from_map_rejects_the_wrong_shape(rng):
    source, target = sampling.random_space(1, rng), sampling.random_space(2, rng)
    for shape in [(2, 2), (4, 4), (2, 4)]:
        with pytest.raises(hs.ValidationError, match="matrix must have shape"):
            bordism.relation_from_map(source, target, np.ones(shape))


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


def test_the_zero_spaces_identity_relation_reduces_and_composes_to_empty_results():
    # every block is 0 x 0, so the null spaces of reduce and compose are empty
    ident = bordism.identity_relation(hs.zero_space())
    empty = hs.lagrangian_from_basis(hs.zero_space(), np.zeros((0, 0)))
    reduced = bordism.reduce(ident, empty)
    assert reduced.space is ident.target and reduced.basis.shape == (0, 0)
    composed = bordism.compose(ident, ident)
    assert composed.graph.basis.shape == (0, 0)
    assert (composed.source.dim, composed.target.dim) == (0, 0)


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


def test_relation_distance_needs_parallel_relations(rng):
    h0, h1 = sampling.random_space(2, rng), sampling.random_space(2, rng)
    rel = sampling.random_bordism_relation(h0, h1, rng)
    for other in (
        sampling.random_bordism_relation(h1, h0, rng),
        sampling.random_bordism_relation(h0, sampling.random_space(2, rng), rng),
    ):
        with pytest.raises(hs.ValidationError, match="do not share source and target"):
            bordism.relation_distance(rel, other)


def _counted(monkeypatch, kernel):
    """The calls of ``kernel``, recorded by rebinding every module-level name
    of the package bound to it, as the bench tracer does."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "hermsymp" or name.startswith("hermsymp.")):
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_reduce_and_compose_orthonormalize_once(rng, monkeypatch):
    # One span construction per reduce and per compose, by the one rank rule
    # gram_mgs (span_qr is its inner step).
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(2, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    lagr = sampling.random_lagrangian(h0, rng)
    calls = _counted(monkeypatch, linalg.gram_mgs)
    bordism.reduce(rel1, lagr)
    assert len(calls) == 1
    calls.clear()
    bordism.compose(rel1, rel2)
    assert len(calls) == 1


@pytest.mark.parametrize("spread", [4.0, 1e3])
def test_the_rank_rule_runs_only_on_raw_spans(rng, monkeypatch, spread):
    # gamma0(W) and the reduction each pass the rank rule once; their block
    # diagonal, and a Lagrangian relation's graph, stand as built.  The old
    # route, lagrangian_from_basis of the same blocks, is the oracle.
    calls = _counted(monkeypatch, linalg.gram_mgs)
    for k0, k1 in [(1, 1), (2, 3), (4, 2), (0, 2), (3, 1)]:
        h0 = sampling.random_space(k0, rng, spread=spread)
        h1 = sampling.random_space(k1, rng, spread=spread)
        rel = sampling.random_bordism_relation(h0, h1, rng)
        w, v = sampling.random_lagrangian(h0, rng), sampling.random_lagrangian(h1, rng)
        calls.clear()
        glued = bordism.glued_boundary_lagrangian(w, rel)
        assert len(calls) == 2
        calls.clear()
        lrel = bordism.lagrangian_relation(v)
        assert len(calls) == 0
        blocks = linalg.block_diag(hs.gamma_image(w).basis, bordism.reduce(rel, w).basis)
        old = hs.lagrangian_from_basis(hs.direct_sum(h0, h1), blocks)
        assert hs.same_space(glued.space, old.space)
        assert linalg.max_abs(glued.basis - old.basis) <= 1e-12
        old_rel = bordism.relation_from_graph(lrel.source, h1, v.basis)
        assert hs.same_space(lrel.graph.space, old_rel.graph.space)
        assert linalg.max_abs(lrel.graph.basis - old_rel.graph.basis) <= 1e-12
        assert not (glued.basis.flags.writeable or lrel.graph.basis.flags.writeable)


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


def _other_target(h0, h1, rel, rng):
    # a flipped product of the very source object, but of another target
    return bordism.BordismRelation(source=h0, target=sampling.random_space(2, rng), graph=rel.graph)


@pytest.mark.parametrize(
    "build", [_unflipped_graph, _swapped, _other_tolerances, _mixed_factor_tolerances, _other_target]
)
def test_relation_rejects_graph_outside_flipped_product(rng, build):
    # Every graph here is a Lagrangian of its own space; only the space is wrong.
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(2, rng)
    rel = sampling.random_bordism_relation(h0, h1, rng)
    with pytest.raises(hs.ValidationError):
        build(h0, h1, rel, rng)


def test_each_relation_builds_its_product_space_once(rng, monkeypatch):
    # Product spaces come from the one block constructor, without __init__;
    # only the document's two factors are constructed from matrices.
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(1, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    doc = ser.relation_to_dict(rel1)
    products = _counted(monkeypatch, hs.spaces._block_sum)
    inits = []
    original = hs.HermitianSymplecticSpace.__init__

    def counting(self, *args, **kwargs):
        inits.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(hs.HermitianSymplecticSpace, "__init__", counting)
    cases = [
        (lambda: bordism.compose(rel1, rel2), 0, 1),
        (lambda: bordism.relation_from_graph(h0, h1, rel1.graph.basis), 0, 1),
        (lambda: sampling.random_bordism_relation(h0, h1, rng), 0, 1),
        # the document's two factors, then the graph's product
        (lambda: ser.relation_from_dict(doc), 2, 1),
    ]
    for build, expected_inits, expected_products in cases:
        inits.clear()
        products.clear()
        build()
        assert (len(inits), len(products)) == (expected_inits, expected_products)


def test_relations_on_their_own_flipped_product_make_no_block_comparison(rng, monkeypatch):
    # The product records its factor objects, so the relation built on it
    # skips the block_diag of its comparison: the one block_diag left is the
    # product's own.
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(1, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    w = sampling.random_lagrangian(h1, rng)
    diags = _counted(monkeypatch, linalg.block_diag)
    products = _counted(monkeypatch, hs.spaces._block_sum)
    cases = [
        lambda: bordism.relation_from_graph(h0, h1, rel1.graph.basis),
        lambda: bordism.compose(rel1, rel2),
        lambda: bordism.identity_relation(h0),
        lambda: bordism.lagrangian_relation(w),
    ]
    for build in cases:
        diags.clear()
        products.clear()
        build()
        assert (len(diags), len(products)) == (1, 1)


def test_a_flipped_product_of_equal_valued_distinct_factors_is_compared_and_passes(rng, monkeypatch):
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(1, rng)
    rel = sampling.random_bordism_relation(h0, h1, rng)
    twin0, twin1 = (hs.HermitianSymplecticSpace(h.gram, h.gamma) for h in (h0, h1))
    diags = _counted(monkeypatch, linalg.block_diag)
    got = bordism.BordismRelation(source=twin0, target=twin1, graph=rel.graph)
    assert len(diags) == 1  # the comparison's
    assert got.graph is rel.graph and rel.graph.space._factors == (h0, h1, -1)
    # a product of the twins themselves records them, and holds rel's graph too
    graph = hs.Lagrangian(bordism._flipped_product(twin0, twin1), rel.graph.basis)
    diags.clear()
    bordism.BordismRelation(source=h0, target=h1, graph=graph)
    assert len(diags) == 1


def test_a_copied_product_is_compared_again(rng, monkeypatch):
    # dataclasses.replace builds a new space from matrices, with no factors
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(1, rng)
    rel = sampling.random_bordism_relation(h0, h1, rng)
    copy = dataclasses.replace(rel.graph.space)
    assert copy._factors is None
    diags = _counted(monkeypatch, linalg.block_diag)
    bordism.BordismRelation(source=h0, target=h1, graph=hs.Lagrangian(copy, rel.graph.basis))
    assert len(diags) == 1


def test_kept_whitened_blocks_are_the_products_bit_for_bit(rng):
    h0 = sampling.random_space(2, rng, spread=1e3)
    h1 = sampling.random_space(3, rng, spread=1e3)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    for rel in (rel1, rel2, bordism.compose(rel1, rel2), bordism.identity_relation(h1),
                bordism.lagrangian_relation(sampling.random_lagrangian(h1, rng))):
        d0, basis = rel.source.dim, rel.graph.basis
        source_w, target_w = rel._source_w, rel._target_w
        assert source_w.tobytes() == (rel.source._upper @ basis[:d0]).tobytes()
        assert target_w.tobytes() == (rel.target._upper @ basis[d0:]).tobytes()
        assert rel._source_w is source_w and rel._target_w is target_w


def test_reduce_and_compose_whiten_a_relations_blocks_once(rng, monkeypatch):
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(1, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    w = sampling.random_lagrangian(h0, rng)
    whiten = _counted(monkeypatch, linalg.whiten)
    first = bordism.reduce(rel1, w)
    # W's basis and the graph's source block
    assert len(whiten) == 2
    whiten.clear()
    again = bordism.reduce(rel1, w)
    assert len(whiten) == 1 and again.basis.tobytes() == first.basis.tobytes()
    composite = bordism.compose(rel1, rel2)
    whiten.clear()
    assert bordism.compose(rel1, rel2).graph.basis.tobytes() == composite.graph.basis.tobytes()
    assert len(whiten) == 0
    # a middle space equal in value but another object: rel2's kept block is
    # whitened in its own factor, so the middle block is whitened afresh
    twin = bordism.relation_from_graph(
        hs.HermitianSymplecticSpace(h1.gram, h1.gamma), h0, rel2.graph.basis
    )
    whiten.clear()
    bordism.compose(rel1, twin)
    assert len(whiten) == 1


def test_prebuilt_factors_leave_compose_and_gluing_without_factorizations(rng, monkeypatch):
    # Product spaces take U and U^-1 from their factors' blocks.
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(1, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    w = sampling.random_lagrangian(h0, rng)
    cholesky, inv = _counted(monkeypatch, linalg.cholesky), _counted(monkeypatch, linalg.inv)
    bordism.compose(rel1, rel2)
    bordism.glued_boundary_lagrangian(w, rel1)
    assert (len(cholesky), len(inv)) == (0, 0)
    # the control: a space built from matrices factorizes
    hs.HermitianSymplecticSpace(h0.gram, h0.gamma)._upper_inv
    assert (len(cholesky), len(inv)) == (1, 1)


def test_prebuilt_factors_leave_compose_and_gluing_without_a_solve(rng, monkeypatch):
    # Product spaces also take gamma_w = U gamma U^-1 from their factors'
    # blocks, which their Lagrangians' omega check reads.
    h0 = sampling.random_space(2, rng)
    h1 = sampling.random_space(1, rng)
    rel1 = sampling.random_bordism_relation(h0, h1, rng)
    rel2 = sampling.random_bordism_relation(h1, h0, rng)
    w = sampling.random_lagrangian(h0, rng)
    solve = _counted(monkeypatch, linalg.solve)
    bordism.compose(rel1, rel2)
    bordism.glued_boundary_lagrangian(w, rel1)
    assert len(solve) == 0
    # the control: a space built from matrices solves for its gamma_w
    hs.HermitianSymplecticSpace(h0.gram, h0.gamma)._gamma_w
    assert len(solve) == 1


def _oracle_reduce(rel, w):
    """Reduction through the null space of ``[q_w | -b]``: the intersection of
    the whitened span of W with that of the graph's source parts."""
    d0, upper, graph = rel.source.dim, rel.source._upper, rel.graph.basis
    _, c = linalg.span_intersection(upper @ w.basis, upper @ graph[:d0], rel.target.tol.rank)
    return hs.lagrangian_from_basis(rel.target, graph[d0:] @ c)


def _reduction_cases(rng, make_space, count):
    """``(rel, w)`` over k0, k1 in 1..5, cycling through three kinds: a random
    relation and Lagrangian, a split relation ``L0 (+) L1`` with W = L0, and a
    split relation with W meeting L0 in a random dimension."""
    for i in range(count):
        k0, k1 = (int(k) for k in rng.integers(1, 6, 2))
        h0, h1 = make_space(k0), make_space(k1)
        if i % 3 == 0:
            yield sampling.random_bordism_relation(h0, h1, rng), sampling.random_lagrangian(h0, rng)
            continue
        meet = k0 if i % 3 == 1 else int(rng.integers(0, k0 + 1))
        l0, w = sampling.random_lagrangian_pair(h0, rng, meet)
        l1 = sampling.random_lagrangian(h1, rng)
        rel = bordism.relation_from_graph(h0, h1, linalg.block_diag(l0.basis, l1.basis))
        yield rel, (l0 if i % 3 == 1 else w)


@pytest.mark.parametrize("spread, bound", [(4.0, 1e-13), (1e3, 1e-10)])
def test_reduce_spans_the_span_intersection_oracle(rng, spread, bound):
    cases = _reduction_cases(rng, lambda k: sampling.random_space(k, rng, spread=spread), 90)
    for rel, w in cases:
        assert hs.subspace_distance(bordism.reduce(rel, w), _oracle_reduce(rel, w)) <= bound


def _near_meeting_cases(rng):
    """``(sine, rel, w)``: split relations ``L0 (+) L1`` whose W meets L0 up
    to one principal angle, its sine swept across the rank threshold from
    tol.rank/100 to 100 tol.rank."""
    for k0, k1 in [(1, 1), (2, 1), (2, 3), (4, 2)]:
        h0, h1 = sampling.random_space(k0, rng), sampling.random_space(k1, rng)
        for sine in h0.tol.rank * np.logspace(-2, 2, 16):
            # graph unitaries whose ratio turns by 2 arcsin(sine) on one eigenvector
            u_l0, frame = sampling.random_unitary(k0, rng), sampling.random_unitary(k0, rng)
            angles = np.concatenate([[2.0 * np.arcsin(sine)], rng.uniform(0.4, 1.4, k0 - 1)])
            u_w = u_l0 @ frame @ np.diag(np.exp(1j * angles)) @ frame.conj().T
            l0, w = hs.lagrangian_from_graph(h0, u_l0), hs.lagrangian_from_graph(h0, u_w)
            l1 = sampling.random_lagrangian(h1, rng)
            graph = linalg.block_diag(l0.basis, l1.basis)
            yield sine, bordism.relation_from_graph(h0, h1, graph), w


def _null_dims(rel, w):
    """The null-space dimensions of the residual r and of the oracle's
    ``[q_w | -b]``, and the singular values of the latter."""
    tol, d0, upper = rel.source.tol.rank, rel.source.dim, rel.source._upper
    q_w, b = upper @ w.basis, upper @ rel.graph.basis[:d0]
    stacked = np.hstack([q_w, -b])
    sigma = linalg.singular_values(stacked)
    residual = b - q_w @ (q_w.conj().T @ b)
    oracle = stacked.shape[1] - int((sigma > tol).sum())
    return linalg.nullspace(residual, tol).shape[1], oracle, sigma


def test_reduce_null_space_has_the_oracles_dimension_outside_the_sqrt2_band(rng):
    # The near-null singular values of the residual r and of [q_w | -b] agree
    # within sqrt(2), so the two null spaces differ in dimension only when a
    # singular value of [q_w | -b] lies in (tol.rank/sqrt(2), tol.rank].
    tol = hs.Tolerances().rank
    for rel, w in _reduction_cases(rng, lambda k: sampling.random_space(k, rng), 60):
        dim, oracle, sigma = _null_dims(rel, w)
        assert not ((sigma > tol / np.sqrt(2.0)) & (sigma <= tol)).any()
        assert dim == oracle
    verdicts = set()
    for sine, rel, w in _near_meeting_cases(rng):
        dim, oracle, sigma = _null_dims(rel, w)
        in_band = ((sigma > tol / np.sqrt(2.0)) & (sigma <= tol)).any()
        # the principal angle's direction has r at its sine, and [q_w | -b]
        # at its sine over sqrt(2): the band is sine in (tol, sqrt(2) tol]
        assert in_band == (tol < sine <= np.sqrt(2.0) * tol)
        if not in_band:
            assert dim == oracle
            verdicts.add(dim - rel.target.half_dim)
        else:
            assert (dim, oracle) == (rel.target.half_dim, rel.target.half_dim + 1)
    assert verdicts == {0, 1}


def _pullback(k, rng, spread):
    """``sampling.random_space`` together with its map T to the standard model."""
    tmat = sampling.random_invertible(2 * k, rng, spread)
    gram = tmat.conj().T @ tmat
    gamma = np.linalg.solve(tmat, hs.standard_space(k).gamma @ tmat)
    return hs.HermitianSymplecticSpace((gram + gram.conj().T) / 2.0, gamma), tmat


@pytest.mark.parametrize("spread", [1e4, 3e4, 1e5])
def test_reduce_on_ill_conditioned_spaces_matches_the_standard_model(spread):
    # T maps each space to the standard model, where U = I: there T graph and
    # T w are orthonormal, and the oracle reduces them at no condition cost.
    rng = np.random.default_rng(int(spread))
    frames = {}

    def make_space(k):
        space, tmat = _pullback(k, rng, spread)
        frames[space] = tmat
        return space

    loose = hs.Tolerances(alg=1e-6)  # T graph is Lagrangian to eps cond(T)
    eps, rejected, worst = np.finfo(float).eps, [], 0.0
    for rel, w in _reduction_cases(rng, make_space, 120):
        t0, t1 = frames[rel.source], frames[rel.target]
        h0, h1 = (dataclasses.replace(hs.standard_space(x.half_dim), tol=loose)
                  for x in (rel.source, rel.target))
        std = bordism.relation_from_graph(h0, h1, linalg.block_diag(t0, t1) @ rel.graph.basis)
        reference = _oracle_reduce(std, hs.lagrangian_from_basis(h0, t0 @ w.basis))
        try:
            _oracle_reduce(rel, w)
        except hs.HermsympError:
            continue
        try:
            out = bordism.reduce(rel, w)
        except hs.HermsympError as exc:
            rejected.append(exc)
            continue
        error = hs.subspace_distance(hs.lagrangian_from_basis(h1, t1 @ out.basis), reference)
        worst = max(worst, error / (eps * rel.source._cond * rel.target._cond))
    assert rejected == []
    assert worst <= 4.0
