"""Lagrangian propagation across bordisms as linear canonical relations.

A bordism from a boundary piece with space H0 to a piece with space H1 is
modeled by a Lagrangian subspace of the product H0^- (+) H1, where H0^- is H0
with its complex structure reversed.  The sign flip encodes the boundary
orientation convention under which graphs of symplectic-form-preserving maps
are Lagrangian; without it they are not, and the composition and reduction
laws below fail.  :func:`_flipped_product` builds that product, and
:class:`BordismRelation` checks a graph's space against its blocks.

Relation composition is defined set-theoretically and never requires
transversality; the routines only flag numerical (not geometric) degeneracy.
Both intersect spans with :func:`linalg.span_intersection` and orthonormalize
the result once, in :func:`lagrangian_from_basis`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import as_complex_matrix
from .spaces import (
    HermitianSymplecticSpace,
    Lagrangian,
    direct_sum,
    gamma_image,
    lagrangian_from_basis,
    same_space,
    subspace_distance,
    zero_space,
)


def _flipped_product(source, target) -> HermitianSymplecticSpace:
    """H0^- (+) H1, built in one construction; the factors' tolerances must agree."""
    if source.tol != target.tol:
        raise ValidationError("operands carry different tolerances")
    return HermitianSymplecticSpace(
        linalg.block_diag(source.gram, target.gram),
        linalg.block_diag(-source.gamma, target.gamma),
        source.tol,
    )


@dataclass(frozen=True)
class BordismRelation:
    """Linear canonical relation from ``source`` to ``target``.

    ``graph`` is a Lagrangian in ``_flipped_product(source, target)``; its space
    must equal the flipped blocks and tolerances exactly, or construction raises.
    """

    source: HermitianSymplecticSpace
    target: HermitianSymplecticSpace
    graph: Lagrangian

    def __post_init__(self) -> None:
        space, src, tgt = self.graph.space, self.source, self.target
        if not (
            space.tol == src.tol == tgt.tol
            and np.array_equal(space.gram, linalg.block_diag(src.gram, tgt.gram))
            and np.array_equal(space.gamma, linalg.block_diag(-src.gamma, tgt.gamma))
        ):
            raise ValidationError("graph must live in the flipped-source product space")


def relation_from_graph(
    source: HermitianSymplecticSpace, target: HermitianSymplecticSpace, basis
) -> BordismRelation:
    """Build and validate a relation from a spanning matrix of its graph.

    ``source`` and ``target`` must carry the same tolerances; the product space
    of the graph, built once by :func:`_flipped_product`, carries them too.
    """
    graph = lagrangian_from_basis(_flipped_product(source, target), basis)
    return BordismRelation(source=source, target=target, graph=graph)


def identity_relation(space: HermitianSymplecticSpace) -> BordismRelation:
    """The cylinder: graph of the identity map, neutral for composition."""
    n = space.dim
    basis = np.vstack([np.eye(n, dtype=np.complex128), np.eye(n, dtype=np.complex128)])
    return relation_from_graph(space, space, basis)


def relation_from_map(
    source: HermitianSymplecticSpace, target: HermitianSymplecticSpace, matrix
) -> BordismRelation:
    """Relation given by the graph of a symplectic-form-preserving map.

    Validation rejects matrices that do not preserve the form, since their
    graphs are not Lagrangian in the flipped product.
    """
    mat = as_complex_matrix(matrix, "matrix")
    if mat.shape != (target.dim, source.dim):
        raise ValidationError(
            f"matrix must have shape ({target.dim}, {source.dim}), got {mat.shape}"
        )
    basis = np.vstack([np.eye(source.dim, dtype=np.complex128), mat])
    return relation_from_graph(source, target, basis)


def lagrangian_relation(target_lagrangian: Lagrangian) -> BordismRelation:
    """Relation out of the zero space: a bare Lagrangian in the target."""
    target = target_lagrangian.space
    src = replace(zero_space(), tol=target.tol)
    return relation_from_graph(src, target, target_lagrangian.basis)


def reduce(rel: BordismRelation, w: Lagrangian) -> Lagrangian:
    """Propagate a source Lagrangian across the relation.

    Computes the projection onto the target factor of the intersection of the
    graph with ``W (+) H1`` (symplectic reduction, which takes Lagrangians to
    Lagrangians): the target parts of the graph columns whose source part lies
    in ``W``.  Raises :class:`LagrangianValidationError` when they do not span
    a Lagrangian, which signals a numerically degenerate intersection.
    """
    if not same_space(w.space, rel.source):
        raise ValidationError("Lagrangian does not live in the relation's source")
    d0, upper = rel.source.dim, rel.source._upper
    graph = rel.graph.basis
    _, c = linalg.span_intersection(upper @ w.basis, upper @ graph[:d0], rel.target.tol.rank)
    return lagrangian_from_basis(rel.target, graph[d0:] @ c)


def compose(rel1: BordismRelation, rel2: BordismRelation) -> BordismRelation:
    """Set-theoretic composition: pairs (x, z) admitting a matching middle y.

    ``rel1`` maps H0 to H1 and ``rel2`` maps H1 to H2; the result maps H0 to
    H2 and reduces through ``rel2`` after ``rel1`` on every Lagrangian.  The
    outer parts of the matching graph columns go to :func:`relation_from_graph`,
    which raises :class:`LagrangianValidationError` unless they span a Lagrangian.
    """
    if not same_space(rel1.target, rel2.source):
        raise ValidationError("relations are not composable: middle spaces differ")
    d0, d1, upper = rel1.source.dim, rel1.target.dim, rel1.target._upper
    b1, b2 = rel1.graph.basis, rel2.graph.basis
    c1, c2 = linalg.span_intersection(upper @ b1[d0:], upper @ b2[:d1], rel1.target.tol.rank)
    basis = np.vstack([b1[:d0] @ c1, b2[d1:] @ c2])
    return relation_from_graph(rel1.source, rel2.target, basis)


def glued_boundary_lagrangian(w: Lagrangian, rel: BordismRelation) -> Lagrangian:
    """gamma0(W) (+) reduce(rel, W) as a Lagrangian of the unflipped product.

    This is the boundary condition induced on the whole boundary of the
    bordism by capping the source side with a piece carrying W; the product
    here carries the standard complex structure on both factors.
    """
    basis = linalg.block_diag(gamma_image(w).basis, reduce(rel, w).basis)
    return lagrangian_from_basis(direct_sum(rel.source, rel.target), basis)


def relation_distance(a: BordismRelation, b: BordismRelation) -> float:
    """Subspace distance between the graphs of two parallel relations."""
    if not (same_space(a.source, b.source) and same_space(a.target, b.target)):
        raise ValidationError("relations do not share source and target")
    return subspace_distance(a.graph, b.graph)
