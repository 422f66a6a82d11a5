"""Lagrangian propagation across bordisms as linear canonical relations.

A bordism from a boundary piece with space H0 to a piece with space H1 is
modeled by a Lagrangian subspace of the product H0^- (+) H1, where H0^- is H0
with its complex structure reversed.  The sign flip encodes the boundary
orientation convention under which graphs of symplectic-form-preserving maps
are Lagrangian; without it they are not, and the composition and reduction
laws below fail.  :func:`_flipped_product` builds that product and records
its factors on it, so :class:`BordismRelation` accepts a graph on the product
of its own source and target as it stands, and checks any other graph's space
against the flipped blocks.

Relation composition is defined set-theoretically and never requires
transversality; the routines only flag numerical (not geometric) degeneracy.
:func:`reduce` takes the null space of the graph's source parts projected off
W, :func:`compose` intersects spans with :func:`linalg.span_intersection`, and
both orthonormalize the raw result once, in :func:`lagrangian_from_basis`.
A relation whitens its graph's source and target blocks on first use and
keeps them, so a relation reused along chains whitens them once.
Product spaces take their Cholesky factor, its inverse and their whitened
``gamma`` from their factors' blocks, so the direct sums of checked bases in
:func:`glued_boundary_lagrangian` and :func:`lagrangian_relation` stand as built.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ValidationError
from .linalg import adjoint, as_complex_matrix
from .spaces import (
    HermitianSymplecticSpace,
    Lagrangian,
    _block_sum,
    _lapack_on_whitened,
    _lazy,
    direct_sum,
    gamma_image,
    lagrangian_from_basis,
    same_space,
    subspace_distance,
    zero_space,
)


def _flipped_product(source, target) -> HermitianSymplecticSpace:
    """H0^- (+) H1 in the factors' frames, as :func:`direct_sum` builds it: its
    ``U``, ``U^-1`` and ``gamma_w`` are their block diagonals, so building it
    factorizes, inverts and solves nothing.  The factors' tolerances must agree."""
    return _block_sum(source, target, -1)


@dataclass(frozen=True, eq=False)
class BordismRelation:
    """Linear canonical relation from ``source`` to ``target``.

    ``graph`` is a Lagrangian in ``_flipped_product(source, target)``; its space
    must equal the flipped blocks and tolerances exactly, or construction raises.
    A space that ``_flipped_product`` built from these very ``source`` and
    ``target`` objects holds that by construction and is not compared again;
    any other space, equal-valued ones included, is compared block by block.

    The whitened graph blocks ``source._upper @ graph.basis[:d0]`` and
    ``target._upper @ graph.basis[d0:]``, which :func:`reduce` and
    :func:`compose` read, are computed on first use and kept.
    """

    source: HermitianSymplecticSpace
    target: HermitianSymplecticSpace
    graph: Lagrangian

    def __post_init__(self) -> None:
        space, src, tgt = self.graph.space, self.source, self.target
        factors = space._factors
        if factors is not None and factors[0] is src and factors[1] is tgt and factors[2] < 0:
            return
        gram, gamma = linalg.block_diag((src.gram, -src.gamma), (tgt.gram, tgt.gamma))
        blocks = np.array_equal(space.gram, gram) and np.array_equal(space.gamma, gamma)
        if not (space.tol == src.tol == tgt.tol and blocks):
            raise ValidationError("graph must live in the flipped-source product space")

    @_lazy
    def _source_w(self) -> np.ndarray:
        """The graph's source block in the source's whitened frame."""
        return linalg.whiten(self.source._upper, self.graph.basis[: self.source.dim])

    @_lazy
    def _target_w(self) -> np.ndarray:
        """The graph's target block in the target's whitened frame."""
        return linalg.whiten(self.target._upper, self.graph.basis[self.source.dim :])


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
    """Relation out of the zero space: a bare Lagrangian in the target, whose
    basis is the graph's as it stands.  Like :func:`~hermsymp.maslov.m_details`,
    it takes a hand-built ``Lagrangian`` as given and does not re-check it."""
    target = target_lagrangian.space
    src = replace(zero_space(), tol=target.tol)
    graph = Lagrangian(_flipped_product(src, target), target_lagrangian.basis)
    return BordismRelation(source=src, target=target, graph=graph)


def reduce(rel: BordismRelation, w: Lagrangian) -> Lagrangian:
    """Propagate a source Lagrangian across the relation.

    Computes the projection onto the target factor of the intersection of the
    graph with ``W (+) H1`` (symplectic reduction, which takes Lagrangians to
    Lagrangians): the target parts of the graph columns whose source part lies
    in ``W``.  Raises :class:`LagrangianValidationError` when they do not span
    a Lagrangian, which signals a numerically degenerate intersection.

    The coefficients of those columns are the null space of the residual
    ``r = b - q_w q_w^H b`` of the whitened source parts ``b = U graph[:d0]``
    against the whitened orthonormal basis ``q_w = U w.basis``, singular
    values at most ``tol.rank`` taken as zero.  Its near-null singular values
    are those of ``[q_w | -b]`` divided by at most ``sqrt(2)``, and both null
    spaces have the same dimension, so the rank decision differs from the
    intersection of the two spans only for a singular value in
    ``(tol.rank/sqrt(2), tol.rank]``.
    """
    if not same_space(w.space, rel.source):
        raise ValidationError("Lagrangian does not live in the relation's source")
    q_w, b = linalg.whiten(rel.source._upper, w.basis), rel._source_w
    residual = b - q_w @ (adjoint(q_w) @ b)
    c = _lapack_on_whitened((q_w, b), linalg.nullspace, residual, rel.target.tol.rank)
    return lagrangian_from_basis(rel.target, rel.graph.basis[rel.source.dim :] @ c)


def compose(rel1: BordismRelation, rel2: BordismRelation) -> BordismRelation:
    """Set-theoretic composition: pairs (x, z) admitting a matching middle y.

    ``rel1`` maps H0 to H1 and ``rel2`` maps H1 to H2; the result maps H0 to
    H2 and reduces through ``rel2`` after ``rel1`` on every Lagrangian.  The
    outer parts of the matching graph columns go to :func:`relation_from_graph`,
    which raises :class:`LagrangianValidationError` unless they span a Lagrangian.
    """
    if not same_space(rel1.target, rel2.source):
        raise ValidationError("relations are not composable: middle spaces differ")
    d0, d1 = rel1.source.dim, rel1.target.dim
    b1, b2 = rel1.graph.basis, rel2.graph.basis
    # the whitened middle blocks, both in rel1.target's factor: rel2 keeps its
    # block in its own source's, which is that factor when the spaces are one
    m1 = rel1._target_w
    if rel2.source is rel1.target:
        m2 = rel2._source_w
    else:
        m2 = linalg.whiten(rel1.target._upper, b2[:d1])
    rank = rel1.target.tol.rank
    c1, c2 = _lapack_on_whitened((m1, m2), linalg.span_intersection, m1, m2, rank)
    basis = np.concatenate([b1[:d0] @ c1, b2[d1:] @ c2])
    return relation_from_graph(rel1.source, rel2.target, basis)


def glued_boundary_lagrangian(w: Lagrangian, rel: BordismRelation) -> Lagrangian:
    """gamma0(W) (+) reduce(rel, W) as a Lagrangian of the unflipped product.

    This is the boundary condition induced on the whole boundary of the
    bordism by capping the source side with a piece carrying W; the product
    here carries the standard complex structure on both factors.  Its basis
    is the block diagonal of the two checked bases, orthonormal in the block
    diagonal ``U`` of the product, and is not orthonormalized or checked again.
    """
    basis = linalg.block_diag(gamma_image(w).basis, reduce(rel, w).basis)
    basis.setflags(write=False)
    return Lagrangian(direct_sum(rel.source, rel.target), basis)


def relation_distance(a: BordismRelation, b: BordismRelation) -> float:
    """Subspace distance between the graphs of two parallel relations."""
    if not (same_space(a.source, b.source) and same_space(a.target, b.target)):
        raise ValidationError("relations do not share source and target")
    return subspace_distance(a.graph, b.graph)
