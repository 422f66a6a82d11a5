"""Spaces, eigensplittings, Lagrangians, and the graph unitary."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermsymp as hs
from hermsymp import linalg, sampling
from hermsymp.errors import (
    EigensplitError,
    LagrangianValidationError,
    RankAmbiguity,
    SpaceValidationError,
    ValidationError,
)
from hermsymp.linalg import gram_mgs
from hermsymp.spaces import _phase_fixed, _split
from hermsymp.torus import TorusModel


def test_standard_model_validates():
    report = hs.validate_space(hs.standard_space(1))
    assert report.passed
    assert report.signature == 0


def test_unbalanced_gamma_fails_signature():
    # gamma = diag(i, i) squares to -I and is unitary, but i*gamma has
    # signature -2: only the signature check may fail.
    space = hs.HermitianSymplecticSpace(np.eye(2), np.diag([1j, 1j]))
    report = hs.validate_space(space)
    assert not report.passed
    assert report.signature == -2
    by_name = {c.name: c for c in report.checks}
    assert by_name["gamma_squares_to_minus_identity"].passed
    assert by_name["gamma_gram_unitary"].passed
    assert not by_name["igamma_signature_zero"].passed


def test_torus_model_validates():
    report = hs.validate_space(TorusModel(1.0).space)
    assert report.passed


def test_structural_rejections():
    with pytest.raises(SpaceValidationError):
        hs.HermitianSymplecticSpace(np.eye(3), np.zeros((3, 3)))  # odd dim
    with pytest.raises(SpaceValidationError):
        hs.HermitianSymplecticSpace(np.ones((2, 3)), np.ones((2, 3)))  # non-square
    with pytest.raises(SpaceValidationError):
        hs.HermitianSymplecticSpace(-np.eye(2), np.eye(2))  # not positive definite
    with pytest.raises(SpaceValidationError):
        hs.HermitianSymplecticSpace(np.array([[1, 1], [0, 1]]), np.eye(2))  # not Hermitian


def test_hermitian_check_is_relative_to_the_gram_scale():
    gamma = hs.standard_space(1).gamma
    assert hs.validate_space(hs.HermitianSymplecticSpace(1e-14 * np.eye(2), gamma)).passed
    skewed = 1e-14 * np.array([[1.0, 0.9], [0.0, 1.0]])  # 90% asymmetric
    with pytest.raises(SpaceValidationError, match="Hermitian"):
        hs.HermitianSymplecticSpace(skewed, gamma)


def test_zero_dimensional_space():
    space = hs.zero_space()
    assert hs.validate_space(space).passed
    empty = hs.lagrangian_from_basis(space, np.zeros((0, 0)))
    assert hs.m_invariant(empty, empty) == 0.0
    assert hs.triple_index(empty, empty, empty) == 0
    assert hs.intersection_dim(empty, empty) == 0


def test_eigensplit_standard_model():
    split = hs.eigensplit(hs.standard_space(1))
    expected_plus = np.array([1.0, -1.0j]) / math.sqrt(2)
    expected_minus = np.array([1.0, 1.0j]) / math.sqrt(2)
    assert np.allclose(split.plus_basis[:, 0], expected_plus, atol=1e-14)
    assert np.allclose(split.minus_basis[:, 0], expected_minus, atol=1e-14)


@pytest.mark.parametrize("half_dim", [1, 2, 3])
def test_eigensplit_invariants_random(rng, half_dim):
    space = sampling.random_space(half_dim, rng)
    split = hs.eigensplit(space)
    g, gm = space.gram, space.gamma
    for basis, eig in ((split.plus_basis, 1j), (split.minus_basis, -1j)):
        assert basis.shape == (space.dim, half_dim)
        assert np.max(np.abs(gm @ basis - eig * basis)) < 1e-10
        assert np.max(np.abs(basis.conj().T @ g @ basis - np.eye(half_dim))) < 1e-12
    cross = split.plus_basis.conj().T @ g @ split.minus_basis
    assert np.max(np.abs(cross)) < 1e-12


def test_eigensplit_deterministic(rng):
    space = sampling.random_space(2, rng)
    s1 = hs.eigensplit(space)
    s2 = hs.eigensplit(space)
    assert np.array_equal(s1.plus_basis, s2.plus_basis)
    assert np.array_equal(s1.minus_basis, s2.minus_basis)


def test_eigensplit_rejects_unbalanced():
    space = hs.HermitianSymplecticSpace(np.eye(2), np.diag([1j, 1j]))
    with pytest.raises(EigensplitError):
        hs.eigensplit(space)


def ill_conditioned_split_space():
    """A space that validates, with cond(U) about 6.4e6, whose +i projection of
    the coordinate vectors keeps 25 columns under the rank rule of ``gram_mgs``;
    and the bases ``T^-1 e_1..e_24`` and ``T^-1 e_25..e_48`` of two Lagrangians,
    ``T`` the map that pulls the standard model back to it."""
    space = sampling.random_space(24, np.random.default_rng(8), spread=1e7)
    pullback = np.linalg.inv(sampling.random_invertible(48, np.random.default_rng(8), 1e7))
    return space, pullback[:, :24], pullback[:, 24:]


def test_eigensplit_raises_unless_each_pinned_basis_has_k_columns():
    space, v_basis, _ = ill_conditioned_split_space()
    assert hs.validate_space(space).passed
    _split(space)  # the eigenvalue count of i gamma_w is 24/24
    with pytest.raises(EigensplitError, match=r"\(25, 24\) columns, expected \(24, 24\)"):
        hs.eigensplit(space)
    # the functions built on the pinned bases fail with the same typed error
    lagr = hs.lagrangian_from_basis(space, v_basis)
    with pytest.raises(EigensplitError):
        hs.phi_of(lagr)
    with pytest.raises(EigensplitError):
        hs.lagrangian_from_graph(space, np.eye(24))


def test_lagrangian_line_in_standard_model():
    space = hs.standard_space(1)
    lagr = hs.lagrangian_from_basis(space, [[1.0], [0.0]])
    assert np.allclose(lagr.basis[:, 0], [1.0, 0.0])


def test_gamma_invariant_plane_rejected():
    # span{e1, gamma e1} carries omega(e1, gamma e1) = -<e1, e1> != 0.
    space = hs.standard_space(2)
    e1 = np.zeros(4)
    e1[0] = 1.0
    basis = np.column_stack([e1, space.gamma @ e1])
    with pytest.raises(LagrangianValidationError):
        hs.lagrangian_from_basis(space, basis)


def test_rank_deficient_rejected():
    space = hs.standard_space(2)
    basis = np.zeros((4, 2))
    basis[0, 0] = 1.0
    basis[0, 1] = 2.0
    with pytest.raises(LagrangianValidationError):
        hs.lagrangian_from_basis(space, basis)


def test_wrong_shape_rejected():
    space = hs.standard_space(2)
    with pytest.raises(LagrangianValidationError):
        hs.lagrangian_from_basis(space, np.zeros((4, 3)))


def test_spanning_matrix_with_repeated_column_gives_same_lagrangian(rng):
    space = sampling.random_space(2, rng)
    lagr = sampling.random_lagrangian(space, rng)
    again = hs.lagrangian_from_basis(space, np.column_stack([lagr.basis, lagr.basis[:, 1]]))
    assert again.basis.shape == (space.dim, space.half_dim)
    assert hs.subspace_distance(again, lagr) < 1e-12


def test_spanning_matrix_of_excess_rank_rejected(rng):
    # gamma(L) is the orthogonal complement of L, so the extra column adds rank.
    space = sampling.random_space(2, rng)
    lagr = sampling.random_lagrangian(space, rng)
    basis = np.column_stack([lagr.basis, space.gamma @ lagr.basis[:, 0]])
    with pytest.raises(LagrangianValidationError):
        hs.lagrangian_from_basis(space, basis)


def test_basis_with_extra_row_rejected(rng):
    space = sampling.random_space(2, rng)
    lagr = sampling.random_lagrangian(space, rng)
    basis = np.vstack([lagr.basis, np.zeros((1, space.half_dim))])
    with pytest.raises(LagrangianValidationError):
        hs.lagrangian_from_basis(space, basis)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["gram", "gamma"])
def test_non_finite_space_rejected(field, bad):
    space = hs.standard_space(1)
    mats = {"gram": np.array(space.gram), "gamma": np.array(space.gamma)}
    mats[field][0, 0] = bad
    with pytest.raises(SpaceValidationError):
        hs.HermitianSymplecticSpace(mats["gram"], mats["gamma"])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_basis_rejected(bad):
    with pytest.raises(LagrangianValidationError):
        hs.lagrangian_from_basis(hs.standard_space(1), [[bad], [0.0]])


def test_phi_of_standard_line():
    # (1, 0) = (1, -i)/2 + (1, i)/2, so the graph map is the identity phase.
    space = hs.standard_space(1)
    lagr = hs.lagrangian_from_basis(space, [[1.0], [0.0]])
    phi = hs.phi_of(lagr)
    assert abs(phi[0, 0] - 1.0) < 1e-12


@pytest.mark.parametrize("half_dim", [1, 2, 4])
def test_phi_unitary_and_graph_reconstruction(rng, half_dim):
    space = sampling.random_space(half_dim, rng)
    split = hs.eigensplit(space)
    for _ in range(5):
        lagr = sampling.random_lagrangian(space, rng)
        phi = hs.phi_of(lagr)
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(half_dim))) < 1e-10
        rebuilt = hs.lagrangian_from_basis(
            space, split.plus_basis + split.minus_basis @ phi
        )
        assert hs.subspace_distance(rebuilt, lagr) < 1e-10


def test_phi_graph_roundtrip(rng):
    space = sampling.random_space(3, rng)
    unitary = sampling.random_unitary(3, rng)
    lagr = hs.lagrangian_from_graph(space, unitary)
    assert np.max(np.abs(hs.phi_of(lagr) - unitary)) < 1e-10


def test_plus_projection_is_isometry_up_to_sqrt2(rng):
    # The +i component of a gram-orthonormal Lagrangian basis satisfies
    # A^H A = I/2, so the projection is an isomorphism with margin.
    space = sampling.random_space(3, rng)
    split = hs.eigensplit(space)
    lagr = sampling.random_lagrangian(space, rng)
    a = split.plus_basis.conj().T @ space.gram @ lagr.basis
    assert np.max(np.abs(a.conj().T @ a - np.eye(3) / 2.0)) < 1e-12


def test_phi_of_gamma_image_flips_sign(rng):
    space = sampling.random_space(2, rng)
    lagr = sampling.random_lagrangian(space, rng)
    phi = hs.phi_of(lagr)
    phi_flipped = hs.phi_of(hs.gamma_image(lagr))
    assert np.max(np.abs(phi_flipped + phi)) < 1e-10


def test_gamma_image_standard_line():
    space = hs.standard_space(1)
    lagr = hs.lagrangian_from_basis(space, [[1.0], [0.0]])
    image = hs.gamma_image(lagr)
    assert np.allclose(np.abs(image.basis[:, 0]), [0.0, 1.0], atol=1e-14)


def test_gamma_image_involution_and_complement(rng):
    space = sampling.random_space(2, rng)
    lagr = sampling.random_lagrangian(space, rng)
    image = hs.gamma_image(lagr)
    twice = hs.gamma_image(image)
    assert hs.subspace_distance(twice, lagr) < 1e-12
    # oracle: the gram-orthogonal complement is the null space of L^H gram
    null = linalg.nullspace(lagr.basis.conj().T @ space.gram, 1e-8)
    complement = gram_mgs(space._upper, null, 1e-8)
    assert hs.subspace_distance(image, hs.Lagrangian(space, complement)) < 1e-10


def test_intersection_dim_basics(rng):
    space = sampling.random_space(3, rng)
    lagr = sampling.random_lagrangian(space, rng)
    assert hs.intersection_dim(lagr, lagr) == 3
    assert hs.intersection_dim(lagr, hs.gamma_image(lagr)) == 0


def test_intersection_dim_torus_oracle():
    # Independent oracle: the union span of {1, dx+dy} and {1, dx} is
    # {1, dx, dy}, of rank 3, so the intersection has dimension 4 - 3 = 1.
    model = TorusModel(1.0)
    vx = model.lagrangian(1, 1)
    vy = model.lagrangian(1, 0)
    spans = np.zeros((4, 4), dtype=complex)
    spans[0, 0] = 1.0
    spans[1, 1] = spans[2, 1] = 1.0  # dx + dy
    spans[0, 2] = 1.0
    spans[1, 3] = 1.0  # dx
    oracle_rank = np.linalg.matrix_rank(spans, tol=1e-10)
    assert 4 - oracle_rank == 1
    assert hs.intersection_dim(vx, vy) == 1


def test_rank_ambiguity_follows_space_tolerance():
    # Graph unitaries 1 and e^{2e-8 i} put the smallest singular value of
    # [basis_V | basis_W] at about 7e-9, inside the default guard band
    # (1e-9, 1e-7); a space with rank threshold 1e-12 resolves it as 0.
    for tol, expected in ((hs.Tolerances(), None), (hs.Tolerances(rank=1e-12), 0)):
        space = dataclasses.replace(hs.standard_space(1), tol=tol)
        v = hs.lagrangian_from_graph(space, [[1.0]])
        w = hs.lagrangian_from_graph(space, [[np.exp(2e-8j)]])
        if expected is None:
            with pytest.raises(RankAmbiguity):
                hs.intersection_dim(v, w)
        else:
            assert hs.intersection_dim(v, w) == expected


def test_mixed_tolerances_rejected():
    space = hs.standard_space(1)
    other = dataclasses.replace(space, tol=hs.Tolerances(rank=1e-12))
    assert not hs.same_space(space, other)
    assert hs.negated(other).tol == other.tol
    assert hs.direct_sum(other, other).tol == other.tol
    with pytest.raises(ValidationError):
        hs.direct_sum(space, other)
    line = [[1.0], [0.0]]
    with pytest.raises(ValidationError):
        hs.m_invariant(hs.lagrangian_from_basis(space, line), hs.lagrangian_from_basis(other, line))


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", ["alg", "rank", "eig", "int"])
def test_tolerances_must_be_finite_and_positive(field, value):
    with pytest.raises(ValidationError, match=f"tolerance {field} "):
        hs.Tolerances(**{field: value})


def test_signature_zero_for_sampled_spaces(rng):
    for half_dim in (1, 2, 3, 4):
        for _ in range(5):
            report = hs.validate_space(sampling.random_space(half_dim, rng))
            assert report.passed
            assert report.signature == 0


def test_values_are_immutable(rng):
    space = sampling.random_space(1, rng)
    lagr = sampling.random_lagrangian(space, rng)
    split = hs.eigensplit(space)
    for arr in (space.gram, space.gamma, lagr.basis, split.plus_basis, split.minus_basis):
        assert not arr.flags.writeable


def test_matched_omega_spaces_share_form(rng):
    s1, s2 = sampling.matched_omega_spaces(2, rng)
    assert np.max(np.abs(s1.omega() - s2.omega())) < 1e-12
    assert hs.validate_space(s1).passed
    assert hs.validate_space(s2).passed
    assert not np.allclose(s1.gram, s2.gram)


def phase_fixed_loop(basis):
    """The per-column loop that the vectorized _phase_fixed replaced."""
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        big = float(mags.max())
        idx = int(np.argmax(mags > 1e-8 * big))
        pivot = col[idx]
        out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


# Eigenbases have 2k >= 2 rows; on a 1 x 1 input the two can differ in the
# last bit of the product.
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    rows=st.integers(2, 32),
    cols=st.integers(1, 16),
    tiny_rows=st.integers(0, 31),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_fixed_is_bit_identical_to_loop(rows, cols, tiny_rows, seed):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    basis *= np.exp(rng.uniform(-20.0, 20.0, (rows, cols)))
    basis[: min(tiny_rows, rows - 1)] *= 1e-12  # pivot below the leading rows
    assert np.array_equal(_phase_fixed(basis), phase_fixed_loop(basis))


def test_eigensplit_bases_are_phase_fixed_by_the_loop(rng):
    for spread in (4.0, 1e2):
        space = sampling.random_space(3, rng, spread=spread)
        split = hs.eigensplit(space)
        upper, k, evecs = space._upper, space.half_dim, _split(space)
        # the eigenspace projectors U^-1 E E^H U of the shared eigenbasis E
        left, right = np.linalg.solve(upper, evecs), evecs.conj().T @ upper
        for basis, half in ((split.plus_basis, slice(k)), (split.minus_basis, slice(k, None))):
            raw = gram_mgs(upper, left[:, half] @ right[half], 1e-8)
            assert np.array_equal(basis, phase_fixed_loop(raw))


def test_spaces_lagrangians_and_relations_compare_and_hash_by_identity():
    # Generated equality over ndarray fields raised on ==, `in` and hash().
    rng = np.random.default_rng(0)
    s = sampling.random_space(2, rng)
    e = hs.eigensplit(s)
    assert (e == e, e == hs.eigensplit(hs.standard_space(2)), e in {e}) == (True, False, True)
    v, w = sampling.random_lagrangian(s, rng), sampling.random_lagrangian(s, rng)
    rel = sampling.random_bordism_relation(s, sampling.random_space(1, rng), rng)
    assert (v == w, v == v, v != w, v in [w], v in [w, v]) == (False, True, True, False, True)
    assert (s == hs.standard_space(2), s == s) == (False, True)
    assert (rel == rel, rel == sampling.random_bordism_relation(s, rel.target, rng)) == (True, False)
    assert {v, w, v} == {v, w} and len({s, s, rel, rel}) == 2
    assert hash(v) == hash(v) and isinstance(hash(s), int) and isinstance(hash(rel), int)
