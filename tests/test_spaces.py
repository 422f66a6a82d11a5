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
    the coordinate vectors kept 25 columns under the rank rule of ``gram_mgs``
    when the pinned bases were orthonormalized in the n-dimensional whitened
    space; and the bases ``T^-1 e_1..e_24`` and ``T^-1 e_25..e_48`` of two
    Lagrangians, ``T`` the map that pulls the standard model back to it."""
    space = sampling.random_space(24, np.random.default_rng(8), spread=1e7)
    pullback = np.linalg.inv(sampling.random_invertible(48, np.random.default_rng(8), 1e7))
    return space, pullback[:, :24], pullback[:, 24:]


def unpinnable_space():
    """A space that validates under ``tol.rank = 1e-2``, with cond(U) about 2e6,
    whose pinned bases keep one column each: ``U = I + 1e3 (e_1 e_2^H + e_1 e_4^H)``
    pulls the standard model back, and each coefficient vector ``E^H U e_j`` of
    either eigenspace lies within 1e-3 of one line.  Returned with ``U^-1``,
    which maps the standard model onto it."""
    upper = np.eye(4)
    upper[0, 1] = upper[0, 3] = 1e3
    gamma = np.linalg.solve(upper, hs.standard_space(2).gamma @ upper)
    space = hs.HermitianSymplecticSpace(upper.T @ upper, gamma, hs.Tolerances(rank=1e-2))
    return space, np.linalg.inv(upper)


def test_eigensplit_raises_unless_each_pinned_basis_has_k_columns():
    # The pinned construction orthonormalizes coefficient vectors in C^k, so it
    # keeps at most k columns; it keeps fewer on a space past cond(U) = 1/tol.rank.
    space, inverse = unpinnable_space()
    assert hs.validate_space(space).passed
    _split(space)  # the eigenvalue count of i gamma_w is 2/2
    with pytest.raises(EigensplitError, match=r"\(1, 1\) columns, expected \(2, 2\)"):
        hs.eigensplit(space)
    # the functions built on the pinned bases fail with the same typed error
    lagr = hs.lagrangian_from_basis(space, inverse[:, :2])
    with pytest.raises(EigensplitError):
        hs.phi_of(lagr)
    with pytest.raises(EigensplitError):
        hs.lagrangian_from_graph(space, np.eye(2))
    # where orthonormalizing the projections themselves kept 25 columns, each
    # basis keeps 24, and the 48 are Gram-orthonormal
    space = ill_conditioned_split_space()[0]
    split = hs.eigensplit(space)
    frame = space._upper @ np.hstack([split.plus_basis, split.minus_basis])
    assert frame.shape == (48, 48)
    assert np.abs(frame.conj().T @ frame - np.eye(48)).max() < 1e-9


def test_pair_invariants_take_graph_maps_in_the_split_eigenvectors():
    # No pair invariant reads the pinned bases: where they cannot be formed,
    # m, the triple index and the correction are those of the standard model,
    # and m is m_stack's.
    space, inverse = unpinnable_space()
    e, f = np.eye(4)[:, :2], np.eye(4)[:, 2:]
    bases = (e, f, e + f / 2.0, e - 2.0 * f)
    pulled = [hs.lagrangian_from_basis(space, inverse @ b) for b in bases]
    model = [hs.lagrangian_from_basis(hs.standard_space(2), b) for b in bases]
    stacked = hs.m_stack(
        *(a[None] for a in (space.gram, space.gamma, pulled[0].basis, pulled[2].basis)),
        tol=space.tol,
    )
    assert abs(hs.m_details(pulled[0], pulled[2]).value - stacked[0]) < 1e-12
    assert abs(stacked[0] - hs.m_details(model[0], model[2]).value) < 1e-9
    assert hs.triple_index(*pulled[:3]) == hs.triple_index(*model[:3]) == -2
    value, integer = hs.eta_correction_rhs(*pulled)
    expected = hs.eta_correction_rhs(*model)
    assert integer == expected[1] and abs(value - expected[0]) < 1e-9
    # On the larger space the same holds against m_stack and the model.
    space, v_basis, w_basis = ill_conditioned_split_space()
    bases = (v_basis, w_basis, v_basis + w_basis / 2.0, v_basis - 2.0 * w_basis)
    v, w, x, y = (hs.lagrangian_from_basis(space, b) for b in bases)
    stacked = hs.m_stack(*(a[None] for a in (space.gram, space.gamma, v.basis, w.basis)))
    assert abs(hs.m_details(v, w).value - stacked[0]) < 1e-12
    # T pulls the standard model back to the space, so the spans of the same
    # combinations of e_1..e_48 there give the same integers
    e, f = np.eye(48)[:, :24], np.eye(48)[:, 24:]
    model = [hs.lagrangian_from_basis(hs.standard_space(24), b)
             for b in (e, f, e + f / 2.0, e - 2.0 * f)]
    assert hs.triple_index(v, w, x) == hs.triple_index(*model[:3]) == -24
    # At cond(U) = 6.4e6 the pair values are good to about 1e-5, short of the
    # default integrality guard of 1e-6; the correction is read under 1e-4.
    loose = hs.HermitianSymplecticSpace(space.gram, space.gamma, hs.Tolerances(int=1e-4))
    value, integer = hs.eta_correction_rhs(
        *(hs.lagrangian_from_basis(loose, b) for b in bases)
    )
    expected = hs.eta_correction_rhs(*model)
    assert integer == expected[1] and abs(value - expected[0]) < 1e-4


def test_random_lagrangians_on_the_ill_conditioned_space_round_trip_through_phi():
    space = ill_conditioned_split_space()[0]
    rng = np.random.default_rng(9)
    v, w = sampling.random_lagrangian_pair(space, rng, 3)
    assert hs.intersection_dim(v, w) == 3
    unitary = sampling.random_unitary(24, rng)
    lagr = hs.lagrangian_from_graph(space, unitary)
    assert np.abs(hs.phi_of(lagr) - unitary).max() < 1e-8
    assert hs.subspace_distance(hs.lagrangian_from_graph(space, hs.phi_of(v)), v) < 1e-8


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


@pytest.mark.parametrize("half_dim", [0, 1, 3])
def test_phi_of_recomputes_equal_read_only_maps(rng, half_dim):
    lagr = sampling.random_lagrangian(sampling.random_space(half_dim, rng), rng)
    first, second = hs.phi_of(lagr), hs.phi_of(lagr)
    assert first is not second
    assert first.shape == (half_dim, half_dim)
    assert np.array_equal(first, second)
    for phi in (first, second):
        assert not phi.flags.writeable
        with pytest.raises(ValueError):
            phi[...] = 0.0
    assert vars(lagr).keys() == {"space", "basis"}


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
    complement = np.linalg.solve(space._upper, gram_mgs(space._upper, null, 1e-8))
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
        # the coefficient vectors E^H U e_j of each eigenspace's eigenvectors E,
        # orthonormalized in C^k and mapped back by U^-1 E
        left, right = np.linalg.solve(upper, evecs), evecs.conj().T @ upper
        for basis, half in ((split.plus_basis, slice(k)), (split.minus_basis, slice(k, None))):
            raw = left[:, half] @ gram_mgs(np.eye(k), right[half], 1e-8)
            assert np.array_equal(basis, phase_fixed_loop(raw))
            # the basis that orthonormalizing the projections U^-1 E E^H U e_j
            # gives, up to roundoff of order eps cond(U)^2
            projected = np.linalg.solve(upper, gram_mgs(upper, left[:, half] @ right[half], 1e-8))
            assert np.abs(basis - phase_fixed_loop(projected)).max() < 1e-10


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
