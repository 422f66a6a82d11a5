"""Spaces, eigensplittings, Lagrangians, and the graph unitary."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermsymp as hs
from hermsymp import linalg, sampling
from hermsymp.bordism import _flipped_product
from hermsymp.errors import (
    EigensplitError,
    EigenvalueAmbiguity,
    LagrangianValidationError,
    SpaceValidationError,
    ValidationError,
)
from hermsymp.linalg import gram_mgs
from hermsymp.spaces import (
    _check_span,
    _graph_map,
    _phase_fixed,
    _principal_sines,
)
from hermsymp.torus import TorusModel


def test_standard_model_validates():
    report = hs.validate_space(hs.standard_space(1))
    assert report.passed
    assert report.signature == 0
    # every residual is a Python float, so the report's repr shows plain numbers
    assert [type(c.residual) for c in report.checks] == [float] * 3
    assert "np.float64" not in repr(report)


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


@pytest.mark.parametrize("half_dim", [1.5, 2.0, "2", True, None, -1])
def test_standard_space_takes_a_non_negative_integer(half_dim):
    with pytest.raises(SpaceValidationError, match="non-negative integer"):
        hs.standard_space(half_dim)


def test_standard_space_accepts_numpy_integers():
    space = hs.standard_space(np.int64(2))
    assert (space.dim, space.half_dim) == (4, 2)
    assert hs.same_space(space, hs.standard_space(2))


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


@pytest.mark.parametrize("k", [1, 2, 4])
def test_split_error_quotes_the_validate_residuals(rng, k):
    # gamma off by 1e-6 fails validate_space and the split; the split's
    # message quotes validate_space's two residuals, by their check names
    space = sampling.random_space(k, rng)
    noise = rng.standard_normal(space.gamma.shape) + 1j * rng.standard_normal(space.gamma.shape)
    space = hs.HermitianSymplecticSpace(space.gram, space.gamma + 1e-6 * noise)
    report = hs.validate_space(space)
    assert not report.passed
    with pytest.raises(EigensplitError, match="eigenspaces not separated within tolerance") as exc:
        hs.eigensplit(space)
    quoted = {name: float(x) for name, x in re.findall(r"(\w+)=(\S+)", str(exc.value))}
    residuals = {c.name: c.residual for c in report.checks[:2]}
    assert quoted.keys() == residuals.keys()
    for name, residual in residuals.items():
        assert quoted[name] == pytest.approx(residual, rel=1e-3)


def test_a_space_that_fails_validation_fails_every_pair_kernel():
    # gamma scaled by 1 + 7e-11 puts both residuals at 1.4e-10, past tol.alg,
    # while i gamma_w still counts 2/2: the pair kernels once returned m here
    standard = hs.standard_space(2)
    space = hs.HermitianSymplecticSpace(standard.gram, standard.gamma * (1 + 7e-11))
    report = hs.validate_space(space)
    assert not report.passed
    assert [type(c.residual) for c in report.checks] == [float] * 3
    ident = np.eye(4)
    v, w = (hs.lagrangian_from_basis(space, ident[:, half]) for half in (slice(2), slice(2, 4)))
    message = "eigenspaces not separated within tolerance"
    for call in (
        lambda: hs.m_details(v, w),
        lambda: hs.intersection_dim(v, w),
        lambda: hs.eigensplit(space),
    ):
        with pytest.raises(EigensplitError, match=message):
            call()
    stack = [x[None] for x in (space.gram, space.gamma, v.basis, w.basis)]
    with pytest.raises(EigensplitError, match=f"^item 0: {message}"):
        hs.m_stack(*stack)


def test_a_space_whose_whitened_gamma_overflows_fails_its_checks_quietly():
    # cond(U) ~ 1e314: U gamma U^-1 overflows, and eigh fails on the
    # non-finite i gamma_w.  Warnings are errors here: no RuntimeWarning, no
    # LinAlgError, but failing figures and the split's typed error
    gram = np.diag([1e308, 1e308, 1e-320, 1e-320]).astype(complex)
    space = hs.HermitianSymplecticSpace(gram, hs.standard_space(2).gamma)
    report = hs.validate_space(space)
    assert [c.passed for c in report.checks] == [False] * 3
    assert report.checks[2].detail == "positive=0 negative=0 null=4"
    message = "eigenspaces not separated within tolerance"
    basis = np.eye(4)[:, :2]
    for call in (
        lambda: hs.eigensplit(space),
        lambda: hs.phi_of(hs.Lagrangian(space, basis)),
        lambda: hs.lagrangian_from_graph(space, np.eye(2)),
    ):
        with pytest.raises(EigensplitError, match=message):
            call()


def test_the_split_holds_exactly_where_validate_space_passes():
    # gamma perturbed additively, entrywise and by scaling, at sizes across
    # tol.alg: the split and validate_space decide alike on every draw
    rng = np.random.default_rng(31)
    passed = set()
    for draw in range(300):
        space = sampling.random_space(int(rng.integers(1, 5)), rng, spread=10 ** rng.uniform(0, 4))
        size = 10 ** rng.uniform(-12, -6)
        noise = rng.standard_normal(space.gamma.shape) + 1j * rng.standard_normal(space.gamma.shape)
        gamma = (space.gamma + size * noise, space.gamma * (1 + size * noise),
                 space.gamma * (1 + size))[draw % 3]
        space = hs.HermitianSymplecticSpace(space.gram, gamma)
        valid = hs.validate_space(space).passed
        passed.add(valid)
        try:
            space._evecs
            split = True
        except EigensplitError:
            split = False
        assert split == valid, draw
    assert passed == {True, False}


def test_eigensplit_raises_unless_each_pinned_basis_has_k_columns():
    # The pinned construction orthonormalizes coefficient vectors in C^k, so it
    # keeps at most k columns; it keeps fewer on a space past cond(U) = 1/tol.rank.
    space, inverse = unpinnable_space()
    assert hs.validate_space(space).passed
    space._evecs  # the eigenvalue count of i gamma_w is 2/2
    with pytest.raises(EigensplitError, match=r"\(1, 1\) columns, expected \(2, 2\)"):
        hs.eigensplit(space)
    # the functions built on the pinned bases fail with the same typed error
    lagr = hs.lagrangian_from_basis(space, inverse[:, :2])
    assert hs.intersection_dim(lagr, lagr) == 2  # the pair kernel splits the space
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


@pytest.mark.parametrize("shape", [(2,), (1, 1, 2, 2)])
def test_a_gram_that_is_neither_a_matrix_nor_a_stack_is_rejected(shape):
    with pytest.raises(ValidationError, match=re.escape(str(shape))):
        hs.HermitianSymplecticSpace(np.ones(shape), np.ones(shape))


def test_graph_unitary_of_the_wrong_shape_rejected():
    for unitary in (np.eye(1), np.eye(3), np.ones((2, 3))):
        with pytest.raises(hs.ValidationError, match="unitary must have shape"):
            hs.lagrangian_from_graph(hs.standard_space(2), unitary)


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


def svd_graph_map(space, frame_h, q_w):
    """``_graph_map`` with the SVD on every call, as it was before its Gram-block
    bound: the same checks, thresholds and messages."""
    k = space.half_dim
    coords = frame_h @ q_w
    a, c = coords[:k], coords[k:]
    s_min = np.linalg.svd(a, compute_uv=False).min(initial=np.inf)
    if s_min <= space.tol.rank:
        raise LagrangianValidationError(
            "projection onto the +i eigenspace is singular; input is not a "
            f"valid Lagrangian (smallest singular value {s_min:.3e})"
        )
    phi = c @ np.linalg.inv(a)
    residual = linalg.max_abs(phi.conj().T @ phi - np.eye(k))
    if space._exceeds_alg(residual):
        raise LagrangianValidationError(f"graph map is not unitary: residual {residual:.3e}")
    return phi


def _outcome(graph_map, space, frame_h, basis):
    """The map's bytes, or the class and message of what it raises."""
    try:
        return graph_map(space, frame_h, space._upper @ basis).tobytes()
    except hs.HermsympError as exc:
        return type(exc), str(exc)


def _frames(space):
    """The adjoints of the frames of the pair invariants (the split's
    eigenvectors) and of :func:`phi_of` (the pinned bases, whitened)."""
    split = hs.eigensplit(space)
    pinned = space._upper @ np.hstack([split.plus_basis, split.minus_basis])
    return space._evecs_h, pinned.conj().T


def plus_block_basis(space, sigma, rng):
    """A raw basis whose whitened columns ``E+ a + E- c`` are orthonormal, the
    +i block ``a`` with singular values ``sigma``: a Lagrangian when each is
    ``1/sqrt(2)``, and otherwise a span omega does not vanish on."""
    k, evecs = space.half_dim, space._evecs
    left, right, other = (sampling.random_unitary(k, rng) for _ in range(3))
    sigma = np.asarray(sigma, dtype=float)
    a = left @ np.diag(sigma) @ right
    c = other @ np.diag(np.sqrt(1.0 - sigma**2)) @ right
    return space._upper_inv @ (evecs[:, :k] @ a + evecs[:, k:] @ c)


def _graph_map_cases(rng):
    """``(space, basis, expected)`` of random and of directly built Lagrangians,
    ``expected`` the bound's verdict: True where it clears the SVD, False
    where the SVD must run."""
    for k in (1, 2, 4, 8, 16):
        for spread in (4.0, 1e3, 1e6):
            space = sampling.random_space(k, rng, spread=spread)
            for _ in range(3):
                yield space, sampling.random_lagrangian(space, rng).basis, True
            basis = sampling.random_lagrangian(space, rng).basis
            yield space, 1e-12 * basis, False
            singular = basis.copy()
            singular[:, 0] = hs.eigensplit(space).minus_basis[:, 0]
            yield space, singular, False
            for factor in (0.5, 2.0):
                sigma = [factor * space.tol.rank] + [0.5**0.5] * (k - 1)
                yield space, plus_block_basis(space, sigma, rng), False


def test_graph_map_bound_gives_the_svds_verdict(rng, monkeypatch):
    # Where k max|a^H a - I/2| <= 1/4, sigma_min(a) >= 1/2 by Weyl's
    # inequality and the SVD is skipped; every other case runs it.  Both
    # routes pass with the same map, or raise the same error and message.
    calls = []
    real = linalg.singular_values
    monkeypatch.setattr(linalg, "singular_values", lambda a: calls.append(a) or real(a))
    kinds = set()
    for space, basis, cleared in _graph_map_cases(rng):
        for frame_h in _frames(space):
            before = len(calls)
            got = _outcome(_graph_map, space, frame_h, basis)
            assert got == _outcome(svd_graph_map, space, frame_h, basis)
            assert (len(calls) == before) == cleared
            kinds.add(got[1].split(";")[0].split(":")[0] if isinstance(got, tuple) else "map")
    assert kinds == {
        "map", "projection onto the +i eigenspace is singular", "graph map is not unitary"
    }


@pytest.mark.parametrize("k", [1, 2, 4])
def test_a_rank_threshold_past_one_half_forces_the_svd(rng, monkeypatch, k):
    # The bound proves sigma_min(a) >= 1/2 only; tol.rank = 0.6 needs the SVD
    # to decide, even where the bound holds: at k = 1, sigma = 0.55 gives
    # |a^H a - I/2| = 0.1975 <= 1/4, and the span fails, as the SVD says.
    calls = []
    real = linalg.singular_values
    monkeypatch.setattr(linalg, "singular_values", lambda a: calls.append(a) or real(a))
    # (The pinned split needs columns of norm past tol.rank in C^k, so only
    # the eigenvector frame is built at this threshold.)
    space = dataclasses.replace(sampling.random_space(k, rng), tol=hs.Tolerances(rank=0.6))
    half = [0.5**0.5] * (k - 1)
    cases = [plus_block_basis(space, [0.5**0.5] + half, rng) for _ in range(3)]
    cases.append(plus_block_basis(space, [0.55] + half, rng))
    for basis in cases:
        got = _outcome(_graph_map, space, space._evecs_h, basis)
        assert got == _outcome(svd_graph_map, space, space._evecs_h, basis)
    assert len(calls) == len(cases)
    assert isinstance(got, tuple) and "(smallest singular value 5.500e-01)" in got[1]


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
    # [basis_V | basis_W] at about 7e-9, inside the default rank guard band
    # (1e-9, 1e-7) of the oracle, and the eigenvalue 2e-8 from -1, inside the
    # eigenvalue band (1e-8, 1e-6) of the library.  Each follows its own
    # tolerance: rank 1e-12 resolves the oracle's count as 0 and leaves the
    # library's ambiguous; eig 1e-10 resolves the library's as 0 too.
    for tol, oracle, library in (
        (hs.Tolerances(), None, None),
        (hs.Tolerances(rank=1e-12), 0, None),
        (hs.Tolerances(rank=1e-12, eig=1e-10), 0, 0),
    ):
        space = dataclasses.replace(hs.standard_space(1), tol=tol)
        v = hs.lagrangian_from_graph(space, [[1.0]])
        w = hs.lagrangian_from_graph(space, [[np.exp(2e-8j)]])
        if oracle is None:
            with pytest.raises(RankBandAmbiguity):
                rank_band_dim(v, w)
        else:
            assert rank_band_dim(v, w) == oracle
        if library is None:
            with pytest.raises(EigenvalueAmbiguity):
                hs.intersection_dim(v, w)
        else:
            assert hs.intersection_dim(v, w) == library


def _union_values(q_v, q_w):
    """The 2k singular values of ``[q_v | q_w]``, descending, rebuilt from the
    k principal-angle sines: ``sqrt(1 + cos)`` reversed, then ``sin / sqrt(1 + cos)``."""
    sin = _principal_sines(q_v, q_w)
    large = np.sqrt(1.0 + np.sqrt(np.maximum((1.0 - sin) * (1.0 + sin), 0.0)))
    return np.concatenate([large[..., ::-1], sin / large], axis=-1)


class RankBandAmbiguity(Exception):
    """A singular value of ``[q_v | q_w]`` inside the rank guard band of :func:`rank_band_dim`."""


def rank_band_dim(v, w):
    """dim(V & W) by a second route, the oracle of :func:`hermsymp.intersection_dim`:
    ``dim - rank [q_v | q_w]`` of the whitened orthonormal bases, the rank the
    count of :func:`_union_values` above ``tol.rank``.  Raises
    :class:`RankBandAmbiguity` when one lies in ``(tol.rank/10, 10 tol.rank)``."""
    space = v.space
    tau = space.tol.rank
    s = _union_values(*_whitened(space, v, w))
    in_band = (s > tau / 10.0) & (s < tau * 10.0)
    if in_band.any():
        raise RankBandAmbiguity(
            f"singular value {s[in_band][0]:.3e} inside the rank guard band around {tau:.0e}"
        )
    return space.dim - int((s > tau).sum())


def _graph_pair(space, rng, angles):
    """Lagrangians of ``space`` whose graph unitaries, in the split's
    eigenvectors, differ by eigenvalues ``e^{i angles}``: an angle t puts the
    principal angle t/2 between them, so 0 is an intersection."""
    k, evecs = space.half_dim, space._evecs
    u_v, frame = sampling.random_unitary(k, rng), sampling.random_unitary(k, rng)
    u_w = u_v @ frame @ np.diag(np.exp(1j * np.asarray(angles))) @ frame.conj().T
    return [
        hs.lagrangian_from_basis(space, space._upper_inv @ (evecs[:, :k] + evecs[:, k:] @ u))
        for u in (u_v, u_w)
    ]


def _whitened(space, *lagrangians):
    return [space._upper @ x.basis for x in lagrangians]


# near-intersection angles: principal angles 5e-14 to 5e-5, all but 1e-8
# (singular value about 7e-9) outside the default guard band (1e-9, 1e-7)
NEAR = (1e-13, 1e-11, 2e-8, 1e-6, 1e-4)


@pytest.mark.parametrize("spread", [4.0, 1e3, 1e6])
@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_intersection_values_from_sines_match_the_svd_of_both_bases(k, spread):
    # Measured over 1000 pairs a spread, angles t in [0.05, 3.1]: at most
    # 13.3 eps cond(U) at spread 4, 2.8 at 1e3 and 2.2 at 1e6, the error of
    # re-whitening U (U^-1 q_w).  The bound takes about twice that.
    rng = np.random.default_rng([k, int(spread)])
    eps = np.finfo(float).eps
    for d in range(k + 1):
        space = sampling.random_space(k, rng, spread=spread)
        near = [NEAR[(d + j) % len(NEAR)] for j in range(min(2, k - d))]
        angles = np.r_[np.zeros(d), near, rng.uniform(0.05, 3.1, k - d - len(near))]
        pair = _graph_pair(space, rng, rng.permutation(angles))
        q_v, q_w = _whitened(space, *pair)
        expected = linalg.singular_values(np.hstack([q_v, q_w]))
        assert np.abs(_union_values(q_v, q_w) - expected).max() <= 32 * eps * space._cond
        tau = space.tol.rank
        if ((expected > tau / 10) & (expected < tau * 10)).any():
            with pytest.raises(RankBandAmbiguity):
                rank_band_dim(*pair)
        else:
            assert rank_band_dim(*pair) == 2 * k - (expected > tau).sum()


@pytest.mark.parametrize("spread", [4.0, 1e3, 1e6])
def test_near_orthogonal_pairs_lose_half_the_digits_far_from_the_band(spread):
    # cos = sqrt((1 - sin)(1 + sin)) of a principal angle near pi/2 carries
    # sqrt of the sine's error: the values near 1 move by up to about
    # 0.09 sqrt(eps cond(U)) (1000 pairs a spread), far from any band of a
    # tol.rank below 0.1, and the count is unchanged.
    rng = np.random.default_rng(int(spread))
    eps = np.finfo(float).eps
    for k in (1, 2, 4, 8, 16):
        space = sampling.random_space(k, rng, spread=spread)
        v, w = _graph_pair(space, rng, rng.uniform(np.pi - 1e-3, np.pi, k))
        for pair in ((v, w), (v, hs.gamma_image(v))):
            q_v, q_w = _whitened(space, *pair)
            expected = linalg.singular_values(np.hstack([q_v, q_w]))
            assert np.abs(_union_values(q_v, q_w) - expected).max() <= np.sqrt(eps * space._cond)
            assert rank_band_dim(*pair) == 0 == hs.intersection_dim(*pair)


def test_large_values_land_in_a_band_around_one(rng):
    # Tolerances(rank=0.5) puts [1, sqrt 2], where the k values sqrt(1 + cos)
    # lie, inside the oracle's band (0.05, 5): its rank decision is ambiguous.
    # The library reads no rank decision: it takes dim(V & W) from the pair's
    # eigenvalues, and gives the value and spectrum of the default tolerances.
    base = sampling.random_space(3, rng)
    v, w = _graph_pair(base, rng, rng.uniform(0.5, 2.5, 3))
    space = dataclasses.replace(base, tol=hs.Tolerances(rank=0.5))
    pair, default = ([hs.lagrangian_from_basis(s, x.basis) for x in (v, w)] for s in (space, base))
    first = _union_values(*_whitened(space, *pair))[0]
    with pytest.raises(RankBandAmbiguity, match=re.escape(f"singular value {first:.3e} inside")):
        rank_band_dim(*pair)
    details = hs.m_details(*pair)
    assert details == hs.m_details(*default) and details.intersection_dim == 0
    assert hs.intersection_dim(*pair) == 0


def test_subspace_distance_is_the_largest_sine_bit_for_bit(rng):
    for k in (1, 2, 4, 8):
        for spread in (4.0, 1e3, 1e6):
            space = sampling.random_space(k, rng, spread=spread)
            v, w = _graph_pair(space, rng, rng.uniform(0.0, 3.1, k))
            q1, q2 = _whitened(space, v, w)
            # the residual's largest singular value, spelled out: equal to the bit
            expected = linalg.singular_values(q2 - q1 @ (q1.conj().T @ q2)).max(initial=0.0)
            assert hs.subspace_distance(v, w) == float(expected)


def test_a_nan_residual_exceeds_the_alg_rule():
    # every comparison with NaN is false, so the rule reads "not within"
    space = hs.standard_space(1)
    assert space._exceeds_alg(np.float64(np.nan))
    assert space._exceeds_alg(np.array([np.nan, 0.0, np.nan])).tolist() == [True, False, True]
    with pytest.raises(LagrangianValidationError, match="residual nan$"):
        _check_span(space, np.intp(1), np.full((2, 1), np.nan, dtype=complex))


@pytest.mark.parametrize("columns", [1, 3])
def test_a_hand_built_basis_of_another_shape_is_rejected(columns):
    space = hs.standard_space(2)
    lagr = hs.lagrangian_from_basis(space, np.eye(4, 2))
    bad = hs.Lagrangian(space, np.eye(4, columns, dtype=complex))
    message = rf"^basis has shape \(4, {columns}\), not \(4, 2\)$"
    for call in (
        lambda: hs.subspace_distance(lagr, bad),
        lambda: hs.m_details(bad, lagr),
        lambda: hs.intersection_dim(lagr, bad),
        lambda: hs.triple_index(lagr, lagr, bad),
        lambda: hs.eta_correction_rhs(lagr, lagr, lagr, bad),
        lambda: hs.phi_of(bad),
    ):
        with pytest.raises(LagrangianValidationError, match=message):
            call()


def test_mixed_tolerances_rejected():
    space = hs.standard_space(1)
    other = dataclasses.replace(space, tol=hs.Tolerances(rank=1e-12))
    assert not hs.same_space(space, other)
    assert hs.negated(other).tol == other.tol
    assert hs.direct_sum(other, other).tol == other.tol
    with pytest.raises(ValidationError):
        hs.direct_sum(space, other)
    with pytest.raises(ValidationError):
        _flipped_product(other, space)
    line = [[1.0], [0.0]]
    with pytest.raises(ValidationError):
        hs.m_invariant(hs.lagrangian_from_basis(space, line), hs.lagrangian_from_basis(other, line))


def _products(a, b):
    """``a (+) b`` and the flipped ``a^- (+) b``, with the gamma of the first block."""
    return [(hs.direct_sum(a, b), a.gamma), (_flipped_product(a, b), -a.gamma)]


@pytest.mark.parametrize("spread", [4.0, 1e3, 1e6])
def test_product_spaces_take_their_frames_from_the_factors(rng, spread):
    eps = np.finfo(float).eps
    for k0, k1 in [(0, 2), (1, 1), (1, 3), (2, 2), (4, 1), (5, 5), (3, 0)]:
        a = sampling.random_space(k0, rng, spread=spread)
        b = sampling.random_space(k1, rng, spread=spread)
        for prod, gamma_a in _products(a, b):
            gram = linalg.block_diag(a.gram, b.gram)
            assert np.array_equal(prod._upper, linalg.block_diag(a._upper, b._upper))
            assert np.array_equal(prod._upper_inv, linalg.block_diag(a._upper_inv, b._upper_inv))
            # the factorizations a construction from the block matrices makes:
            # the Cholesky factor of the block gram, and the inverse of U (of a
            # fresh factor it would differ by cond(U) times their distance)
            bound = 10 * eps * prod._cond
            upper = linalg.adjoint(linalg.cholesky(gram))
            assert linalg.max_abs(prod._upper - upper) <= bound * linalg.max_abs(upper)
            inverse = linalg.inv(prod._upper)
            assert linalg.max_abs(prod._upper_inv - inverse) <= bound * linalg.max_abs(inverse)
            built = hs.HermitianSymplecticSpace(gram, linalg.block_diag(gamma_a, b.gamma))
            assert hs.same_space(prod, built)
            assert (prod.dim, prod.half_dim, prod.tol) == (built.dim, built.half_dim, built.tol)
            assert not (prod.gram.flags.writeable or prod.gamma.flags.writeable)


@pytest.mark.parametrize("spread", [4.0, 1e3, 1e6])
def test_product_spaces_seed_gamma_w_from_the_factors(rng, spread):
    # gamma_w, the block diagonal of the factors' (negated in the first block
    # of a flipped product), is U gamma U^-1 of the same block space, which a
    # space built from the block matrices solves for: within the solve's own
    # error scale, eps cond(U) times the largest entry of gamma
    eps = np.finfo(float).eps
    for k0, k1 in [(0, 2), (1, 1), (1, 3), (2, 2), (4, 1), (5, 5), (3, 0)]:
        a = sampling.random_space(k0, rng, spread=spread)
        b = sampling.random_space(k1, rng, spread=spread)
        for prod, gamma_a in _products(a, b):
            built = hs.HermitianSymplecticSpace(prod.gram, linalg.block_diag(gamma_a, b.gamma))
            error = linalg.max_abs(prod._gamma_w - built._gamma_w)
            assert error <= 10 * eps * prod._cond * linalg.max_abs(prod.gamma)
            # all five blocks are read-only, without a copy of their own
            for arr in (prod.gram, prod.gamma, prod._upper, prod._upper_inv, prod._gamma_w):
                assert not arr.flags.writeable


def test_a_space_keeps_copies_of_its_callers_arrays(rng):
    space = sampling.random_space(2, rng)
    gram, gamma = space.gram.copy(), space.gamma.copy()
    built = hs.HermitianSymplecticSpace(gram, gamma)
    gram[0, 0], gamma[0, 0] = 7.0, 7.0
    assert hs.same_space(built, space)


def test_condition_number_of_the_zero_space_is_one():
    space = hs.zero_space()
    assert space._cond == 1.0
    # a residual past tol.alg reads the scale cond(U)
    assert space._exceeds_alg(np.float64(2 * space.tol.alg))
    assert hs.direct_sum(space, space)._cond == 1.0


# and values with no float: none at all, one past the double range, and one
# past the 4300 digits up to which Python gives an int's repr; text and bool,
# which float() reads, are no numbers either
NO_FLOAT = [
    pytest.param(None, id="None"), pytest.param("x", id="str"),
    pytest.param(10**400, id="int-past-double-range"),
    pytest.param(10**5000, id="int-past-repr-limit"),
    pytest.param("1e-3", id="numeric-str"), pytest.param(b"1e-3", id="numeric-bytes"),
    pytest.param(True, id="bool"), pytest.param(np.True_, id="numpy-bool"),
    pytest.param(bytearray(b"1e-3"), id="numeric-bytearray"),
    pytest.param(memoryview(b"1e-3"), id="numeric-memoryview"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, *NO_FLOAT])
@pytest.mark.parametrize("field", ["alg", "rank", "eig", "int"])
def test_tolerances_must_be_finite_and_positive(field, value):
    with pytest.raises(ValidationError, match=f"^tolerance {field} must be finite and positive"):
        hs.Tolerances(**{field: value})


def test_tolerances_are_stored_as_floats():
    tol = hs.Tolerances(alg=1, rank=np.float32(0.5), eig=10**300)
    assert [type(getattr(tol, name)) for name in ("alg", "rank", "eig", "int")] == [float] * 4
    assert tol == hs.Tolerances(alg=1.0, rank=0.5, eig=1e300) and repr(tol)


def test_tolerances_compare_by_value_and_answer_themselves_first():
    tol, same, other = hs.Tolerances(), hs.Tolerances(), hs.Tolerances(rank=1e-12)
    assert tol == tol and not tol != tol
    assert tol == same and hash(tol) == hash(same) and repr(tol) == repr(same)
    assert tol != other and other != tol
    assert tol.__eq__((1e-10, 1e-8, 1e-8, 1e-6)) is NotImplemented and tol != "tol"


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


@pytest.mark.parametrize("intersection", [-1, 3])
def test_random_lagrangian_pair_takes_an_intersection_in_range(rng, intersection):
    with pytest.raises(hs.ValidationError, match=r"must lie in \[0, 2\]"):
        sampling.random_lagrangian_pair(sampling.random_space(2, rng), rng, intersection)


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
        assert hs.validate_space(space).passed  # the structure check of the split
        upper, k, evecs = space._upper, space.half_dim, space._evecs
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
