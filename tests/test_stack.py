"""The stacked pair-invariant kernel against the scalar route, item by item.

``maslov.m_stack`` must give what ``m_details`` gives on each item's space and
raw bases, over the whitened-frame domain of ``test_whitened_frame``, and a
bad item must raise the scalar route's error type with its index named.
"""
import re

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import linalg, maslov, sampling
from hermsymp.linalg import span_qr
from hermsymp.errors import (
    EigensplitError,
    EigenvalueAmbiguity,
    HermsympError,
    LagrangianValidationError,
    SpaceValidationError,
)
from test_linalg import reference_mgs
from test_spaces import RankBandAmbiguity, plus_block_basis, rank_band_dim


def scalar_m(gram, gamma, v_basis, w_basis, tol=hs.Tolerances()):
    space = hs.HermitianSymplecticSpace(gram, gamma, tol)
    v = hs.lagrangian_from_basis(space, v_basis)
    return hs.m_details(v, hs.lagrangian_from_basis(space, w_basis)).value


def stacks(items):
    """``(gram, gamma, v_basis, w_basis)`` stacks of ``(space, v_basis, w_basis)`` items."""
    return [np.stack(column) for column in zip(*((s.gram, s.gamma, v, w) for s, v, w in items))]


def random_pairs(rng, k, intersection, count=6, spread=4.0):
    """Items ``(space, v, w)`` and the stacks of raw bases of their spans.

    The raw bases mix each Lagrangian's columns, so the kernel has to
    orthonormalize them itself.
    """
    pairs, items = [], []
    for _ in range(count):
        space = sampling.random_space(k, rng, spread=spread)
        v, w = sampling.random_lagrangian_pair(space, rng, intersection)
        pairs.append((space, v, w))
        items.append((space, *(x.basis @ sampling.random_invertible(k, rng) for x in (v, w))))
    return pairs, stacks(items)


def assert_matches_m_details(pairs, columns, tol=hs.Tolerances()):
    got = hs.m_stack(*columns, tol)
    assert got.shape == (len(pairs),)
    assert np.max(np.abs(got - [hs.m_details(v, w).value for _, v, w in pairs])) < 1e-9


@pytest.mark.parametrize(
    "k,intersection", [(k, i) for k in (1, 2, 4, 8) for i in (0, 1, 2) if i <= k]
)
def test_agrees_with_m_details(rng, k, intersection):
    assert_matches_m_details(*random_pairs(rng, k, intersection))


@pytest.mark.parametrize("k", [2, 3, 8])
def test_exact_on_ill_conditioned_spaces(k):
    # cond(gram) up to 1e4.  The expected value is read off the graph
    # unitaries (u_V, u_W), whose pair unitary is -u_V u_W^H: no Lagrangian is
    # validated on the scalar route, which rejects a few of these spans.
    rng = np.random.default_rng(0)
    for intersection in (0, 1):
        items, expected = [], []
        for _ in range(10):
            space = sampling.random_space(k, rng, spread=1e4)
            split = hs.eigensplit(space)
            u_v, frame = sampling.random_unitary(k, rng), sampling.random_unitary(k, rng)
            angles = np.r_[np.zeros(intersection), rng.uniform(0.4, 1.4, k - intersection)]
            u_w = u_v @ frame @ np.diag(np.exp(1j * angles)) @ frame.conj().T
            graphs = [split.plus_basis + split.minus_basis @ u for u in (u_v, u_w)]
            items.append((space, *(g @ sampling.random_invertible(k, rng) for g in graphs)))
            eigs = np.linalg.eigvals(-u_v @ u_w.conj().T)
            expected.append(-np.angle(eigs[np.abs(eigs + 1.0) > 1e-8]).sum() / np.pi)
        assert np.max(np.abs(hs.m_stack(*stacks(items)) - expected)) < 1e-9


@pytest.mark.parametrize("scale", [1e-20, 1e-16, 1e-12, 1e-8, 1e8, 1e12, 1e16, 1e20])
def test_invariant_under_gram_scaling(rng, scale):
    pairs, (gram, gamma, v_basis, w_basis) = random_pairs(rng, 3, 1, 5)
    assert_matches_m_details(pairs, (gram * scale, gamma, v_basis, w_basis))


def test_power_of_two_scalings_of_the_bases_keep_the_values_to_the_bit(rng):
    # the drop rule reads each column's norm after an exact rescaling, so a
    # column past the square root of the double range keeps its verdict
    _, (gram, gamma, v_basis, w_basis) = random_pairs(rng, 2, 1, 4)
    expected = hs.m_stack(gram, gamma, v_basis, w_basis)
    for e in (-1000, -600, -200, 200, 600, 1000):
        got = hs.m_stack(gram, gamma, np.ldexp(1.0, e) * v_basis, w_basis / np.ldexp(1.0, e))
        assert np.array_equal(got, expected), e


def test_bases_whose_whitened_product_overflows_keep_their_span(rng):
    # U b overflows for the raw entries; the kernel scales them first
    _, (gram, gamma, v_basis, w_basis) = random_pairs(rng, 2, 1, 4)
    expected = hs.m_stack(gram, gamma, v_basis, w_basis)
    top = 1.7e308 / np.abs(w_basis).max()  # the largest entry of W is 1.7e308
    got = hs.m_stack(1e20 * gram, gamma, 1e300 * v_basis, top * w_basis)
    assert np.abs(got - expected).max() < 1e-9


def test_tolerances_reach_the_kernel(rng):
    # spans 1e-7 off Lagrangian fail by default and pass under tol.alg=1e-5
    _, (gram, gamma, v_basis, w_basis) = random_pairs(rng, 2, 0, 4)
    v_basis = v_basis + 1e-7 * rng.standard_normal(v_basis.shape)
    with pytest.raises(LagrangianValidationError, match="item 0:"):
        hs.m_stack(gram, gamma, v_basis, w_basis)
    tol = hs.Tolerances(alg=1e-5)
    expected = [scalar_m(*item, tol) for item in zip(gram, gamma, v_basis, w_basis)]
    assert np.max(np.abs(hs.m_stack(gram, gamma, v_basis, w_basis, tol) - expected)) < 1e-9


def test_empty_stacks():
    assert hs.m_stack(np.zeros((0, 4, 4)), np.zeros((0, 4, 4)),
                      np.zeros((0, 4, 2)), np.zeros((0, 4, 2))).shape == (0,)
    zero = hs.zero_space()
    assert scalar_m(zero.gram, zero.gamma, np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
    empty = np.zeros((3, 0, 0))
    assert hs.m_stack(empty, empty, empty, empty).tolist() == [0.0, 0.0, 0.0]


def test_bases_must_be_half_dimensional_stacks(rng):
    _, (gram, gamma, v_basis, w_basis) = random_pairs(rng, 2, 0, 3)
    for bad in (v_basis[:, :, :1], v_basis[:2], v_basis[:, :3]):
        for name, pair in (("V", (bad, w_basis)), ("W", (v_basis, bad))):
            with pytest.raises(LagrangianValidationError) as exc:
                hs.m_stack(gram, gamma, *pair)
            message = f"{name} bases must have shape (3, 4, 2), got {bad.shape}"
            assert (str(exc.value), exc.value.item) == (message, None)
    with pytest.raises(SpaceValidationError) as exc:
        hs.m_stack(gram[0], gamma[0], v_basis[0], w_basis[0])
    message = "gram must be a stack of square matrices, got shape (4, 4)"
    assert (str(exc.value), exc.value.item) == (message, None)


def malformed(case):
    """``(columns, message)`` of a stack of spaces whose shapes fit no stack of pairs."""
    _, (gram, gamma, v, w) = random_pairs(np.random.default_rng(0), 2, 0, 2)
    odd = {t: np.broadcast_to(np.eye(3), (t, 3, 3)) for t in (2, 0)}
    return {
        "odd_n": ((odd[2], odd[2], v[:, :3], w[:, :3]), "dimension must be even, got 3"),
        "odd_n_empty": ((odd[0], odd[0], v[:0, :3], w[:0, :3]), "dimension must be even, got 3"),
        "not_square": ((gram[..., :3], gamma[..., :3], v, w),
                       "gram must be square, got shape (2, 4, 3)"),
        "gamma_shape": ((gram, gamma[:1], v, w),
                        "gamma shape (1, 4, 4) does not match gram shape (2, 4, 4)"),
    }[case]


@pytest.mark.parametrize("case", ["odd_n", "odd_n_empty", "not_square", "gamma_shape"])
def test_malformed_stacks_of_spaces_raise_at_once_and_name_no_item(case):
    columns, message = malformed(case)
    with pytest.raises(SpaceValidationError) as exc:
        hs.m_stack(*columns)
    assert (type(exc.value), str(exc.value), exc.value.item) == (SpaceValidationError, message, None)


def test_a_failing_fast_path_returns_the_scalar_loops_values_to_the_bit(rng, monkeypatch):
    _, columns = random_pairs(rng, 3, 1, 4)

    def failing(*args):
        raise EigenvalueAmbiguity("the stacked pass failed")

    monkeypatch.setattr(maslov, "_stacked_m", failing)
    expected = np.array([scalar_m(*item) for item in zip(*columns)])
    assert hs.m_stack(*columns).tobytes() == expected.tobytes()


def rank_deficient(item, rng):
    space, v, w = item
    return space.gram, space.gamma, np.stack([v[:, 0], 2.0 * v[:, 0]], axis=1), w


def non_lagrangian(item, rng):
    space, v, w = item
    span = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    return space.gram, space.gamma, span, w


def non_lagrangian_then_rank_deficient(item, rng):
    # the scalar route validates V before W, so V's failure is the one raised
    space, v, w = item
    span = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    return space.gram, space.gamma, span, np.stack([w[:, 0], 2.0 * w[:, 0]], axis=1)


def perturbed_gamma(item, rng):
    space, v, w = item
    return space.gram, space.gamma + 1e-7 * rng.standard_normal(space.gamma.shape), v, w


def not_positive_definite(item, rng):
    space, v, w = item
    return -space.gram, space.gamma, v, w


def not_hermitian(item, rng):
    space, v, w = item
    gram = space.gram.copy()
    gram[0, 1] += 1e-6
    return gram, space.gamma, v, w


def non_finite_gamma(item, rng):
    space, v, w = item
    gamma = space.gamma.copy()
    gamma[1, 0] = np.inf
    return space.gram, gamma, v, w


def dropped_first_column(item, rng):
    # V's whitened basis is [0, e_1]: after the zero column the QR's |R_22|
    # omits the first row and drops e_1 too, where Gram-Schmidt keeps it
    space, v, w = item
    upper = np.linalg.cholesky(space.gram).conj().T
    column = np.linalg.solve(upper, np.eye(len(v))[:, 0])
    return space.gram, space.gamma, np.stack([0.0 * column, column], axis=1), w


def non_finite(item, rng):
    space, v, w = item
    w = w.copy()
    w[0, 0] = np.nan
    return space.gram, space.gamma, v, w


def infinite(item, rng):
    # inf meets zeros in U b: no numpy warning may come before the typed error
    space, v, w = item
    v = v.copy()
    v[0, 0] = np.inf
    return space.gram, space.gamma, v, w


def nearly_intersecting(angle):
    """Graph unitaries agreeing up to one eigenvalue ``exp(i angle)``: the pair
    unitary has an eigenvalue ``angle`` from -1, and the spans a principal
    angle of about ``angle / 2``."""

    def corrupt(item, rng):
        space = item[0]
        u_v, frame = sampling.random_unitary(2, rng), sampling.random_unitary(2, rng)
        u_w = u_v @ frame @ np.diag(np.exp(1j * np.array([angle, 0.9]))) @ frame.conj().T
        v, w = hs.lagrangian_from_graph(space, u_v), hs.lagrangian_from_graph(space, u_w)
        return space.gram, space.gamma, v.basis, w.basis

    return corrupt


# inside the eigenvalue ambiguity band (1e-8, 1e-6)
near_branch = nearly_intersecting(1e-7)
# within tol.eig of -1: excluded, and counted in dim(V & W)
just_excluded = nearly_intersecting(5e-9)


def corrupted(rng, corrupt, j):
    """Stacks of five valid items with item ``j`` replaced through ``corrupt``."""
    pairs, columns = random_pairs(rng, 2, 0, 5)
    item = (pairs[j][0], columns[2][j], columns[3][j])
    for column, value in zip(columns, corrupt(item, rng)):
        column[j] = value
    return columns


def assert_fails_like_scalar(columns, j, error, tol=hs.Tolerances()):
    """The stack raises the scalar route's error on item ``j``, its message
    prefixed with the index, which the error's ``item`` holds."""
    with pytest.raises(HermsympError) as scalar:
        scalar_m(*(column[j] for column in columns), tol)
    assert type(scalar.value) is error
    with pytest.raises(error) as stacked:
        hs.m_stack(*columns, tol)
    assert type(stacked.value) is error
    assert str(stacked.value) == f"item {j}: {scalar.value}"
    assert stacked.value.item == j
    return scalar.value, stacked.value


@pytest.mark.parametrize(
    "corrupt,error",
    [
        (rank_deficient, LagrangianValidationError),
        (non_lagrangian, LagrangianValidationError),
        (non_lagrangian_then_rank_deficient, LagrangianValidationError),
        (dropped_first_column, LagrangianValidationError),
        (perturbed_gamma, LagrangianValidationError),
        (not_positive_definite, SpaceValidationError),
        (not_hermitian, SpaceValidationError),
        (non_finite_gamma, SpaceValidationError),
        (non_finite, LagrangianValidationError),
        (infinite, LagrangianValidationError),
        (near_branch, EigenvalueAmbiguity),
    ],
)
@pytest.mark.parametrize("j", [0, 3])
def test_bad_item_raises_the_scalar_error_with_its_index(rng, corrupt, error, j):
    assert_fails_like_scalar(corrupted(rng, corrupt, j), j, error)


def w_rank_deficient(item, rng):
    space, v, w = item
    return space.gram, space.gamma, v, np.stack([w[:, 0], 2.0 * w[:, 0]], axis=1)


def w_non_lagrangian(item, rng):
    space, v, w = item
    span = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
    return space.gram, space.gamma, v, span


def w_with_plus_block(sigma):
    """W replaced by an orthonormal span whose +i block has singular values
    ``sigma``: under ``tol.alg = 2`` omega passes on any orthonormal span, so
    the graph map makes the first check that fails."""

    def corrupt(item, rng):
        space, v, w = item
        return space.gram, space.gamma, v, plus_block_basis(space, sigma, rng)

    return corrupt


@pytest.mark.parametrize(
    "corrupt,fragment,tol",
    [
        (w_rank_deficient, "basis spans dimension 1, expected 2", hs.Tolerances()),
        (w_non_lagrangian, "symplectic form does not vanish on the span", hs.Tolerances()),
        (w_with_plus_block([5e-9, 0.5**0.5]), "projection onto the +i eigenspace is singular",
         hs.Tolerances(alg=2.0)),
        (w_with_plus_block([0.05, 0.5**0.5]), "graph map is not unitary", hs.Tolerances(alg=2.0)),
    ],
)
@pytest.mark.parametrize("j", [0, 3])
def test_a_failing_w_alone_fails_the_side_stacked_check(rng, corrupt, fragment, tol, j):
    # V and W pass each shared check as one stack; an item whose W alone
    # fails must fail the check there, and the scalar loop then names it.
    columns = corrupted(rng, corrupt, j)
    with pytest.raises(LagrangianValidationError, match=re.escape(fragment)):
        maslov._stacked_m(*columns, tol)
    _, stacked = assert_fails_like_scalar(columns, j, LagrangianValidationError, tol)
    assert str(stacked).startswith(f"item {j}: {fragment}")


def test_a_passing_stack_makes_one_call_per_kernel(rng, monkeypatch):
    # both sides in one graph-map pass: one inv, and no SVD, since the Gram
    # blocks clear every +i block; one eigh of the split, one eigvals of the tail
    counts = dict.fromkeys(["singular_values", "inv", "eigvals", "eigh"], 0)
    for name in counts:
        real = getattr(linalg, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    for spread in (4.0, 1e3):
        for intersection in (0, 1):
            _, columns = random_pairs(rng, 2, intersection, 8, spread)
            counts.update(dict.fromkeys(counts, 0))
            hs.m_stack(*columns)
            assert counts == {"singular_values": 0, "inv": 1, "eigvals": 1, "eigh": 1}


def assert_matches_the_scalar_loop(columns, j, tol=hs.Tolerances()):
    """The stack gives the scalar route's values; returns item ``j``'s
    :class:`~hermsymp.maslov.PairSpectrum` and its Lagrangians."""
    expected = [scalar_m(*item, tol) for item in zip(*columns)]
    assert np.abs(hs.m_stack(*columns, tol) - expected).max() < 1e-9
    space = hs.HermitianSymplecticSpace(columns[0][j], columns[1][j], tol)
    v, w = (hs.lagrangian_from_basis(space, column[j]) for column in columns[2:])
    return hs.m_details(v, w), v, w


@pytest.mark.parametrize("j", [0, 3])
def test_an_item_just_excluded_at_minus_one_gives_the_scalar_value(rng, j):
    # The eigenvalue 5e-9 from -1 decides dim(V & W) on both routes, and the
    # public intersection_dim reads it.  The spans' smallest singular value,
    # about 1.8e-9, lies in the rank guard band (1e-9, 1e-7) of the
    # rank-band oracle, which raises.
    details, v, w = assert_matches_the_scalar_loop(corrupted(rng, just_excluded, j), j)
    assert details.intersection_dim == details.excluded == hs.intersection_dim(v, w) == 1
    with pytest.raises(RankBandAmbiguity):
        rank_band_dim(v, w)


@pytest.mark.parametrize("j", [0, 3])
def test_a_dropped_column_names_the_dimension_of_the_scalar_route(rng, j):
    # the stacked QR drops both columns; the rerun item names Gram-Schmidt's
    # count, as the scalar route does
    scalar, _ = assert_fails_like_scalar(
        corrupted(rng, dropped_first_column, j), j, LagrangianValidationError
    )
    assert str(scalar) == "basis spans dimension 1, expected 2"


def test_a_dropped_column_on_the_standard_space():
    s = hs.standard_space(2)
    v_basis = np.zeros((4, 2))
    v_basis[0, 1] = 1.0
    columns = [x[None] for x in (s.gram, s.gamma, v_basis, np.eye(4)[:, :2])]
    scalar, stacked = assert_fails_like_scalar(columns, 0, LagrangianValidationError)
    assert (str(scalar), str(stacked)) == (
        "basis spans dimension 1, expected 2", "item 0: basis spans dimension 1, expected 2"
    )


def test_a_column_the_qr_drops_and_gram_schmidt_keeps_gives_the_scalar_value():
    # At roundoff from the drop rule the QR may drop a column that the
    # reference Gram-Schmidt loop keeps: set tol.rank between the two
    # residuals of a span in the Lagrangian span(e_1, e_2).  Both routes
    # decide it by the one rule, so they give the same value or the same error.
    ident, rng = np.eye(4), np.random.default_rng(0)
    for _ in range(1000):
        first = np.r_[rng.standard_normal(2) + 1j * rng.standard_normal(2), 0.0, 0.0]
        second = first * rng.standard_normal() + 1e-3 * np.r_[rng.standard_normal(2), 0.0, 0.0]
        v_basis = np.stack([first, second], axis=1)
        diag = span_qr(ident, v_basis, 0.0)[1]
        rank = np.nextafter(abs(diag[1]) / np.linalg.norm(second), 1.0)
        if reference_mgs(ident, v_basis, rank).shape[1] == 2 and not span_qr(ident, v_basis, rank)[2][1]:
            break
    else:
        pytest.fail("no span straddles the drop rule")
    standard, tol = hs.standard_space(2), hs.Tolerances(rank=rank)
    columns = [x[None] for x in (standard.gram, standard.gamma, v_basis, ident[:, 2:])]
    try:
        expected = scalar_m(*(x[0] for x in columns), tol)
    except HermsympError as exc:
        assert_fails_like_scalar(columns, 0, type(exc), tol)
    else:
        assert abs(hs.m_stack(*columns, tol)[0] - expected) < 1e-12


def test_structure_that_does_not_split(rng):
    # gamma^2 = -2 I, and both coordinate halves are isotropic, so the spans
    # pass as Lagrangians and the splitting fails.  i gamma_w has eigenvalues
    # -1.5 and 1.5, two each, so both routes count 2/2 and fail on the
    # residual of gamma_w^2 = -I.
    gamma = np.zeros((4, 4))
    gamma[:2, 2:], gamma[2:, :2] = -np.eye(2), 2.0 * np.eye(2)
    ident = np.eye(4)

    def not_a_complex_structure(item, rng):
        return ident, gamma, ident[:, :2], ident[:, 2:]

    columns = corrupted(rng, not_a_complex_structure, 3)
    assert_fails_like_scalar(columns, 3, EigensplitError)


@pytest.mark.parametrize("eps", [3e-9, 1e-8, 3e-8, 1e-7])
def test_gamma_off_by_less_than_tol_alg_splits_on_both_routes(eps):
    # gamma off by eps passes validate_space under tol.alg = 1e-5; both routes
    # decide the split by the eigenvalue signs of i gamma_w, so both accept it
    rng = np.random.default_rng(0)
    space = sampling.random_space(2, rng)
    v, w = sampling.random_lagrangian_pair(space, rng, 0)
    tol = hs.Tolerances(alg=1e-5)
    gamma = space.gamma + eps * rng.standard_normal(space.gamma.shape)
    assert hs.validate_space(hs.HermitianSymplecticSpace(space.gram, gamma, tol)).passed
    item = (space.gram, gamma, v.basis, w.basis)
    stacked = hs.m_stack(*(x[None] for x in item), tol)
    assert abs(stacked[0] - scalar_m(*item, tol)) < 1e-12


def test_exclusion_count_mismatch(rng):
    # With tol.eig = 1e-3 an eigenvalue 1e-4 from -1 is excluded, while the
    # spans' principal-angle sine, about 5e-5, stays far above tol.rank: the
    # pair and the public intersection_dim count the excluded eigenvalue as
    # dim(V & W), the sines of the rank-band oracle give 0, and the stack
    # agrees with the scalar loop.
    columns = corrupted(rng, nearly_intersecting(1e-4), 2)
    details, v, w = assert_matches_the_scalar_loop(columns, 2, hs.Tolerances(eig=1e-3))
    assert details.intersection_dim == details.excluded == hs.intersection_dim(v, w) == 1
    assert rank_band_dim(v, w) == 0


def test_lowest_failing_index_is_named(rng):
    pairs, columns = random_pairs(rng, 2, 0, 5)
    for j in (4, 1):
        columns[2][j] = rank_deficient((pairs[j][0], columns[2][j], columns[3][j]), rng)[2]
    with pytest.raises(LagrangianValidationError, match="^item 1: basis spans dimension 1") as exc:
        hs.m_stack(*columns)
    assert exc.value.item == 1


def test_failure_is_the_first_of_a_scalar_loop(rng):
    # Item 1 fails the last check (the eigenvalue band at -1), item 3 the first
    # (positive definiteness) and item 4 a middle one (omega on the span): the
    # loop meets item 1 first.
    pairs, columns = random_pairs(rng, 2, 0, 5)
    for j, corrupt in ((1, near_branch), (3, not_positive_definite), (4, non_lagrangian)):
        item = (pairs[j][0], columns[2][j], columns[3][j])
        for column, value in zip(columns, corrupt(item, rng)):
            column[j] = value
    assert_fails_like_scalar(columns, 1, EigenvalueAmbiguity)
    with pytest.raises(SpaceValidationError, match="^item 1: gram must be positive definite$"):
        hs.m_stack(*(column[2:] for column in columns))


def test_single_space_errors_name_no_item():
    with pytest.raises(SpaceValidationError, match="^gram must be positive definite$") as exc:
        hs.HermitianSymplecticSpace(-np.eye(2), hs.standard_space(1).gamma)
    assert exc.value.item is None


def test_stacked_rule_is_the_space_rule(rng):
    singular = np.geomspace(1.0, 30.0, 4)
    tmat = sampling.random_unitary(4, rng) @ np.diag(singular) @ sampling.random_unitary(4, rng)
    gram = tmat.conj().T @ tmat
    space = hs.HermitianSymplecticSpace((gram + gram.conj().T) / 2.0, hs.standard_space(2).gamma)
    residuals = np.array([0.0, 5e-11, 1e-10, 2e-10, 2.9e-9, 3.1e-9, 1e-6])
    stack = hs.HermitianSymplecticSpace(
        *(np.broadcast_to(m, (len(residuals), 4, 4)) for m in (space.gram, space.gamma))
    )
    got = stack._exceeds_alg(residuals)
    assert got.tolist() == [space._exceeds_alg(r) for r in residuals]
    assert got.tolist() == [False] * 5 + [True] * 2
