"""Pair invariant, triple index, and their algebraic identities."""
import dataclasses

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import maslov, sampling
from hermsymp.errors import EigenvalueAmbiguity, HermsympError, NonIntegerSum, RankAmbiguity
from hermsymp.torus import TorusModel


def test_m_of_equal_lagrangians_is_exactly_zero(rng):
    space = sampling.random_space(3, rng)
    lagr = sampling.random_lagrangian(space, rng)
    details = hs.m_details(lagr, lagr)
    assert details.value == 0.0
    assert details.excluded == 3
    assert details.intersection_dim == 3


def test_torus_spot_value_and_spectrum():
    # Hand derivation: the graph maps are diag(1, -i) and diag(1, 1), so
    # -phi(V)phi(W)* = diag(-1, i); excluding -1 leaves the single angle
    # pi/2 and m = -(1/pi)(pi/2) = -1/2.
    model = TorusModel(1.0)
    details = hs.m_details(
        model.lagrangian(1, 1), model.lagrangian(1, 0)
    )
    assert abs(details.value + 0.5) < 1e-12
    assert details.intersection_dim == 1
    eigs = sorted(details.eigenvalues, key=lambda z: z.real)
    assert abs(eigs[0] + 1.0) < 1e-12
    assert abs(eigs[1] - 1j) < 1e-12


def test_antisymmetry_on_transverse_pairs(rng):
    for half_dim in (1, 2, 3):
        space = sampling.random_space(half_dim, rng)
        for _ in range(10):
            v, w = sampling.random_lagrangian_pair(space, rng, 0)
            forward = hs.m_invariant(v, w)
            backward = hs.m_invariant(w, v)
            assert abs(forward + backward) < 1e-10


def test_gamma_invariance(rng):
    space = sampling.random_space(3, rng)
    for _ in range(10):
        v = sampling.random_lagrangian(space, rng)
        w = sampling.random_lagrangian(space, rng)
        direct = hs.m_invariant(v, w)
        flipped = hs.m_invariant(
            hs.gamma_image(v), hs.gamma_image(w)
        )
        assert abs(direct - flipped) < 1e-9


@pytest.mark.parametrize("target_dim", [0, 1, 2])
def test_exclusion_count_matches_engineered_intersection(rng, target_dim):
    space = sampling.random_space(3, rng)
    for _ in range(10):
        v, w = sampling.random_lagrangian_pair(space, rng, target_dim)
        details = hs.m_details(v, w)
        assert details.intersection_dim == target_dim
        assert details.excluded == target_dim


def test_m_range_bound(rng):
    space = sampling.random_space(4, rng)
    for _ in range(20):
        v = sampling.random_lagrangian(space, rng)
        w = sampling.random_lagrangian(space, rng)
        value = hs.m_invariant(v, w)
        assert -4 < value <= 4


def test_eigenvalue_ambiguity_raised():
    # Graph unitaries 1 and e^{i delta} put an eigenvalue of -phi(V)phi(W)*
    # at distance ~delta from -1; delta = 1e-7 lands in the ambiguity band.
    space = hs.standard_space(1)
    v = hs.lagrangian_from_graph(space, [[1.0]])
    w = hs.lagrangian_from_graph(space, [[np.exp(1e-7j)]])
    with pytest.raises(EigenvalueAmbiguity):
        hs.m_invariant(v, w)


def test_triple_with_repeated_argument_is_zero(rng):
    space = sampling.random_space(2, rng)
    v = sampling.random_lagrangian(space, rng)
    w = sampling.random_lagrangian(space, rng)
    assert hs.triple_index(v, v, w) == 0


def test_triple_cyclic_invariance(rng):
    space = sampling.random_space(3, rng)
    u, v, w = (sampling.random_lagrangian(space, rng) for _ in range(3))
    first = hs.triple_index(u, v, w)
    assert first == hs.triple_index(v, w, u)
    assert first == hs.triple_index(w, u, v)


def test_triple_integrality_small(rng):
    for half_dim in (1, 2, 3, 4):
        space = sampling.random_space(half_dim, rng)
        for _ in range(10):
            u, v, w = (sampling.random_lagrangian(space, rng) for _ in range(3))
            total = (
                hs.m_invariant(u, v)
                + hs.m_invariant(v, w)
                + hs.m_invariant(w, u)
            )
            assert abs(total - round(total)) < 1e-10


def test_triple_integrality_guard_can_fire(rng):
    # With an absurdly tight guard the roundoff in an honest sum trips the
    # integrality check; this exercises the NonIntegerSum path.
    space = dataclasses.replace(
        sampling.random_space(3, rng), tol=hs.Tolerances(int=1e-18)
    )
    for _ in range(50):
        u, v, w = (sampling.random_lagrangian(space, rng) for _ in range(3))
        total = (
            hs.m_invariant(u, v)
            + hs.m_invariant(v, w)
            + hs.m_invariant(w, u)
        )
        if total != round(total):
            break
    else:  # pragma: no cover - depends on roundoff
        pytest.skip("every sampled sum happened to be exactly integral")
    with pytest.raises(NonIntegerSum):
        hs.triple_index(u, v, w)


def test_triple_depends_only_on_omega(rng):
    s1, s2 = sampling.matched_omega_spaces(2, rng)
    m_differences = []
    for _ in range(10):
        bases = [sampling.random_lagrangian(s1, rng).basis for _ in range(3)]
        first = [hs.lagrangian_from_basis(s1, b) for b in bases]
        second = [hs.lagrangian_from_basis(s2, b) for b in bases]
        assert hs.triple_index(*first) == hs.triple_index(
            *second
        )
        m_differences.append(
            abs(
                hs.m_invariant(first[0], first[1])
                - hs.m_invariant(second[0], second[1])
            )
        )
    # the individual pair invariants do depend on the inner product
    assert max(m_differences) > 1e-6


def test_eta_correction_collapses_for_distinguished_boundary(rng):
    space = sampling.random_space(2, rng)
    vx = sampling.random_lagrangian(space, rng)
    vy = sampling.random_lagrangian(space, rng)
    m_part, integer = hs.eta_correction_rhs(vx, vy, vx, vy)
    assert integer == 0
    assert abs(m_part - hs.m_invariant(vx, vy)) < 1e-12


def test_eta_correction_internal_identity(rng):
    space = sampling.random_space(2, rng)
    for _ in range(10):
        vx, vy, wx, wy = (
            sampling.random_lagrangian(space, rng) for _ in range(4)
        )
        m_part, integer = hs.eta_correction_rhs(vx, vy, wx, wy)
        chain = (
            hs.m_invariant(vx, vy)
            - hs.m_invariant(hs.gamma_image(vx), wx)
            + hs.m_invariant(hs.gamma_image(vy), wy)
            - m_part
        )
        assert abs(chain - integer) < 1e-8


def test_eta_correction_second_triple_vanishes_for_wx_gamma_vx(rng):
    # With WX = gamma(VX) the second triple has a repeated-pattern argument
    # and vanishes, so the full expression equals the first triple alone.
    space = sampling.random_space(2, rng)
    vx = sampling.random_lagrangian(space, rng)
    vy = sampling.random_lagrangian(space, rng)
    wy = sampling.random_lagrangian(space, rng)
    wx = hs.gamma_image(vx)
    _, integer = hs.eta_correction_rhs(vx, vy, wx, wy)
    first = hs.triple_index(vx, vy, hs.gamma_image(wy))
    second = hs.triple_index(hs.gamma_image(vx), wx, wy)
    assert second == 0
    assert integer == first


def test_eta_correction_evaluates_each_distinct_pair_once(rng, monkeypatch):
    space = sampling.random_space(2, rng)
    vx, vy, wx, wy = (sampling.random_lagrangian(space, rng) for _ in range(4))
    g_vx, g_vy, g_wy = (hs.gamma_image(x) for x in (vx, vy, wy))
    first = hs.m_invariant(vx, vy) + hs.m_invariant(vy, g_wy) + hs.m_invariant(g_wy, vx)
    second = hs.m_invariant(g_vx, wx) + hs.m_invariant(wx, wy) + hs.m_invariant(wy, g_vx)
    expected = (hs.m_invariant(wx, wy), round(first) - round(second))
    passes = []
    real_pair_values = maslov._pair_values

    def recording(space, pairs):
        passes.append(pairs)
        return real_pair_values(space, pairs)

    monkeypatch.setattr(maslov, "_pair_values", recording)
    assert hs.eta_correction_rhs(vx, vy, wx, wy) == expected
    assert len(passes) == 1
    pairs = passes[0]
    assert len(pairs) == 7
    # First triple, then second triple, then the one pair only the chain uses.
    assert pairs[0] == (vx, vy) and pairs[1][0] is vy and pairs[2][1] is vx
    assert pairs[3][1] is wx and pairs[4] == (wx, wy) and pairs[5][0] is wy
    assert pairs[6][1] is wy


def near(space, u, angles, frame):
    """A basis of the Lagrangian with graph unitary ``u frame diag(exp(i angles))
    frame^H``: its pair unitary against the graph of ``u`` has eigenvalues
    ``-exp(-i angles)``, the first ``angles[0]`` from -1 when that is small."""
    split = hs.eigensplit(space)
    unitary = u @ frame @ np.diag(np.exp(1j * np.asarray(angles))) @ frame.conj().T
    return split.plus_basis + split.minus_basis @ unitary


# the first angle lands the pair in the eigenvalue ambiguity band (1e-8, 1e-6),
# or excludes its eigenvalue at -1 while the spans' smallest singular value,
# about 2e-9, lies in the rank guard band (1e-9, 1e-7)
AMBIGUOUS, RANK_BAND = 1e-7, 5e-9


def eta_pairs(vx, vy, wx, wy):
    g_vx, g_vy, g_wy = (hs.gamma_image(x) for x in (vx, vy, wy))
    return [(vx, vy), (vy, g_wy), (g_wy, vx), (g_vx, wx), (wx, wy), (wy, g_vx), (g_vy, wy)]


def triple_loop(u, v, w):
    """The triple index as a loop of m_details over its pairs."""
    m_uv, m_vw, m_wu = (hs.m_details(a, b).value for a, b in ((u, v), (v, w), (w, u)))
    return maslov._rounded(m_uv + m_vw + m_wu, u.space.tol.int)


def eta_loop(vx, vy, wx, wy):
    """The correction term as a loop of m_details over its 7 pairs."""
    m = [hs.m_details(a, b).value for a, b in eta_pairs(vx, vy, wx, wy)]
    tol = vx.space.tol.int
    integer = maslov._rounded(m[0] + m[1] + m[2], tol) - maslov._rounded(m[3] + m[4] + m[5], tol)
    chain = m[0] - m[3] + m[6] - m[4]
    if abs(chain - integer) > tol:
        raise NonIntegerSum(f"correction chain {chain!r} disagrees with integer part {integer}")
    return m[4], integer


def assert_fails_like_the_loop(stacked, loop, space, raws):
    """Both routes, each on Lagrangians built anew from ``raws``, raise the same error."""
    with pytest.raises(HermsympError) as expected:
        loop(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
    with pytest.raises(type(expected.value)) as got:
        stacked(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert got.value.item is None
    return got.value


def failing_triple(rng, position, angle):
    space = sampling.random_space(2, rng)
    u, frame = sampling.random_unitary(2, rng), sampling.random_unitary(2, rng)
    base, close = near(space, u, [0.0, 0.0], frame), near(space, u, [angle, 0.9], frame)
    other = sampling.random_lagrangian(space, rng).basis
    # the pair (base, close) is the first, the middle or the last of the triple
    return space, {"first": (base, close, other), "middle": (other, base, close),
                   "last": (close, other, base)}[position]


def failing_eta(rng, position, angle):
    space = sampling.random_space(2, rng)
    vx, vy, wx = (sampling.random_lagrangian(space, rng) for _ in range(3))
    frame = sampling.random_unitary(2, rng)
    # pair 0 is (VX, VY) and pair 4 (WX, WY); pair 6, (gamma VY, WY), has its
    # gamma image (VY, gamma WY) as pair 1
    graph = {"first": vx, "middle": wx, "last": hs.gamma_image(vy)}[position]
    close = near(space, hs.phi_of(graph), [angle, 0.9], frame)
    if position == "first":
        return space, (vx.basis, close, wx.basis, sampling.random_lagrangian(space, rng).basis)
    return space, (vx.basis, vy.basis, wx.basis, close)


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize(
    "angle,error", [(AMBIGUOUS, EigenvalueAmbiguity), (RANK_BAND, RankAmbiguity)]
)
def test_failing_pair_raises_what_a_loop_of_m_details_raises(rng, position, angle, error):
    got = assert_fails_like_the_loop(
        hs.triple_index, triple_loop, *failing_triple(rng, position, angle)
    )
    assert type(got) is error
    got = assert_fails_like_the_loop(
        hs.eta_correction_rhs, eta_loop, *failing_eta(rng, position, angle)
    )
    assert type(got) is error


def test_first_failing_pair_wins_over_an_earlier_check_of_a_later_pair(rng):
    # Pair 0 fails the rank guard band, a late check, and pairs 1 and 2 the
    # eigenvalue band, an early one: a stacked pass meets the band first, the
    # loop meets pair 0 first.
    space = sampling.random_space(2, rng)
    u, frame = sampling.random_unitary(2, rng), sampling.random_unitary(2, rng)
    angles = ([0.0, 0.0], [RANK_BAND, 0.9], [AMBIGUOUS, 0.5])
    raws = [near(space, u, a, frame) for a in angles]
    got = assert_fails_like_the_loop(hs.triple_index, triple_loop, space, raws)
    assert type(got) is RankAmbiguity


def eta_integrality_failure(fragment, same_v):
    """A space under ``int=1e-18`` and raw bases on which the loop fails the
    integrality check whose message starts with ``fragment``.  With k = 1,
    m(V, W) = -m(W, V) exactly, so ``VY = VX`` makes the first triple sum 0."""
    tight = hs.Tolerances(int=1e-18)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        space = dataclasses.replace(sampling.random_space(1, rng), tol=tight)
        vx, vy, wx, wy = (sampling.random_lagrangian(space, rng).basis for _ in range(4))
        raws = (vx, vx if same_v else vy, wx, wy)
        try:
            eta_loop(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
        except NonIntegerSum as exc:
            if str(exc).startswith(fragment):
                return space, raws
    pytest.skip(f"no sampled case fails the check {fragment!r}")  # pragma: no cover


@pytest.mark.parametrize(
    "fragment,same_v", [("triple index sum", False), ("triple index sum", True),
                        ("correction chain", True)]
)
def test_integrality_failure_matches_the_loop(fragment, same_v):
    # the first triple, the second (the first one being exact) and the chain
    space, raws = eta_integrality_failure(fragment, same_v)
    got = assert_fails_like_the_loop(hs.eta_correction_rhs, eta_loop, space, raws)
    assert type(got) is NonIntegerSum
    if not same_v:
        got = assert_fails_like_the_loop(hs.triple_index, triple_loop, space, raws[:3])
        assert type(got) is NonIntegerSum


@pytest.mark.parametrize("k", [0, 1, 2, 4, 8, 16])
def test_stacked_pairs_are_bit_identical_to_m_invariant(k, monkeypatch):
    rng = np.random.default_rng(k)
    space = sampling.random_space(k, rng)
    raws = [sampling.random_lagrangian(space, rng).basis for _ in range(4)]

    def fresh():
        return [hs.lagrangian_from_basis(space, raw) for raw in raws]

    passes = []
    real_pair_values = maslov._pair_values

    def recording(space, pairs):
        passes.append((pairs, real_pair_values(space, pairs)))
        return passes[-1][1]

    monkeypatch.setattr(maslov, "_pair_values", recording)
    hs.triple_index(*fresh()[:3])
    m_wx_wy, _ = hs.eta_correction_rhs(*fresh())
    monkeypatch.undo()
    u, v, w, _ = fresh()
    expected = [[(u, v), (v, w), (w, u)], eta_pairs(*fresh())]
    assert m_wx_wy == hs.m_invariant(*expected[1][4])
    for (pairs, values), copies in zip(passes, expected):
        assert values.tolist() == [hs.m_invariant(a, b) for a, b in copies]
        # the Lagrangians of the stacked pass keep the graph maps of their copies
        for pair, twin in zip(pairs, copies):
            for lagr, copy in zip(pair, twin):
                assert np.array_equal(hs.phi_of(lagr), hs.phi_of(copy))


def test_triple_and_correction_make_one_batch_of_lapack_calls(rng, monkeypatch):
    space = sampling.random_space(3, rng)
    hs.eigensplit(space)
    lagrangians = [sampling.random_lagrangian(space, rng) for _ in range(4)]
    fresh = [hs.lagrangian_from_basis(space, x.basis) for x in lagrangians]
    counts = {"eigvals": 0, "svd": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    hs.triple_index(*fresh[:3])
    # one eigvals for the 3 pair spectra; one svd for the graph maps of the
    # 3 new Lagrangians and one for the 3 intersection dimensions
    assert counts == {"eigvals": 1, "svd": 2}
    hs.eta_correction_rhs(*fresh)
    # the gamma images are new: one more graph-map svd for the 7 pairs
    assert counts == {"eigvals": 2, "svd": 4}


def test_different_spaces_rejected(rng):
    a = sampling.random_space(2, rng)
    b = sampling.random_space(2, rng)
    la = sampling.random_lagrangian(a, rng)
    lb = sampling.random_lagrangian(b, rng)
    with pytest.raises(hs.ValidationError):
        hs.m_invariant(la, lb)
