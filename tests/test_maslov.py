"""Pair invariant, triple index, and their algebraic identities."""
import dataclasses

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import maslov, sampling
from hermsymp.errors import EigenvalueAmbiguity, NonIntegerSum
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
    pairs = []
    real_m_details = maslov.m_details

    def counting(v, w):
        pairs.append((v, w))
        return real_m_details(v, w)

    monkeypatch.setattr(maslov, "m_details", counting)
    assert hs.eta_correction_rhs(vx, vy, wx, wy) == expected
    assert len(pairs) == 7
    # First triple, then second triple, then the one pair only the chain uses.
    assert pairs[0] == (vx, vy) and pairs[1][0] is vy and pairs[2][1] is vx
    assert pairs[3][1] is wx and pairs[4] == (wx, wy) and pairs[5][0] is wy
    assert pairs[6][1] is wy


def test_different_spaces_rejected(rng):
    a = sampling.random_space(2, rng)
    b = sampling.random_space(2, rng)
    la = sampling.random_lagrangian(a, rng)
    lb = sampling.random_lagrangian(b, rng)
    with pytest.raises(hs.ValidationError):
        hs.m_invariant(la, lb)
