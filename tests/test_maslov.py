"""Pair invariant, triple index, and their algebraic identities."""
import concurrent.futures
import contextlib
import dataclasses
import inspect
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

import hermsymp as hs
from hermsymp import linalg, maslov, sampling, spaces
from hermsymp.errors import EigenvalueAmbiguity, HermsympError, NonIntegerSum
from hermsymp.torus import TorusModel
from test_spaces import rank_band_dim


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


@pytest.mark.parametrize("spread", [4.0, 1e3])
@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_eigenvalue_distances_from_minus_one_are_twice_the_principal_sines(k, spread):
    # |lambda + 1| = 2 sin(theta) over the principal angles theta of V and W,
    # so the count excluded at -1 is dim(V & W), which the rank-band oracle
    # decides from the sines.  The worst gap on these 216 pairs is
    # 6.1 eps cond(U).
    rng = np.random.default_rng([k, int(spread), 21])
    eps = np.finfo(float).eps
    for d in range(k + 1):
        for _ in range(3):
            space = sampling.random_space(k, rng, spread=spread)
            v, w = sampling.random_lagrangian_pair(space, rng, d)
            details = hs.m_details(v, w)
            distances = np.sort(np.abs(np.array(details.eigenvalues) + 1.0))
            sines = spaces._principal_sines(*(space._upper @ x.basis for x in (v, w)))
            assert np.abs(distances - np.sort(2.0 * sines)).max() <= 32 * eps * space._cond
            assert details.intersection_dim == rank_band_dim(v, w) == d


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
    # triple_index is an exact signature with no sum left to guard; the one
    # integrality guard left is the correction's, on its chain of four pair
    # invariants against the integer.  With an absurdly tight guard the
    # roundoff in an honest chain trips it; this exercises the NonIntegerSum
    # path.
    space = sampling.random_space(3, rng)
    tight = dataclasses.replace(space, tol=hs.Tolerances(int=1e-18))
    for _ in range(50):
        raws = [sampling.random_lagrangian(space, rng).basis for _ in range(4)]
        try:
            hs.eta_correction_rhs(*(hs.lagrangian_from_basis(tight, raw) for raw in raws))
        except NonIntegerSum as exc:
            error = str(exc)
            break
    else:  # pragma: no cover - depends on roundoff
        pytest.skip("every sampled chain happened to be exactly integral")
    _, integer = hs.eta_correction_rhs(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
    assert error.startswith("correction chain ")
    assert error.endswith(f" disagrees with integer part {integer}")


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


def kashiwara_form(u, v, w):
    """The Hermitian 3k x 3k matrix of ``omega(x, y) + omega(y, z) + omega(z, x)``
    on U + V + W: the blocks ``C_UV = Q_U^H gamma_w Q_V`` of the cyclic pairs in
    the whitened orthonormal bases Q, and their adjoints as the mirror blocks."""
    space = u.space
    upper = np.linalg.cholesky(space.gram).conj().T
    gamma_w = upper @ space.gamma @ np.linalg.inv(upper)
    q_u, q_v, q_w = (upper @ x.basis for x in (u, v, w))
    c_uv, c_vw, c_wu = (a.conj().T @ gamma_w @ b for a, b in ((q_u, q_v), (q_v, q_w), (q_w, q_u)))
    zero = np.zeros_like(c_uv)
    return np.block([
        [zero, c_uv, c_wu.conj().T],
        [c_uv.conj().T, zero, c_vw],
        [c_wu, c_vw.conj().T, zero],
    ])


@pytest.mark.parametrize("k", range(1, 9))
def test_triple_index_is_minus_the_signature_of_the_kashiwara_form(k):
    # An oracle that shares no code with the pair route: triple_index is
    # -(n_+ - n_-) of the form's eigenvalues, with pairs meeting in dimension
    # 0, 1 and 2 and with a repeated Lagrangian.
    rng = np.random.default_rng([k, 17])
    for intersection in range(min(k, 2) + 1):
        for _ in range(3):
            space = sampling.random_space(k, rng)
            u, v = sampling.random_lagrangian_pair(space, rng, intersection)
            w = sampling.random_lagrangian(space, rng)
            for triple in ((u, v, w), (w, u, v), (u, w, w)):
                form = kashiwara_form(*triple)
                assert np.abs(form - form.conj().T).max() < 1e-12
                eigs = np.linalg.eigvalsh(form)
                cut = 1e-8 * np.abs(eigs).max()
                n_plus, n_minus = int((eigs > cut).sum()), int((eigs < -cut).sum())
                assert hs.triple_index(*triple) == -(n_plus - n_minus)


def exact_signature(h):
    """Signature of a Hermitian matrix of Gaussian integers, by symmetric
    elimination over ``Fraction`` on its real form ``[[Re, -Im], [Im, Re]]``,
    whose signature is twice that of ``h``."""
    re, im = h.real.astype(int), h.imag.astype(int)
    a = [[Fraction(int(x)) for x in row] for row in np.block([[re, -im], [im, re]])]
    signature = 0
    while a:
        n = len(a)
        pivot = next((i for i in range(n) if a[i][i]), None)
        if pivot is None:
            entry = next(((i, j) for i in range(n) for j in range(n) if a[i][j]), None)
            if entry is None:
                break  # the rest is null
            # the congruence x_i -> x_i + x_j makes a_ii = 2 a_ij, not zero
            i, j = entry
            for row in a:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            pivot = i
        d = a[pivot][pivot]
        signature += 1 if d > 0 else -1
        a = [
            [a[r][c] - a[r][pivot] * a[pivot][c] / d for c in range(n) if c != pivot]
            for r in range(n)
            if r != pivot
        ]
    assert signature % 2 == 0
    return signature // 2


def gaussian_hermitian(k, rng):
    a = rng.integers(-3, 4, (k, k)) + 1j * rng.integers(-3, 4, (k, k))
    return a + a.conj().T


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_triple_index_of_graphs_is_the_sum_of_signatures(k):
    # L_H = span [I; H] on the standard space: the triple index is
    # sig(H2 - H1) + sig(H3 - H2) + sig(H1 - H3), each signature exact.  The
    # last draws differ by rank-one steps v v^H, so the graphs meet.
    rng = np.random.default_rng([k, 18])
    space = hs.standard_space(k)
    draws = [[gaussian_hermitian(k, rng) for _ in range(3)] for _ in range(6)]
    for draw in draws[-2:]:
        v = rng.integers(-2, 3, (k, 1)) + 1j * rng.integers(-2, 3, (k, 1))
        draw[1] = draw[0] + v @ v.conj().T
    for h1, h2, h3 in draws:
        graphs = [hs.lagrangian_from_basis(space, np.vstack([np.eye(k), h])) for h in (h1, h2, h3)]
        expected = exact_signature(h2 - h1) + exact_signature(h3 - h2) + exact_signature(h1 - h3)
        assert hs.triple_index(*graphs) == expected


def test_exact_signature_counts_each_sign():
    assert exact_signature(np.diag([1, -2, 0, 3]).astype(complex)) == 1
    assert exact_signature(np.array([[0, 1j], [-1j, 0]])) == 0
    assert exact_signature(np.zeros((2, 2), dtype=complex)) == 0
    assert exact_signature(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)) == 1


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


@pytest.mark.parametrize("position", [0, 1, 3])
def test_eta_correction_rejects_a_nan_in_a_gamma_imaged_basis(rng, position):
    # VX, VY and WY reach the span check as gamma images, and a NaN residual
    # fails it, before numpy's eigensolvers see the NaN
    space = sampling.random_space(2, rng)
    chain = [sampling.random_lagrangian(space, rng) for _ in range(4)]
    basis = np.array(chain[position].basis)
    basis[1, 0] = np.nan
    chain[position] = hs.Lagrangian(space, basis)
    with pytest.raises(hs.LagrangianValidationError, match="residual nan$"):
        hs.eta_correction_rhs(*chain)


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
    # the integer comes from the Kashiwara forms of the two triples; one
    # stacked pass evaluates the 4 pairs of the chain, mapping each of its 6
    # whitened bases once
    space = sampling.random_space(2, rng)
    vx, vy, wx, wy = (sampling.random_lagrangian(space, rng) for _ in range(4))
    g_vx, g_vy, g_wy = (hs.gamma_image(x) for x in (vx, vy, wy))
    first = hs.m_invariant(vx, vy) + hs.m_invariant(vy, g_wy) + hs.m_invariant(g_wy, vx)
    second = hs.m_invariant(g_vx, wx) + hs.m_invariant(wx, wy) + hs.m_invariant(wy, g_vx)
    expected = (hs.m_invariant(wx, wy), round(first) - round(second))
    passes = []
    real_pair_values = maslov._pair_values

    def recording(space, q, first, second):
        passes.append((q, list(zip(first, second))))
        return real_pair_values(space, q, first, second)

    monkeypatch.setattr(maslov, "_pair_values", recording)
    assert hs.eta_correction_rhs(vx, vy, wx, wy) == expected
    assert len(passes) == 1
    q, pairs = passes[0]
    # VX, VY, WX, WY, then the gamma images of VX and VY; the pairs of the
    # chain m(VX,VY) - m(gamma VX, WX) + m(gamma VY, WY) - m(WX,WY)
    assert q.shape == (6, 4, 2)
    assert list(pairs) == [(0, 1), (4, 2), (5, 3), (2, 3)]
    for basis, lagr in zip(q, (vx, vy, wx, wy, g_vx, g_vy)):
        assert hs.subspace_distance(lagr, hs.Lagrangian(space, space._upper_inv @ basis)) < 1e-12


def near(space, u, angles, frame):
    """A basis of the Lagrangian with graph unitary ``u frame diag(exp(i angles))
    frame^H``: its pair unitary against the graph of ``u`` has eigenvalues
    ``-exp(-i angles)``, the first ``angles[0]`` from -1 when that is small."""
    split = hs.eigensplit(space)
    unitary = u @ frame @ np.diag(np.exp(1j * np.asarray(angles))) @ frame.conj().T
    return split.plus_basis + split.minus_basis @ unitary


# the first angle lands the pair in the eigenvalue ambiguity band (1e-8, 1e-6),
# or within tol.eig of -1, where its eigenvalue is excluded
AMBIGUOUS, EXCLUDED = 1e-7, 5e-9


def eta_pairs(vx, vy, wx, wy):
    g_vx, g_vy, g_wy = (hs.gamma_image(x) for x in (vx, vy, wy))
    return [(vx, vy), (vy, g_wy), (g_wy, vx), (g_vx, wx), (wx, wy), (wy, g_vx), (g_vy, wy)]


def rounded(total, tol):
    """The integrality guard of the m-sum route: the nearest integer, or NonIntegerSum."""
    nearest = round(total)
    if abs(total - nearest) > tol:
        raise NonIntegerSum(
            f"triple index sum {total!r} is {abs(total - nearest):.3e} from an integer"
        )
    return int(nearest)


def triple_loop(u, v, w):
    """The triple index as a loop of m_details over its pairs."""
    m_uv, m_vw, m_wu = (hs.m_details(a, b).value for a, b in ((u, v), (v, w), (w, u)))
    return rounded(m_uv + m_vw + m_wu, u.space.tol.int)


def eta_loop(vx, vy, wx, wy):
    """The correction term as a loop of m_details over its 7 pairs."""
    m = [hs.m_details(a, b).value for a, b in eta_pairs(vx, vy, wx, wy)]
    tol = vx.space.tol.int
    integer = rounded(m[0] + m[1] + m[2], tol) - rounded(m[3] + m[4] + m[5], tol)
    chain = m[0] - m[3] + m[6] - m[4]
    if abs(chain - integer) > tol:
        raise NonIntegerSum(f"correction chain {chain!r} disagrees with integer part {integer}")
    return m[4], integer


def assert_fails_like_the_loop(stacked, loop, space, raws, message):
    """Both routes, each on Lagrangians built anew from ``raws``, raise the
    same type of error; the stacked route with a message matching ``message``."""
    with pytest.raises(HermsympError) as expected:
        loop(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
    with pytest.raises(type(expected.value), match=message) as got:
        stacked(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
    assert type(got.value) is type(expected.value)
    assert got.value.item is None
    return got.value


def close_triple(rng, position, angle, k=2):
    space = sampling.random_space(k, rng)
    u, frame = sampling.random_unitary(k, rng), sampling.random_unitary(k, rng)
    base = near(space, u, [0.0] * k, frame)
    close = near(space, u, [angle] + [0.9] * (k - 1), frame)
    other = sampling.random_lagrangian(space, rng).basis
    # the pair (base, close) is the first, the middle or the last of the triple
    return space, {"first": (base, close, other), "middle": (other, base, close),
                   "last": (close, other, base)}[position]


def close_eta(rng, position, angle):
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


# the message of the Kashiwara form's band at the default tol.eig = 1e-8
KASHIWARA_BAND = (
    r"^Kashiwara form eigenvalue (\S+) lies inside the ambiguity band \(5\.0e-09, 5\.0e-07\) "
)


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("angle,error", [(AMBIGUOUS, EigenvalueAmbiguity)])
def test_failing_pair_raises_what_a_loop_of_m_details_raises(rng, position, angle, error):
    # The loop's pair tail meets the eigenvalue |lambda + 1| = angle.  The
    # Kashiwara form of the triple, and of the correction triple holding the
    # close pair, has an eigenvalue mu with |mu| = angle / 2 inside its band:
    # the same type of error, with the form's message.
    for stacked, loop, (space, raws) in (
        (hs.triple_index, triple_loop, close_triple(rng, position, angle)),
        (hs.eta_correction_rhs, eta_loop, close_eta(rng, position, angle)),
    ):
        got = assert_fails_like_the_loop(stacked, loop, space, raws, KASHIWARA_BAND)
        assert type(got) is error
        mu = float(re.match(KASHIWARA_BAND, str(got)).group(1))
        assert abs(abs(mu) - angle / 2) <= 1e-3 * angle


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_pair_just_excluded_at_minus_one_gives_the_loop_value(rng, position):
    # the eigenvalue within tol.eig of -1 is excluded on both routes, which
    # give the same values to the bit
    for stacked, loop, (space, raws) in (
        (hs.triple_index, triple_loop, close_triple(rng, position, EXCLUDED)),
        (hs.eta_correction_rhs, eta_loop, close_eta(rng, position, EXCLUDED)),
    ):
        got = stacked(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
        assert got == loop(*(hs.lagrangian_from_basis(space, raw) for raw in raws))


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_pair_excluded_at_minus_one_inside_a_triple_gives_the_loops_integer(k, position):
    # |lambda + 1| = EXCLUDED puts an eigenvalue of the Kashiwara form at
    # EXCLUDED / 2, null within tol.eig / 2, as the loop excludes lambda
    rng = np.random.default_rng([k, 22])
    space, raws = close_triple(rng, position, EXCLUDED, k)
    triple = [hs.lagrangian_from_basis(space, raw) for raw in raws]
    assert hs.triple_index(*triple) == triple_loop(*triple)


@pytest.mark.parametrize("spread", [4.0, 1e3])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_a_near_meeting_puts_an_eigenvalue_of_the_form_at_half_the_distance_from_minus_one(
    k, spread, monkeypatch
):
    # Where two Lagrangians nearly meet, the Kashiwara form's smallest
    # eigenvalue is |lambda + 1| / 2 of their pair unitary, the principal-angle
    # sine: so its bands are the pair tail's bands at -1, halved.  The worst
    # relative gap is 2.2e-4 over 10 seeds a cell.
    spectra = []
    real = linalg.eigvalsh
    monkeypatch.setattr(linalg, "eigvalsh", lambda a: spectra.append(real(a)) or spectra[-1])
    for seed in range(3):
        for angle in (AMBIGUOUS, 3e-6):
            rng = np.random.default_rng([k, int(spread), seed])
            space = sampling.random_space(k, rng, spread=spread)
            u, frame = sampling.random_unitary(k, rng), sampling.random_unitary(k, rng)
            raws = (
                near(space, u, [0.0] * k, frame),
                near(space, u, [angle] + [0.9] * (k - 1), frame),
                sampling.random_lagrangian(space, rng).basis,
            )
            base, close, other = (hs.lagrangian_from_basis(space, raw) for raw in raws)
            band = angle == AMBIGUOUS
            with pytest.raises(EigenvalueAmbiguity) if band else contextlib.nullcontext():
                hs.triple_index(base, close, other)
            pair = linalg.eigvals(-hs.phi_of(base) @ hs.phi_of(close).conj().T)
            half = np.abs(pair + 1.0).min() / 2
            assert abs(np.abs(spectra[-1]).min() - half) <= 1e-3 * half


@pytest.mark.parametrize("spread", [4.0, 1e3, 1e4])
@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_triple_index_is_the_m_sum_loop(k, spread):
    # the signature of the Kashiwara form against the rounded sum of pair
    # invariants it replaced, with pairs meeting in dimension 0, 1 and 2 and
    # with W = U
    rng = np.random.default_rng([k, int(spread), 22])
    for d in range(min(k, 2) + 1):
        for _ in range(2):
            space = sampling.random_space(k, rng, spread=spread)
            u, v = sampling.random_lagrangian_pair(space, rng, d)
            w = sampling.random_lagrangian(space, rng)
            for triple in ((u, v, w), (w, u, v), (v, w, u), (u, v, u)):
                assert hs.triple_index(*triple) == triple_loop(*triple)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_triple_index_is_a_cocycle(k):
    # tau(a,b,c) - tau(a,b,d) + tau(a,c,d) - tau(b,c,d) = 0.  On the m-sum
    # route this follows from antisymmetry of m alone; the signatures of four
    # different forms have no such reason to cancel.
    rng = np.random.default_rng([k, 23])
    values = set()
    for d in range(min(k, 2) + 1):
        for _ in range(4):
            space = sampling.random_space(k, rng)
            a, b = sampling.random_lagrangian_pair(space, rng, d)
            c, e = (sampling.random_lagrangian(space, rng) for _ in range(2))
            for w, x, y, z in ((a, b, c, e), (c, a, e, b), (a, b, a, c)):
                taus = [hs.triple_index(*t) for t in ((w, x, y), (w, x, z), (w, y, z), (x, y, z))]
                assert taus[0] - taus[1] + taus[2] - taus[3] == 0
                values.update(taus)
    assert len(values) > 1


def test_first_failing_pair_wins_over_an_earlier_check_of_a_later_pair(rng):
    # Pair 0 fails the eigenvalue band of the pair tail, and pair 1 the check
    # that both operands share a space.  The loop meets pair 0 first;
    # triple_index makes the same-space checks before its one eigensolve.
    space = sampling.random_space(2, rng)
    other = dataclasses.replace(space, tol=hs.Tolerances(int=1e-5))
    u, frame = sampling.random_unitary(2, rng), sampling.random_unitary(2, rng)
    triple = [
        hs.lagrangian_from_basis(target, near(space, u, angles, frame))
        for target, angles in ((space, [0.0, 0.0]), (space, [AMBIGUOUS, 0.9]), (other, [0.5, 0.5]))
    ]
    with pytest.raises(hs.ValidationError, match="^operands live in different spaces$"):
        hs.m_details(*triple[1:])
    with pytest.raises(EigenvalueAmbiguity):
        triple_loop(*triple)
    with pytest.raises(HermsympError) as got:
        hs.triple_index(*triple)
    assert type(got.value) is hs.ValidationError
    assert str(got.value) == "operands live in different spaces"


def integrality_failure(loop, fragment, same_v, also=None):
    """A space under ``int=1e-18`` and raw bases on which ``loop``, over as many
    of them as it takes, fails the integrality check whose message starts with
    ``fragment``, and ``also``, if given, raises NonIntegerSum too.  With
    k = 1, m(V, W) = -m(W, V) exactly, so ``VY = VX`` makes the first triple
    sum 0."""
    tight = hs.Tolerances(int=1e-18)
    arity = len(inspect.signature(loop).parameters)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        space = dataclasses.replace(sampling.random_space(1, rng), tol=tight)
        vx, vy, wx, wy = (sampling.random_lagrangian(space, rng).basis for _ in range(4))
        raws = (vx, vx if same_v else vy, wx, wy)[:arity]
        try:
            loop(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
        except NonIntegerSum as exc:
            if not str(exc).startswith(fragment):
                continue
            if also is None:
                return space, raws
            try:
                also(*(hs.lagrangian_from_basis(space, raw) for raw in raws))
            except NonIntegerSum:
                return space, raws
    pytest.skip(f"no sampled case fails the check {fragment!r}")  # pragma: no cover


@pytest.mark.parametrize(
    "fragment,same_v", [("triple index sum", False), ("triple index sum", True),
                        ("correction chain", True)]
)
def test_integrality_failure_matches_the_loop(fragment, same_v):
    # The loop fails the check named by fragment: on the first triple, on the
    # second (the first one being exact), or on the chain; each routine on a
    # seed searched for its own loop, the correction's on one where it fails
    # too.  Its failure is the one integrality check it has left, its chain
    # guard, with the loop's error type.  triple_index, an exact signature,
    # has no guard to fail and returns the loop's integer at the default
    # guard, as both routes do on the correction.
    def built(space, raws):
        return [hs.lagrangian_from_basis(space, raw) for raw in raws]

    space, raws = integrality_failure(eta_loop, fragment, same_v, also=hs.eta_correction_rhs)
    got = assert_fails_like_the_loop(
        hs.eta_correction_rhs, eta_loop, space, raws, "^correction chain "
    )
    assert type(got) is NonIntegerSum
    default = dataclasses.replace(space, tol=hs.Tolerances())
    assert hs.eta_correction_rhs(*built(default, raws)) == eta_loop(*built(default, raws))
    if not same_v:
        space, raws = integrality_failure(triple_loop, fragment, same_v)
        default = dataclasses.replace(space, tol=hs.Tolerances())
        assert hs.triple_index(*built(space, raws)) == triple_loop(*built(default, raws))


@pytest.mark.parametrize("k", [0, 1, 2, 4, 8, 16])
def test_stacked_pairs_are_bit_identical_to_m_invariant(k, monkeypatch):
    # triple_index makes no pair pass.  The correction's pass gives the pairs
    # of its own Lagrangians the values of m_invariant to the bit; a gamma
    # image has the basis gamma_w U basis rather than gamma_image's QR, so its
    # pairs agree within 64 eps cond(U) (6.6 at worst over 200 draws, k up
    # to 16).
    rng = np.random.default_rng(k)
    space = sampling.random_space(k, rng)
    raws = [sampling.random_lagrangian(space, rng).basis for _ in range(4)]

    def fresh():
        return [hs.lagrangian_from_basis(space, raw) for raw in raws]

    passes = []
    real_pair_values = maslov._pair_values

    def recording(space, q, first, second):
        result = real_pair_values(space, q, first, second)
        passes.append((q, result[0]))
        return result

    monkeypatch.setattr(maslov, "_pair_values", recording)
    hs.triple_index(*fresh()[:3])
    assert passes == []
    m_wx_wy, _ = hs.eta_correction_rhs(*fresh())
    monkeypatch.undo()
    vx, vy, wx, wy = fresh()
    assert len(passes) == 1
    q, values = passes[0]
    # the stacked bases are those of m_invariant's copies to the bit
    for basis, copy in zip(q, (vx, vy, wx, wy)):
        assert np.array_equal(basis, space._upper @ copy.basis)
    assert m_wx_wy == values[3] == hs.m_invariant(wx, wy)
    assert values[0] == hs.m_invariant(vx, vy)
    gamma_pairs = [hs.m_invariant(hs.gamma_image(vx), wx), hs.m_invariant(hs.gamma_image(vy), wy)]
    bound = 64 * np.finfo(float).eps * (space._cond if k else 1.0)
    assert np.abs(values[1:3] - gamma_pairs).max(initial=0.0) <= bound


def test_triple_and_correction_make_one_batch_of_lapack_calls(rng, monkeypatch):
    space = sampling.random_space(3, rng)
    hs.eigensplit(space)
    lagrangians = [sampling.random_lagrangian(space, rng) for _ in range(4)]
    fresh = [hs.lagrangian_from_basis(space, x.basis) for x in lagrangians]
    counts = {"eigvals": 0, "svd": 0, "eigvalsh": 0, "inv": 0}
    # the LAPACK functions of hermsymp.linalg, through which every route calls
    for name, function in (("eigvals", "eigvals"), ("svd", "singular_values"),
                           ("eigvalsh", "eigvalsh"), ("inv", "inv")):
        real = getattr(linalg, function)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, function, counting)
    hs.triple_index(*fresh[:3])
    # one eigvalsh of the Kashiwara form, and no pair spectrum or graph map
    assert counts == {"eigvals": 0, "svd": 0, "eigvalsh": 1, "inv": 0}
    hs.eta_correction_rhs(*fresh)
    # one eigvalsh for both triples, one eigvals for the 4 pair spectra, one
    # inv for the 6 graph maps, and no svd: their Gram block clears the bases
    assert counts == {"eigvals": 1, "svd": 0, "eigvalsh": 2, "inv": 1}
    hs.m_details(*fresh[:2])
    # both sides of one pair in one graph-map pass: one inv, one eigvals
    assert counts == {"eigvals": 2, "svd": 0, "eigvalsh": 2, "inv": 2}


def test_different_spaces_rejected(rng):
    a = sampling.random_space(2, rng)
    b = sampling.random_space(2, rng)
    la = sampling.random_lagrangian(a, rng)
    lb = sampling.random_lagrangian(b, rng)
    with pytest.raises(hs.ValidationError):
        hs.m_invariant(la, lb)


def test_threads_sharing_a_space_get_the_serial_results_and_errors():
    # Each kernel sets its own error state on numpy's per-thread context
    # variable and resets it: four threads building Lagrangians and running
    # the pair passes on one space, one of them also making LAPACK fail, see
    # the values and errors of a serial run.  One shared np.errstate instance
    # would refuse a second thread's entry.
    rng = np.random.default_rng(28)
    base = sampling.random_space(3, rng, spread=1e2)
    raws = [
        sampling.random_lagrangian(base, rng).basis @ sampling.random_invertible(3, rng, 1e3)
        for _ in range(4)
    ]
    raws.append(rng.standard_normal((6, 3)))  # not Lagrangian
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)

    def outcome(call):
        try:
            value = call()
        except (HermsympError, np.linalg.LinAlgError) as exc:
            return type(exc).__name__, str(exc)
        return value.tobytes() if isinstance(value, np.ndarray) else value

    def work(space, j):
        seen = []
        for _ in range(10):
            order = raws[j:4] + raws[:j]
            lags = [spaces.lagrangian_from_basis(space, raw) for raw in order]
            seen += [lagr.basis.tobytes() for lagr in lags]
            seen.append(outcome(lambda: spaces.lagrangian_from_basis(space, raws[4])))
            seen.append(outcome(lambda: maslov.m_details(*lags[:2])))
            seen.append(outcome(lambda: maslov.triple_index(*lags[:3])))
            seen.append(outcome(lambda: maslov.eta_correction_rhs(*lags)))
            if j == 0:
                seen.append(outcome(lambda: linalg.inv(singular)))
        return seen

    serial = [work(base, j) for j in range(4)]
    assert ("LinAlgError", "Singular matrix") in serial[0]
    # a fresh space, so that the threads also race on its cached values
    shared = hs.HermitianSymplecticSpace(base.gram, base.gamma)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(work, [shared] * 4, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
