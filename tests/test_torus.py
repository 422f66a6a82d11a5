"""Flat-torus model: closed form against the generic spectral algorithm."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermsymp as hs
from hermsymp.errors import BranchCut, ValidationError
from hermsymp.torus import (
    TORUS_AREA,
    IntegerPairLagrangian,
    TorusModel,
    torus_m_closed_form,
    torus_m_sweep,
    variation_expected,
)

nonzero_pairs = st.tuples(
    st.integers(-10, 10), st.integers(-10, 10)
).filter(lambda p: p != (0, 0))


def wrap_angle(theta: float) -> float:
    """Reduce an angle into the branch interval (-pi, pi]."""
    w = math.remainder(theta, 2.0 * math.pi)
    if w <= -math.pi:
        w = math.pi
    return w


@pytest.mark.parametrize("t", [0.01, 0.3, 1.0, 7.5, 100.0])
def test_model_matrices_and_validity(t):
    model = TorusModel(t)
    expected_gram = TORUS_AREA * np.diag([t, t, 1.0 / t, 1.0 / t])
    assert np.allclose(model.space.gram, expected_gram, atol=0)
    gamma = model.space.gamma
    basis_one = np.array([1.0, 0, 0, 0])
    assert np.allclose(gamma @ basis_one, [0, 0, 0, t])  # 1 -> t dx^dy
    assert np.allclose(gamma[:, 1], [0, 0, t, 0])  # dx -> t dy
    assert np.allclose(gamma[:, 2], [0, -1.0 / t, 0, 0])  # dy -> -dx/t
    assert np.allclose(gamma[:, 3], [-1.0 / t, 0, 0, 0])  # dx^dy -> -1/t
    assert hs.validate_space(model.space).passed


def test_invalid_parameters():
    with pytest.raises(ValidationError):
        TorusModel(0.0)
    with pytest.raises(ValidationError):
        TorusModel(-1.0)
    with pytest.raises(ValidationError):
        IntegerPairLagrangian(0, 0)
    with pytest.raises(ValidationError):
        IntegerPairLagrangian(1.5, 0)


def test_integer_pair_entries_are_integral_but_not_bool():
    pair = IntegerPairLagrangian(np.int64(2), np.int64(-3))
    assert (pair.a, pair.b) == (2, -3) and type(pair.a) is int
    for bad in (True, 1.0):
        with pytest.raises(ValidationError):
            IntegerPairLagrangian(bad, 1)


@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_eigensplit_matches_known_eigenvectors(t):
    # (1 -/+ i t dx^dy) and (dx -/+ i t dy) span the +i/-i eigenspaces.
    model = TorusModel(t)
    split = hs.eigensplit(model.space)
    norm = math.sqrt(2.0 * TORUS_AREA * t)
    expected_plus = np.zeros((4, 2), dtype=complex)
    expected_plus[0, 0] = 1.0 / norm
    expected_plus[3, 0] = -1j * t / norm
    expected_plus[1, 1] = 1.0 / norm
    expected_plus[2, 1] = -1j * t / norm
    expected_minus = expected_plus.conj()
    assert np.max(np.abs(split.plus_basis - expected_plus)) < 1e-12
    assert np.max(np.abs(split.minus_basis - expected_minus)) < 1e-12


@pytest.mark.parametrize(
    "a,b,t", [(1, 1, 1.0), (2, -3, 0.7), (0, 1, 2.0), (5, 4, 0.1)]
)
def test_phi_of_integer_line(a, b, t):
    # The graph map is diag(1, (i t a + b)/(i t a - b)) in the split bases.
    model = TorusModel(t)
    phi = hs.phi_of(model.lagrangian(a, b))
    expected = complex(b, t * a) / complex(-b, t * a)
    assert abs(phi[0, 0] - 1.0) < 1e-12
    assert abs(phi[1, 1] - expected) < 1e-12
    assert abs(phi[0, 1]) < 1e-12 and abs(phi[1, 0]) < 1e-12


def test_closed_form_spot_value():
    assert abs(torus_m_closed_form(1, 1, 1, 0, 1.0) + 0.5) < 1e-12


def test_closed_form_equal_pairs_zero():
    for t in (0.1, 1.0, 3.7):
        assert torus_m_closed_form(2, 3, 2, 3, t) == 0.0
        assert torus_m_closed_form(1, -1, -2, 2, t) == 0.0  # proportional spans


def test_closed_form_b_zero_specialization():
    # With B = 0 the formula reduces to
    # -1 + dim - (1/(pi i)) log((b + i t a)/(b - i t a)).
    for (a, b, t) in [(1, 1, 0.5), (2, -3, 1.9), (-4, 7, 0.2)]:
        direct = torus_m_closed_form(a, b, 1, 0, t)
        log_term = cmath.log(complex(b, t * a) / complex(b, -t * a))
        reduced = -1.0 + 1.0 - (log_term / (math.pi * 1j)).real
        assert abs(direct - reduced) < 1e-12


def test_log_equals_argument_of_square():
    # log((b + i t a)/(b - i t a)) has imaginary part equal to the argument
    # of (b + i t a)^2, i.e. 2 atan2(t a, b) wrapped into (-pi, pi].
    for (a, b, t) in [(1, 1, 1.0), (3, 2, 0.4), (-2, 5, 2.5), (4, -1, 1.3)]:
        log_term = cmath.log(complex(b, t * a) / complex(b, -t * a))
        wrapped = wrap_angle(2.0 * math.atan2(t * a, b))
        assert abs(log_term.imag - wrapped) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(first=nonzero_pairs, second=nonzero_pairs, t=st.floats(0.1, 10.0))
def test_closed_form_matches_generic(first, second, t):
    a, b = first
    A, B = second
    model = TorusModel(t)
    generic = hs.m_invariant(
        model.lagrangian(a, b), model.lagrangian(A, B)
    )
    closed = torus_m_closed_form(a, b, A, B, t)
    assert abs(closed - generic) < 1e-9


def test_sweep_metric_dependence():
    result = torus_m_sweep(1, 1, 1, 0, [0.5, 1.0, 2.0])
    values = [row.m_generic for row in result.rows]
    assert result.max_delta < 1e-9
    assert result.varies
    gaps = [abs(values[i] - values[j]) for i in range(3) for j in range(i)]
    assert min(gaps) > 1e-3


def test_sweep_degenerate_direction_reported():
    # a*b = 0: the variation argument does not apply; just record what the
    # sweep sees and that the two routes agree.
    result = torus_m_sweep(1, 0, 0, 1, [0.5, 1.0, 2.0])
    assert result.max_delta < 1e-9
    assert not variation_expected(1, 0, 0, 1)
    values = [row.m_generic for row in result.rows]
    assert max(values) - min(values) < 1e-12  # constant in t here


def test_sweep_scaled_pair_identical():
    base = torus_m_sweep(2, 3, 1, 0, [0.5, 1.0, 2.0])
    scaled = torus_m_sweep(4, 6, 1, 0, [0.5, 1.0, 2.0])
    for row_a, row_b in zip(base.rows, scaled.rows):
        assert abs(row_a.m_generic - row_b.m_generic) < 1e-12
        assert row_a.m_closed == row_b.m_closed


def test_gcd_reduction_is_noop_on_the_invariant():
    pair = IntegerPairLagrangian(4, -6)
    reduced = pair.reduced()
    assert (reduced.a, reduced.b) == (2, -3)
    model = TorusModel(1.3)
    assert (
        hs.subspace_distance(model.lagrangian(pair), model.lagrangian(reduced))
        < 1e-12
    )


def test_variation_expected_flag():
    assert variation_expected(1, 1, 1, 0)
    assert not variation_expected(1, 0, 0, 1)  # a*b = 0
    assert not variation_expected(2, 3, 4, 6)  # parallel


def test_branch_cut_raised_near_discontinuity():
    # Huge nearly-parallel integer pairs push the log argument within the
    # guard distance of -1 without being exactly parallel.
    with pytest.raises(BranchCut):
        torus_m_closed_form(10**9, 1, 10**9, 0, 1.0)
