"""Flat-torus model: closed form against the generic spectral algorithm."""
import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermsymp as hs
from hermsymp import torus
from hermsymp.errors import (
    BranchCut,
    EigenvalueAmbiguity,
    SpaceValidationError,
    ValidationError,
)
from hermsymp.torus import (
    TORUS_AREA,
    IntegerPairLagrangian,
    TorusModel,
    torus_m_closed_form,
    torus_m_sweep,
    variation_expected,
)
from test_spaces import rank_band_dim

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


def test_entries_past_the_double_range_raise_typed_errors():
    # an entry with no finite float, and t * a past the double range
    with pytest.raises(ValidationError, match="a has no finite float value"):
        IntegerPairLagrangian(10**400, 1)
    with pytest.raises(ValidationError, match="b has no finite float value"):
        torus_m_sweep(1, 1, 1, -(10**400), [0.5, 1.0, 2.0])
    overflow = r"closed form overflows at t=10000000000\.0: log argument \(nan\+nanj\)"
    with pytest.raises(ValidationError, match=overflow):
        torus_m_closed_form(10**300, 1, 1, 0, 1e10)
    with pytest.raises(ValidationError, match="closed form overflows"):
        torus_m_closed_form(10, 1, 1, 0, 1e308)


@pytest.mark.parametrize("t", [1e308, 5e-324])
def test_stretch_near_the_double_range_fails_without_a_warning(t):
    # the matrices overflow; the suite turns warnings into errors, so only the
    # space's finiteness check may report it
    with pytest.raises(SpaceValidationError, match="must have finite entries"):
        TorusModel(t)
    with pytest.raises(SpaceValidationError, match="must have finite entries"):
        torus_m_sweep(10, 1, 1, 0, [t])


@pytest.mark.parametrize("t", [1e10, 1e18])
def test_sweep_of_a_line_past_the_square_root_of_the_double_range(t):
    # the generic route keeps both columns of the line, also where U b would
    # overflow (t = 1e18); the closed form overflows
    with pytest.raises(ValidationError, match="closed form overflows"):
        torus_m_sweep(10**300, 1, 1, 0, [t])


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


def scalar_generic(a, b, A, B, t):
    model = TorusModel(t)
    return hs.m_invariant(model.lagrangian(a, b), model.lagrangian(A, B))


def test_sweep_of_empty_grid():
    assert torus_m_sweep(1, 1, 1, 0, []).rows == ()
    assert torus_m_sweep(1, 1, 1, 0, np.array([])).rows == ()


# values with no float (float() raises TypeError or ValueError), one past the
# double range (OverflowError), one past the 4300 digits up to which Python
# gives an int's repr, and a 2-D array entry; text and bool, which float()
# reads, are no numbers either
NO_FLOAT = [
    pytest.param(None, id="None"), pytest.param(1j, id="complex"), pytest.param("x", id="str"),
    pytest.param(10**400, id="int-past-double-range"),
    pytest.param(10**5000, id="int-past-repr-limit"),
    pytest.param(np.ones((2, 2)), id="2d-array"),
    pytest.param("1", id="numeric-str"), pytest.param(b"1", id="numeric-bytes"),
    pytest.param(True, id="bool"), pytest.param(np.True_, id="numpy-bool"),
    pytest.param(bytearray(b"1"), id="numeric-bytearray"),
    pytest.param(memoryview(b"1"), id="numeric-memoryview"),
]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, *NO_FLOAT])
def test_sweep_rejects_bad_stretch(bad):
    with pytest.raises(ValidationError, match="stretch parameter must be positive"):
        torus_m_sweep(1, 1, 1, 0, [0.5, bad, 2.0])


@pytest.mark.parametrize("bad", NO_FLOAT)
def test_model_and_closed_form_reject_a_stretch_with_no_float(bad):
    with pytest.raises(ValidationError, match="stretch parameter must be positive"):
        TorusModel(bad)
    with pytest.raises(ValidationError, match="stretch parameter must be positive"):
        torus_m_closed_form(1, 2, 3, 4, bad)


def test_sweep_takes_any_iterable_and_keeps_each_t():
    grid = [0.25, 1, np.float64(3.5), 7.0]
    runs = [
        torus_m_sweep(2, 3, 1, -1, source)
        for source in (grid, tuple(grid), (t for t in grid), np.array(grid, dtype=float))
    ]
    for result in runs:
        assert result.rows == runs[0].rows
        assert [row.t for row in result.rows] == [float(t) for t in grid]
        assert all(type(row.t) is float for row in result.rows)


def test_sweep_of_parallel_pair_excludes_both_eigenvalues():
    # Both eigenvalues lie at -1: the excluded count is dim(V & W) = 2, which
    # the rank-band oracle finds from the principal-angle sines too.
    grid = np.logspace(-3, 3, 7)
    result = torus_m_sweep(2, 3, 4, 6, grid)
    assert all(row.m_generic == 0.0 and row.m_closed == 0.0 for row in result.rows)
    model = TorusModel(1.7)
    pair = model.lagrangian(2, 3), model.lagrangian(4, 6)
    details = hs.m_details(*pair)
    assert details.excluded == details.intersection_dim == rank_band_dim(*pair) == 2


def test_sweep_matches_scalar_route_on_log_grid():
    rng = np.random.default_rng(3)
    grid = np.logspace(-3, 3, 32)
    for _ in range(8):
        pair = tuple(int(x) for x in rng.integers(1, 6, 4) * rng.choice((-1, 1), 4))
        for row in torus_m_sweep(*pair, grid).rows:
            assert abs(row.m_generic - scalar_generic(*pair, row.t)) <= 1e-12


def test_sweep_chunks_long_grids(monkeypatch):
    sizes = []

    def recording(gram, *args):
        sizes.append(gram.shape)
        return hs.m_stack(gram, *args)

    monkeypatch.setattr(torus, "m_stack", recording)
    grid = np.geomspace(0.01, 100.0, torus.SWEEP_CHUNK + 3)
    result = torus_m_sweep(1, 2, 3, -1, grid)
    assert sizes == [(torus.SWEEP_CHUNK, 4, 4), (3, 4, 4)]
    for row in result.rows:
        assert abs(row.m_generic - scalar_generic(1, 2, 3, -1, row.t)) <= 1e-12


def test_sweep_error_names_chunk_and_item():
    # at t = 1e-8 the pair eigenvalue lies 1.8e-8 from -1: inside the band
    with pytest.raises(EigenvalueAmbiguity):
        scalar_generic(2, -3, 1, 4, 1e-8)
    grid = [1.0] * (torus.SWEEP_CHUNK + 5) + [1e-8]
    with pytest.raises(
        EigenvalueAmbiguity, match=f"chunk from grid point {torus.SWEEP_CHUNK}, item 5: "
    ) as exc:
        torus_m_sweep(2, -3, 1, 4, grid)
    assert exc.value.item == torus.SWEEP_CHUNK + 5


def per_point_rows(a, b, A, B, grid):
    """The sweep as a loop of the per-model route: generic, then closed form, per point."""
    rows = []
    for t in grid:
        generic = scalar_generic(a, b, A, B, t)
        rows.append((generic, torus_m_closed_form(a, b, A, B, t)))
    return rows


def outcome(route, *args):
    try:
        return route(*args)
    except hs.HermsympError as exc:
        return type(exc)


EXTREME_GRID = np.geomspace(1e-9, 1e9, 73)  # cond(U) up to 1e9


@pytest.mark.parametrize("pair", [(1, 2, 3, -1), (1, 1, 1, 0), (2, 3, -1, 4), (0, 1, 1, 0)])
def test_sweep_at_extreme_stretch_fails_where_the_per_model_route_fails(pair):
    # Point by point: the same value or the same error type.
    failing = set()
    for t in EXTREME_GRID:
        expected = outcome(per_point_rows, *pair, [t])
        got = outcome(lambda: [(r.m_generic, r.m_closed) for r in torus_m_sweep(*pair, [t]).rows])
        if isinstance(expected, type):
            assert got is expected, t
            failing.add(expected)
        else:
            assert abs(got[0][0] - expected[0][0]) <= 1e-12 and got[0][1] == expected[0][1], t
    assert bool(failing) == (pair != (0, 1, 1, 0))
    # Whole grids, either way round: the first failure of the per-point loop.
    for grid in (EXTREME_GRID, EXTREME_GRID[::-1]):
        expected = outcome(per_point_rows, *pair, grid)
        got = outcome(torus_m_sweep, *pair, grid)
        assert got is expected if isinstance(expected, type) else len(got.rows) == len(grid)


def scalar_closed_form(a, b, A, B, t):
    """The closed form as the scalar formula on Python complex numbers."""
    if IntegerPairLagrangian(a, b).parallel(IntegerPairLagrangian(A, B)):
        return 0.0
    za = complex(b, t * a) / complex(-b, t * a)
    zb = complex(-B, t * A) / complex(B, t * A)
    arg = -(za * zb)
    tau = hs.Tolerances.eig
    if abs(arg + 1.0) <= tau:
        raise BranchCut(
            f"log argument {arg:.12g} is within {tau:.0e} of -1 for "
            "non-parallel input; the invariant is discontinuous here"
        )
    return -math.atan2(arg.imag, arg.real) / math.pi


def bits_or_error(route, *args):
    """The bits of a float result (so -0.0 differs from 0.0), or the error's type and message."""
    try:
        return route(*args).hex()
    except hs.HermsympError as exc:
        return type(exc), str(exc)


def closed_form_failures(a, b, A, B, grid):
    """Assert both closed-form routes are the scalar formula at each point of
    ``grid``, to the bit and error for error; return the number of failing points."""
    expected = [bits_or_error(scalar_closed_form, a, b, A, B, t) for t in grid]
    assert [bits_or_error(torus_m_closed_form, a, b, A, B, t) for t in grid] == expected
    pairs = IntegerPairLagrangian(a, b), IntegerPairLagrangian(A, B)
    try:
        on_array = [v.hex() for v in torus._closed_form(*pairs, np.array(grid)).tolist()]
    except hs.HermsympError as exc:
        on_array = type(exc), str(exc)
    failures = [e for e in expected if isinstance(e, tuple)]
    assert on_array == (failures[0] if failures else expected)  # the first failure raises
    return len(failures)


def test_closed_form_is_the_scalar_formula_to_the_bit_on_random_points():
    rng = np.random.default_rng(14)
    # every pair of entries in -2..2, zeros included (the sign of a zero value
    # depends on them), then random entries in -9..9
    small = itertools.product(range(-2, 3), repeat=4)
    pairs = itertools.chain(small, (rng.integers(-9, 10, 4).tolist() for _ in range(150)))
    for pair in pairs:
        if 0 not in (pair[0] or pair[1], pair[2] or pair[3]):
            closed_form_failures(*pair, np.exp(rng.uniform(-12.0, 12.0, 16)).tolist())


def test_closed_form_is_the_scalar_formula_to_the_bit_where_it_fails():
    # the failing pairs of the extreme-stretch test, and huge nearly parallel lines
    counts = {(1, 2, 3, -1): 3, (1, 1, 1, 0): 3, (2, 3, -1, 4): 3, (0, 1, 1, 0): 0}
    for pair, count in counts.items():
        assert closed_form_failures(*pair, EXTREME_GRID.tolist()) == count
    assert closed_form_failures(10**9, 1, 10**9, 0, EXTREME_GRID.tolist()) == 39


def test_sweep_evaluates_the_closed_form_once_per_chunk(monkeypatch):
    shapes = []

    def recording(first, second, t, tol):
        shapes.append(t.shape)
        return closed_form(first, second, t, tol)

    def per_point(*args):
        raise AssertionError("the sweep called the per-point closed form")

    closed_form = torus._closed_form
    monkeypatch.setattr(torus, "_closed_form", recording)
    monkeypatch.setattr(torus, "torus_m_closed_form", per_point)
    grid = np.geomspace(0.01, 100.0, torus.SWEEP_CHUNK + 3)
    result = torus_m_sweep(1, 2, 3, -1, grid)
    assert shapes == [(torus.SWEEP_CHUNK,), (3,)]
    assert [row.m_closed.hex() for row in result.rows] == [
        scalar_closed_form(1, 2, 3, -1, t).hex() for t in grid.tolist()
    ]


def error_of(route, *args):
    with pytest.raises(hs.HermsympError) as exc:
        route(*args)
    return type(exc.value), str(exc.value), exc.value.item


@pytest.mark.parametrize("first_fails", ["closed", "generic"])
def test_sweep_failure_in_a_later_chunk_is_the_per_point_loops(first_fails, monkeypatch):
    # For (1, 1, 1, 0) only the closed form fails at t = 1e9, and only the
    # generic route at EXTREME_GRID[62]; whichever comes first raises.
    closed_only, generic_only = 1e9, EXTREME_GRID[62]

    def fails(route, t):
        return isinstance(outcome(route, 1, 1, 1, 0, t), type)

    assert fails(torus_m_closed_form, closed_only) and not fails(scalar_generic, closed_only)
    assert fails(scalar_generic, generic_only) and not fails(torus_m_closed_form, generic_only)
    tail = [closed_only, generic_only] if first_fails == "closed" else [generic_only, closed_only]
    monkeypatch.setattr(torus, "SWEEP_CHUNK", 4)
    grid = [1.0] * 6 + tail
    got = error_of(torus_m_sweep, 1, 1, 1, 0, grid)
    loop = error_of(per_point_rows, 1, 1, 1, 0, grid)
    if first_fails == "closed":
        assert got == loop and got[0] is BranchCut
    else:
        assert got[0] is loop[0] is EigenvalueAmbiguity
        assert got[1].endswith(loop[1]) and got[2] == 6


def test_quotient_is_python_complex_division_to_the_bit_on_both_branches():
    # one branch on swapped inputs where |bi| > |br|: random magnitudes over
    # the double range, signed zeros in the numerator, ties |br| = |bi|
    rng = np.random.default_rng(17)
    size = 4000

    def draw():
        x = np.exp(rng.uniform(-700.0, 700.0, size)) * rng.choice((-1.0, 1.0), size)
        return np.where(rng.random(size) < 0.1, rng.choice((-0.0, 0.0), size), x)

    ar, ai, br = draw(), draw(), draw()
    bi = np.where(rng.random(size) < 0.1, -br, draw())
    br, bi = np.where(br == 0.0, 1.0, br), np.where(bi == 0.0, -1.0, bi)
    with np.errstate(all="ignore"):  # as the closed form calls it; Python's division overflows quietly
        re, im = torus._quotient(ar, ai, br, bi)
    quotients = map(complex.__truediv__, map(complex, ar, ai), map(complex, br, bi))
    assert [(x.hex(), y.hex()) for x, y in zip(re.tolist(), im.tolist())] == [
        (z.real.hex(), z.imag.hex()) for z in quotients
    ]
