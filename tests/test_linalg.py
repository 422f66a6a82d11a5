"""gram_mgs, the rank rule of every span, and its QR step span_qr against
the modified Gram-Schmidt loop they replaced, and the LAPACK functions of
linalg against numpy.linalg's, which they replace."""
import ast
import importlib
import inspect
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermsymp as hs
from hermsymp import linalg, sampling
from hermsymp.errors import LagrangianValidationError
from hermsymp.linalg import gram_mgs, span_qr, unit_columns, whitened_columns
from hermsymp.torus import TorusModel

DROP_TOL = 1e-8


def factor(gram):
    """Upper Cholesky factor U with gram = U^H U, the factor a space keeps."""
    return np.linalg.cholesky(gram).conj().T


def gram_norm(gram, v):
    return math.sqrt(max(float(np.real(np.conj(v) @ gram @ v)), 0.0))


def reference_mgs(gram, basis, drop_tol):
    """Modified Gram-Schmidt in the Gram inner product, two passes per column."""
    basis = np.asarray(basis, dtype=np.complex128)
    n = basis.shape[0]
    kept = []
    for j in range(basis.shape[1]):
        v = basis[:, j].copy()
        orig = gram_norm(gram, v)
        for _ in range(2):
            for q in kept:
                v = v - q * (np.conj(q) @ gram @ v)
        nrm = gram_norm(gram, v)
        if nrm <= drop_tol * orig:
            continue
        kept.append(v / nrm)
    if not kept:
        return np.zeros((n, 0), dtype=np.complex128)
    return np.column_stack(kept)


def raw_mgs(gram, basis):
    """gram_mgs's whitened basis mapped back to a Gram-orthonormal one."""
    upper = factor(gram)
    return np.linalg.solve(upper, gram_mgs(upper, basis, DROP_TOL))


def assert_matches_reference(gram, basis):
    expected = reference_mgs(gram, basis, DROP_TOL)
    got = raw_mgs(gram, basis)
    assert got.shape == expected.shape
    if got.shape[1] == 0:
        return
    cond = np.linalg.cond(gram)
    # Gram norm of each column difference: independent of the gram's scale.
    diff = got - expected
    worst = math.sqrt(max(np.real(np.einsum("ij,ik,kj->j", diff.conj(), gram, diff))))
    assert worst < 1e-10 * math.sqrt(cond)
    # Forming Q^H G Q in these coordinates rounds at about eps * cond(gram) (the
    # reference loop reaches 4e-9 at cond 1e8), so the bound grows past 1e3.
    orth = np.abs(got.conj().T @ gram @ got - np.eye(got.shape[1])).max()
    assert orth < 1e-12 * max(1.0, cond / 1e3)


def random_gram(n, rng, cond):
    """Hermitian positive-definite gram, eigenvalues log-uniform in [1, cond]."""
    u = sampling.random_unitary(n, rng)
    eigs = np.exp(rng.uniform(0.0, math.log(cond), n))
    eigs[0], eigs[-1] = 1.0, cond
    gram = u @ np.diag(eigs) @ u.conj().T
    return (gram + gram.conj().T) / 2.0


def random_basis(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 16),
    cols=st.integers(0, 20),
    log_cond=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_grams_match_reference(n, cols, log_cond, seed):
    rng = np.random.default_rng(seed)
    gram = random_gram(n, rng, 10.0**log_cond)
    assert_matches_reference(gram, random_basis(n, cols, rng))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 12),
    independent=st.integers(1, 6),
    log_cond=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dependent_and_zero_columns_match_reference(n, independent, log_cond, seed):
    rng = np.random.default_rng(seed)
    gram = random_gram(n, rng, 10.0**log_cond)
    independent = min(independent, n)
    base = random_basis(n, independent, rng)
    combos = base @ random_basis(independent, 3, rng)
    cols = [base[:, :1], base[:, :1], np.zeros((n, 1)), combos, base, np.zeros((n, 2))]
    basis = np.hstack(cols)[:, rng.permutation(sum(c.shape[1] for c in cols))]
    assert_matches_reference(gram, basis)
    assert gram_mgs(factor(gram), basis, DROP_TOL).shape[1] == independent


def test_repeated_column_does_not_drop_the_next():
    gram = np.diag([1.0, 4.0]).astype(np.complex128)
    basis = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.complex128)
    got = raw_mgs(gram, basis)
    assert got.shape == (2, 2)
    assert np.allclose(got, [[1, 0], [0, 0.5]])


def test_more_columns_than_rows_and_empty_inputs():
    rng = np.random.default_rng(3)
    gram = random_gram(4, rng, 1e3)
    assert_matches_reference(gram, random_basis(4, 11, rng))
    assert gram_mgs(factor(gram), random_basis(4, 11, rng), DROP_TOL).shape == (4, 4)
    assert gram_mgs(factor(gram), np.zeros((4, 0)), DROP_TOL).shape == (4, 0)
    assert gram_mgs(factor(gram), np.zeros((4, 3)), DROP_TOL).shape == (4, 0)
    assert gram_mgs(np.zeros((0, 0)), np.zeros((0, 2)), DROP_TOL).shape == (0, 0)


def test_a_span_never_keeps_more_columns_than_it_has_rows():
    # Under a drop tolerance below roundoff a dependent column's residual is
    # kept; still no more than rows columns can be orthonormal.
    rng = np.random.default_rng(3)
    gram = random_gram(4, rng, 1e3)
    assert gram_mgs(factor(gram), random_basis(4, 11, rng), 1e-300).shape == (4, 4)
    base = sampling.random_space(2, rng)
    basis = sampling.random_lagrangian(base, rng).basis @ random_basis(2, 9, rng)
    space = hs.HermitianSymplecticSpace(base.gram, base.gamma, hs.Tolerances(rank=1e-300))
    with pytest.raises(LagrangianValidationError, match="^basis spans dimension [0-4], expected 2$"):
        hs.lagrangian_from_basis(space, basis)
    # the pinned bases orthonormalize 2k coefficient vectors in C^k
    split = hs.eigensplit(space)
    assert split.plus_basis.shape == split.minus_basis.shape == (4, 2)


def test_drop_rule_is_relative_to_each_column():
    # Columns from 1e-20 to 1e12 in scale: three independent ones, a 1e-6
    # near-duplicate and dependent combinations.  Only the direction of a
    # column decides, so the same three are kept however the gram is scaled.
    rng = np.random.default_rng(11)
    base = random_basis(6, 3, rng) * np.array([1e-20, 1.0, 1e12])
    near = 1e-6 * (base[:, 1:2] + 1e-13 * random_basis(6, 1, rng))
    combos = base @ random_basis(3, 2, rng) * np.array([1e-9, 1e12])
    basis = np.hstack([base, near, combos])
    gram = random_gram(6, rng, 1e3)
    for scaled in (gram, gram * 1e-16):
        assert gram_mgs(factor(scaled), basis, DROP_TOL).shape == (6, 3)
        assert_matches_reference(scaled, basis)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 8),
    spread=st.sampled_from([1.0, 4.0, 1e2, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigensplit_projectors_match_reference(k, spread, seed):
    space = sampling.random_space(k, np.random.default_rng(seed), spread=spread)
    ident = np.eye(space.dim)
    for sign in (-1.0, 1.0):
        projector = (ident + sign * 1j * space.gamma) / 2.0
        assert_matches_reference(space.gram, projector)
        assert gram_mgs(space._upper, projector, DROP_TOL).shape[1] == k


def test_torus_grams_at_extreme_stretch_match_reference():
    rng = np.random.default_rng(7)
    for t in (1e-3, 1e3):
        space = TorusModel(t).space
        ident = np.eye(space.dim)
        for sign in (-1.0, 1.0):
            assert_matches_reference(space.gram, (ident + sign * 1j * space.gamma) / 2.0)
        assert_matches_reference(space.gram, random_basis(4, 2, rng))
        assert_matches_reference(space.gram, np.array([[1, 0], [0, 3], [0, -2], [0, 0]]))


def test_power_of_two_scalings_keep_the_basis_to_the_bit():
    # Every decision and output of gram_mgs is relative to each column's own
    # norm, which is taken after an exact rescaling, so it stays finite.
    space = sampling.random_space(2, np.random.default_rng(4))
    basis = sampling.random_lagrangian(space, np.random.default_rng(5)).basis
    expected = hs.lagrangian_from_basis(space, basis).basis
    for e in range(-1000, 1001):
        got = hs.lagrangian_from_basis(space, np.ldexp(1.0, e) * basis).basis
        assert np.array_equal(got, expected), e
        # one column out of range, the other not: each column is scaled alone
        got = hs.lagrangian_from_basis(space, np.ldexp(1.0, [0, e]) * basis).basis
        assert np.array_equal(got, expected), e


@pytest.mark.parametrize("gram_scale", [1.0, 1e20, 1e300])
@pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300, 1e-300, 1.7e308, 5e-324])
def test_lines_at_extreme_scales_are_lagrangian(gram_scale, scale):
    # the squared whitened norm of these columns is past the double range, and
    # on the scaled Gram matrices U b itself overflows for the large entries
    std = hs.standard_space(1)
    space = hs.HermitianSymplecticSpace(gram_scale * std.gram, std.gamma)
    lagr = hs.lagrangian_from_basis(space, [[scale], [0.0]])
    assert np.abs(math.sqrt(gram_scale) * lagr.basis - [[1.0], [0.0]]).max() < 1e-15


def test_unit_columns_scale_by_powers_of_two():
    a = np.array([[3e300, 0.0, 1e-300, 0.75j], [-1e300j, 0.0, 0.0, 0.1]])
    got = unit_columns(a)
    assert np.array_equal(got[:, 1], [0.0, 0.0])
    for j in (0, 2, 3):
        exponent = math.frexp(np.abs(a[:, j]).max())[1]
        assert np.array_equal(got[:, j], a[:, j] * 2.0**-exponent)
        assert 0.5 <= np.abs(got[:, j]).max() < 1.0
    # a column of subnormal numbers is scaled by 2^1021, one past 2^1023 by
    # 2^-1022, a normal factor: its entries that stay normal are exact
    assert unit_columns(np.array([[1e-310], [0.0]]))[0, 0] == 1e-310 * 2.0**1021
    big = unit_columns(np.array([[1.5 * 2.0**1023], [3.0], [0.75]]))[:, 0]
    assert big[0] == 3.0 and big[1] == 3.0 * 2.0**-1022 and 0 < big[2] < 2.0**-1022
    assert unit_columns(np.zeros((2, 0, 3, 2))).shape == (2, 0, 3, 2)


def test_whitened_columns_are_the_product_up_to_powers_of_two():
    # the scalings are exact: each column is that of unit_columns(U b) to the
    # bit, however far the raw column is from 1
    rng = np.random.default_rng(6)
    upper = sampling.random_space(2, rng)._upper
    basis = random_basis(4, 3, rng)
    expected = unit_columns(upper @ basis)
    for e in range(-1000, 1001, 50):
        scaled = basis * np.ldexp(1.0, [e, -e, 0])
        assert np.array_equal(whitened_columns(upper, scaled), expected), e


def test_span_qr_is_the_qr_of_numpy_to_the_bit():
    # span_qr calls the two LAPACK routines of numpy.linalg.qr directly
    rng = np.random.default_rng(12)
    upper = factor(random_gram(6, rng, 1e3))
    for basis in (random_basis(6, 3, rng), np.stack([random_basis(6, 3, rng) for _ in range(4)])):
        q, diag, _ = span_qr(upper, basis, DROP_TOL)
        expected_q, r = np.linalg.qr(upper @ basis)
        assert np.array_equal(q, expected_q)
        assert np.array_equal(diag, np.diagonal(r, axis1=-2, axis2=-1).real)


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("spread", [4.0, 1e3, 1e6])
def test_span_qr_basis_is_gram_schmidts_on_exactly_k_columns(k, spread):
    # While no column drops, the QR keeps what Gram-Schmidt keeps, and its
    # columns, signed so that R_jj > 0, are Gram-Schmidt's: measured in the
    # Gram norm against the reference loop, the two differ by at most
    # 10 eps cond(U)^2 (1.2 at most over 20 seeds per cell, at k = 1 and
    # spread 4).  gram_mgs returns that signed QR basis to the bit.
    eps = np.finfo(float).eps
    for seed in range(5):
        rng = np.random.default_rng([k, int(spread), seed])
        space = sampling.random_space(k, rng, spread=spread)
        upper = space._upper
        basis = random_basis(2 * k, k, rng) * np.exp(rng.uniform(-5.0, 5.0, k))
        expected = reference_mgs(space.gram, basis, DROP_TOL)
        q, diag, kept = span_qr(upper, basis, DROP_TOL)
        assert kept.all() and expected.shape[1] == k
        diff = upper @ expected - q * np.sign(diag)
        assert np.array_equal(gram_mgs(upper, basis, DROP_TOL), q * np.sign(diag))
        bound = 10.0 * eps * np.linalg.cond(upper) ** 2
        assert np.linalg.norm(diff, axis=0).max() <= bound


@pytest.mark.parametrize(
    "k,defect",
    [(1, "zero first"), (2, "zero first"), (4, "zero first"), (2, "zero last"),
     (4, "zero last"), (2, "dependent last"), (4, "dependent last")],
)
def test_exactly_k_columns_with_one_dropped_fall_back_to_gram_schmidt(k, defect):
    # The QR flags the column; gram_mgs drops it and names the dimension.
    rng = np.random.default_rng(k)
    space = sampling.random_space(k, rng)
    basis = np.array(sampling.random_lagrangian(space, rng).basis)
    column = 0 if defect == "zero first" else k - 1
    if defect == "dependent last":
        basis[:, column] = basis[:, :column] @ random_basis(column, 1, rng)[:, 0]
    else:
        basis[:, column] = 0.0
    _, _, kept = span_qr(space._upper, basis, DROP_TOL)
    assert not kept[column]
    assert gram_mgs(space._upper, basis, DROP_TOL).shape[1] == k - 1
    with pytest.raises(LagrangianValidationError, match=f"^basis spans dimension {k - 1}, expected {k}$"):
        hs.lagrangian_from_basis(space, basis)


def test_after_a_dropped_column_gram_schmidt_counts_the_rest():
    # After a zero first column the QR's |R_22| is no residual against the kept
    # columns: it leaves out the first row, and drops e_1 too.
    space = hs.standard_space(2)
    basis = np.zeros((4, 2))
    basis[0, 1] = 1.0
    assert not span_qr(space._upper, basis, DROP_TOL)[2].any()
    with pytest.raises(LagrangianValidationError, match="^basis spans dimension 1, expected 2$"):
        hs.lagrangian_from_basis(space, basis)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("extra", [0, 1])
def test_non_finite_columns_are_never_kept_and_the_basis_is_rejected(bad, extra):
    # on exactly k columns and on k + 1, without a warning (warnings are errors)
    k = 3
    rng = np.random.default_rng(13)
    space = sampling.random_space(k, rng)
    for column in range(k):
        basis = np.hstack([sampling.random_lagrangian(space, rng).basis, random_basis(6, extra, rng)])
        basis[column, column] = bad
        _, _, kept = span_qr(space._upper, basis[:, :k], DROP_TOL)
        assert not kept[column]
        with pytest.raises(LagrangianValidationError, match="^basis has non-finite entries$"):
            hs.lagrangian_from_basis(space, basis)


def test_power_of_two_scalings_of_each_column_keep_the_qr_basis_to_the_bit():
    # as test_power_of_two_scalings_keep_the_basis_to_the_bit, one column at a
    # time through the k = 4 QR, and all four at once
    space = sampling.random_space(4, np.random.default_rng(14))
    basis = sampling.random_lagrangian(space, np.random.default_rng(15)).basis
    expected = hs.lagrangian_from_basis(space, basis).basis
    for e in range(-1000, 1001):
        scales = np.ones(4)
        scales[e % 4] = np.ldexp(1.0, e)
        for scaled in (basis * scales, basis * np.ldexp(1.0, e)):
            assert np.array_equal(hs.lagrangian_from_basis(space, scaled).basis, expected), e


def hermitian(a):
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def positive_definite(a):
    return a @ a.conj().swapaxes(-1, -2) + np.eye(a.shape[-1])


# each LAPACK function of linalg, numpy's function it replaces, and the
# argument both take, made from a complex matrix or stack of them
LAPACK = {
    "singular_values": (lambda a: np.linalg.svd(a, compute_uv=False), lambda a: (a[..., :3],)),
    "svd": (lambda a: tuple(np.linalg.svd(a)), lambda a: (a[..., :3],)),
    "eigvals": (np.linalg.eigvals, lambda a: (a,)),
    "eigh": (lambda a: tuple(np.linalg.eigh(a)), lambda a: (hermitian(a),)),
    "eigvalsh": (np.linalg.eigvalsh, lambda a: (hermitian(a),)),
    "inv": (np.linalg.inv, lambda a: (a,)),
    "solve": (np.linalg.solve, lambda a: (a, a[..., :2] + 1.0)),
    "cholesky": (np.linalg.cholesky, lambda a: (positive_definite(a),)),
    "_column_norms": (lambda a: np.linalg.norm(a, axis=-2), lambda a: (a[..., :3],)),
}


def same_bits(got, expected):
    if isinstance(expected, tuple):
        return len(got) == len(expected) and all(map(same_bits, got, expected))
    return (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


@pytest.mark.parametrize("name", LAPACK)
@pytest.mark.parametrize("shape", [(5, 5), (3, 5, 5), (0, 0), (3, 0, 0), (2, 1, 1)])
def test_lapack_functions_are_numpys_to_the_bit(name, shape):
    # on a matrix, a stack, and at k = 0: same values, dtypes and shapes
    reference, arguments = LAPACK[name]
    rng = np.random.default_rng(list(shape))
    args = arguments(random_basis(math.prod(shape[:-1]), shape[-1], rng).reshape(shape))
    assert same_bits(getattr(linalg, name)(*args), reference(*args))


SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
FAILURES = {
    "inv of a singular matrix": ("inv", (SINGULAR,)),
    "inv of a singular stack item": ("inv", (np.stack([np.eye(2, dtype=complex), SINGULAR]),)),
    "solve with a singular matrix": ("solve", (SINGULAR, np.ones((2, 1), dtype=complex))),
    "cholesky of an indefinite matrix": ("cholesky", (-np.eye(3, dtype=complex),)),
    "cholesky of an indefinite stack item": (
        "cholesky", (np.stack([np.eye(2, dtype=complex), SINGULAR - 3.0 * np.eye(2)]),)),
    "eigvals of nan": ("eigvals", (np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex),)),
    "eigvals of inf": ("eigvals", (np.full((1, 2, 2), np.inf, dtype=complex),)),
}


RAISE = dict.fromkeys(("divide", "over", "under", "invalid"), "raise")


def assert_state(flags):
    # the flags, and no error callback left behind by a routine's own state
    assert (np.geterr(), np.geterrcall()) == (flags, None)


@pytest.mark.parametrize("case", FAILURES)
def test_lapack_failures_raise_numpys_errors_without_a_warning(case):
    name, args = FAILURES[case]
    with pytest.raises(np.linalg.LinAlgError) as expected:
        getattr(np.linalg, name)(*args)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError) as got:
            getattr(linalg, name)(*args)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
    assert_state(before)
    # inside a caller's state the routine still raises its own error, and a
    # call that succeeds hands the caller's state back
    working = LAPACK[name][1](random_basis(4, 4, np.random.default_rng(0)))
    with np.errstate(all="raise"):
        with pytest.raises(np.linalg.LinAlgError):
            getattr(linalg, name)(*args)
        assert_state(RAISE)
        getattr(linalg, name)(*working)
        assert_state(RAISE)
        with pytest.raises(FloatingPointError):
            np.ones(1) / 0.0
    assert_state(before)


def test_span_qr_rescues_an_overflowing_product_quietly_and_restores_the_state(monkeypatch):
    # U b overflows: the norm test takes whitened_columns, without a warning,
    # and the caller's error state holds again on return
    rescues = []

    def counted(upper, basis):
        rescues.append(basis.shape)
        return whitened_columns(upper, basis)

    monkeypatch.setattr(linalg, "whitened_columns", counted)
    upper = 1e10 * factor(positive_definite(random_basis(4, 4, np.random.default_rng(1))))
    basis = 1e300 * random_basis(4, 2, np.random.default_rng(2))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, diag, kept = span_qr(upper, basis, DROP_TOL)
        assert_state(before)
        with np.errstate(all="raise"):
            assert same_bits(span_qr(upper, basis, DROP_TOL), (q, diag, kept))
            assert_state(RAISE)
    assert rescues == [(4, 2), (4, 2)]
    assert kept.all() and np.allclose(q.conj().T @ q, np.eye(2))
    assert_state(before)


def test_whiten_is_the_product_quietly_and_restores_the_state():
    # an infinite entry meets a zero of U: a NaN, and no warning or raise
    upper = factor(positive_definite(random_basis(4, 4, np.random.default_rng(3))))
    basis = random_basis(4, 2, np.random.default_rng(4))
    assert linalg.whiten(upper, basis).tobytes() == (upper @ basis).tobytes()
    basis[1, 0] = np.inf
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            got = linalg.whiten(upper, basis)
            assert_state(RAISE)
    assert np.isnan(got[:, 0]).any() and np.isfinite(got[:, 1]).all()
    assert_state(before)


def test_nullspace_takes_singular_values_at_most_tol_as_zero():
    mat = np.diag([1.0, 0.25]).astype(np.complex128)
    assert linalg.nullspace(mat, 0.25).shape == (2, 1)
    assert linalg.nullspace(mat, np.nextafter(0.25, 0.0)).shape == (2, 0)
    assert linalg.nullspace(np.zeros((0, 3)), 0.25).shape == (3, 3)


@pytest.mark.parametrize("name", ["eigh", "eigvalsh"])
def test_hermitian_eigensolvers_pass_non_finite_input_as_numpy_does(name):
    # numpy's eigh and eigvalsh check no entry and raise nothing on a nan: the
    # same nan eigenvalues, without a warning
    a = np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = getattr(linalg, name)(a)
    assert same_bits(got, tuple(np.linalg.eigh(a)) if name == "eigh" else np.linalg.eigvalsh(a))


def test_gram_that_is_not_positive_definite_is_named_on_a_space_and_a_stack_item():
    gamma = hs.standard_space(2).gamma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hs.SpaceValidationError, match="^gram must be positive definite$"):
            hs.HermitianSymplecticSpace(-np.eye(4), gamma)
        # a stacked space names no item; m_stack's rerun of the items does
        grams = np.stack([np.eye(4), np.eye(4), np.diag([1.0, 1.0, 0.0, 1.0])])
        halves = [np.broadcast_to(np.eye(4)[:, cols], (3, 4, 2)) for cols in (slice(2), slice(2, 4))]
        with pytest.raises(hs.SpaceValidationError, match="^item 2: gram must be positive definite$"):
            hs.m_stack(grams, np.stack([gamma] * 3), *halves)


def test_every_umath_linalg_name_linalg_calls_exists():
    # the gufunc names are private to numpy: a rename fails here, by name,
    # rather than inside a pair pass
    tree = ast.parse(inspect.getsource(linalg))
    used = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_umath_linalg"
    }
    assert {"svd", "svd_f", "eigvals", "eigh_lo", "eigvalsh_lo", "inv", "solve", "qr_r_raw",
            "qr_reduced"} <= used
    assert [name for name in sorted(used) if not hasattr(np.linalg._umath_linalg, name)] == []


def test_every_private_numpy_name_linalg_imports_exists():
    # the error states are built with numpy's private _make_extobj and set on
    # its _extobj_contextvar: every private numpy name linalg imports is listed
    # here, and a numpy release without one of them is named here
    tree = ast.parse(inspect.getsource(linalg))
    private = {
        (node.module, alias.name) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
        for alias in node.names
    }
    assert private == {("numpy._core.umath", "_extobj_contextvar"),
                       ("numpy._core.umath", "_make_extobj"), ("numpy.linalg", "_umath_linalg")}
    missing = [
        f"{module}.{name}" for module, name in sorted(private)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def private_numpy_uses(source, *, private=True):
    """Lines that call ``np.errstate``, and with ``private`` lines that import
    from or reach ``numpy._core`` or name ``_extobj_contextvar``,
    ``_make_extobj`` or ``_umath_linalg``: numpy's error state is linalg's,
    set through its decorators, and only linalg binds numpy's private names."""
    names = {"_extobj_contextvar", "_make_extobj", "_umath_linalg", "_core"} if private else set()
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", None)
            if node.attr in names or node.attr == "errstate" and owner in ("np", "numpy"):
                lines.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in names:
            lines.add(node.lineno)
        elif private and isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            modules += [alias.name for alias in node.names]
            if any(m.startswith("numpy._core") or m.split(".")[-1] in names for m in modules):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_guard_flags_each_private_numpy_use():
    for line in ("from numpy._core.umath import _extobj_contextvar", "from numpy._core import umath",
                 "import numpy._core.umath as um", "np._core.umath.geterrobj()",
                 "token = _extobj_contextvar.set(state)", "umath._make_extobj(all='ignore')",
                 "from numpy.linalg import _umath_linalg", "with np.errstate(all='ignore'):\n    pass",
                 "numpy.errstate(over='ignore')"):
        assert private_numpy_uses(line) == [1], line
    assert private_numpy_uses("np.errstate(over='ignore')", private=False) == [1]
    for line in ("@linalg.quiet\ndef f():\n    pass", "np.geterr()", "x.errstate()",
                 "from numpy.linalg import LinAlgError", "from .linalg import quiet"):
        assert private_numpy_uses(line) == [], line


MODULES = sorted(p.stem for p in pathlib.Path(linalg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_only_linalg_binds_numpys_private_names_and_no_module_enters_errstate(module):
    source = (pathlib.Path(linalg.__file__).parent / f"{module}.py").read_text()
    assert private_numpy_uses(source, private=module != "linalg") == []


NUMERIC = ("spaces", "maslov", "bordism", "torus")


def numpy_linalg_uses(source):
    """Lines that call a ``numpy.linalg`` function or reach ``_umath_linalg``,
    other than raising ``LinAlgError``: every LAPACK routine goes through
    linalg's functions instead."""

    def dotted(node):
        return dotted(node.value) + "." + node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            if name.startswith(("np.linalg.", "numpy.linalg.")) and not name.endswith(".LinAlgError"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module in ("numpy.linalg", "numpy.linalg._umath_linalg") or "linalg" in names and node.module == "numpy":
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.linalg") for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "_umath_linalg":
            lines.append(node.lineno)
    return lines


def test_the_guard_flags_each_way_to_reach_lapack():
    for line in ("np.linalg.svd(a)", "numpy.linalg.inv(a)", "from numpy.linalg import eigvals",
                 "from numpy import linalg", "import numpy.linalg as la", "_umath_linalg.svd(a)"):
        assert numpy_linalg_uses(line) == [1], line
    for line in ("linalg.singular_values(a)", "raise np.linalg.LinAlgError('x')",
                 "try:\n    pass\nexcept np.linalg.LinAlgError:\n    pass"):
        assert numpy_linalg_uses(line) == [], line


@pytest.mark.parametrize("module", NUMERIC)
def test_numeric_modules_reach_lapack_only_through_linalg(module):
    source = (pathlib.Path(linalg.__file__).parent / f"{module}.py").read_text()
    assert numpy_linalg_uses(source) == []


# The pair and triple kernels, the graph map, the span and null-space steps
# and the bordism operations, by module, as dotted names within it: they make
# the ufunc or array call in place of numpy's wrapper.
KERNELS = {
    "maslov": ("_pair_values", "m_details", "_inertia", "triple_index", "eta_correction_rhs",
               "_stacked_m", "m_stack"),
    "spaces": ("_graph_map", "HermitianSymplecticSpace._exceeds_alg",
               "HermitianSymplecticSpace.__post_init__", "HermitianSymplecticSpace._structure",
               "HermitianSymplecticSpace._evecs", "_checked_factor", "_stack_space"),
    "torus": ("torus_m_sweep", "_closed_form", "_quotient", "torus_gram", "torus_gamma"),
    "linalg": ("eigvals", "span_qr", "nullspace"),
    "bordism": ("reduce", "compose", "BordismRelation.__post_init__"),
}


def numpy_wrapper_calls(tree):
    """Lines under ``tree`` that call ``np.stack``, ``np.hstack``, ``np.vstack``,
    ``np.broadcast_to``, ``np.sum/any/all/min/max`` or an ndarray's
    ``.sum/any/all/min/max``: numpy's Python wrappers, each about a microsecond
    before the call it makes; or enter ``np.errstate``, which builds a fresh
    error state on each call where a token of a prebuilt one would do."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = getattr(node.func.value, "id", None)
            if node.func.attr in ("sum", "any", "all", "min", "max") or (
                node.func.attr in ("stack", "hstack", "vstack", "broadcast_to", "errstate")
                and owner in ("np", "numpy")
            ):
                lines.append(node.lineno)
    return lines


def kernel_tree(module, dotted):
    """The definition of ``dotted`` (``name`` or ``Class.name``) in a module's source."""
    node = ast.parse((pathlib.Path(linalg.__file__).parent / f"{module}.py").read_text())
    for name in dotted.split("."):
        node = next(
            child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
        )
    return node


@pytest.mark.parametrize(
    "module, dotted", [(module, name) for module, names in KERNELS.items() for name in names]
)
def test_pair_and_triple_kernels_skip_numpy_python_wrappers(module, dotted):
    assert numpy_wrapper_calls(kernel_tree(module, dotted)) == []


def test_the_guard_flags_each_numpy_python_wrapper():
    for line in ("np.stack([a, b])", "np.hstack([a, b])", "numpy.vstack([a, b])", "np.sum(a)",
                 "np.any(a)", "np.all(a)", "np.min(a)", "np.max(a)", "a.any()",
                 "(a > 0).all()", "a.sum(axis=-1)", "a.min(axis=-1, initial=np.inf)", "a.max()",
                 "np.broadcast_to(a, (3, 2))", "numpy.broadcast_to(a, shape)",
                 "with np.errstate(all='ignore'):\n    pass", "np.errstate(over='ignore')"):
        assert numpy_wrapper_calls(ast.parse(line)) == [1], line
    for line in ("np.add.reduce(a, axis=-1)", "np.logical_or.reduce(a, axis=None)",
                 "np.maximum.reduce(np.abs(a), axis=None, initial=0.0)", "np.concatenate([a, b])",
                 "np.array([a, b])", "np.count_nonzero(a)", "max(a, b)", "sum(values)", "x.stack()",
                 "a[None].repeat(3, axis=0)", "_extobj_contextvar.set(_QUIET)", "x.errstate()"):
        assert numpy_wrapper_calls(ast.parse(line)) == [], line


@pytest.mark.parametrize("shape_a, shape_b", [((2, 3), (1, 2)), ((0, 0), (2, 2)), ((3, 1), (0, 2))])
def test_block_diag_of_stacks_is_np_block_item_by_item(rng, shape_a, shape_b):
    # rectangular and empty blocks, as one pair of matrices and as a stack of five
    a = rng.standard_normal((5, *shape_a)) + 1j * rng.standard_normal((5, *shape_a))
    b = rng.standard_normal((5, *shape_b)) + 1j * rng.standard_normal((5, *shape_b))
    stacked = linalg.block_diag(a, b)
    assert stacked.shape == (5, shape_a[0] + shape_b[0], shape_a[1] + shape_b[1])
    zeros_ab, zeros_ba = np.zeros((shape_a[0], shape_b[1])), np.zeros((shape_b[0], shape_a[1]))
    for j in range(5):
        expected = np.block([[a[j], zeros_ab], [zeros_ba, b[j]]])
        assert np.array_equal(stacked[j], expected)
        assert np.array_equal(linalg.block_diag(a[j], b[j]), expected)
    assert stacked.dtype == np.complex128 and stacked.flags.writeable


def test_as_complex_matrix_rejects_arrays_that_are_not_matrices():
    for bad in (np.ones(4), np.ones((1, 2, 2)), 1.0):
        with pytest.raises(hs.ValidationError, match="2-dimensional"):
            linalg.as_complex_matrix(bad, "basis")
