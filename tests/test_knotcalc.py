"""Exact rational pipeline: arc, cohomology, extension condition, cs values."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsymp.errors import ConditionFailed, OutOfArc, ValidationError
from hermsymp.knotcalc import (
    DEFAULT_MONODROMY,
    GluingMatrix,
    RepPoint,
    chern_simons,
    cs_winding,
    holonomy_constraint,
    mapping_torus_condition,
    rho_difference_mod_z,
    torus_twisted_cohomology,
    trefoil_arc_point,
)

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12
)


def test_arc_points():
    assert trefoil_arc_point(Fraction(1, 5)) == RepPoint(Fraction(1, 5), Fraction(-7, 10))
    assert trefoil_arc_point("2/5") == RepPoint(Fraction(2, 5), Fraction(-19, 10))


@pytest.mark.parametrize("t", ["1/12", "5/12", "0", "1/2", "-1/5"])
def test_arc_endpoints_and_outside_rejected(t):
    with pytest.raises(OutOfArc):
        trefoil_arc_point(t)


def test_floats_rejected_everywhere():
    with pytest.raises(ValidationError):
        trefoil_arc_point(0.2)
    with pytest.raises(ValidationError):
        RepPoint(0.2, 0.5)
    with pytest.raises(ValidationError):
        GluingMatrix(((1.0, 3), (2, 7)))


def test_rational_text_is_p_q_integer_or_plain_decimal():
    assert RepPoint("1/5", "-3") == RepPoint(Fraction(1, 5), Fraction(-3))
    assert trefoil_arc_point("0.2") == trefoil_arc_point(Fraction(1, 5))
    # an exponent is rejected at once, however large: Fraction would expand it
    for text in ("1e-99999999", "2E-1", "0.2e0", "1/5e2"):
        with pytest.raises(ValidationError, match="as p/q"):
            trefoil_arc_point(text)
    with pytest.raises(ValidationError):
        RepPoint("1e99999999", 0)


def test_gluing_matrix_det_and_inverse():
    f = DEFAULT_MONODROMY
    assert f.det == 1
    inv = f.inverse()
    assert inv.rows == ((7, -3), (-2, 1))
    assert inv.det == 1
    with pytest.raises(ValidationError):
        GluingMatrix(((1, 0), (0, -1)))
    with pytest.raises(ValidationError):
        GluingMatrix(((2, 0), (0, 1)))


def test_gluing_matrix_entries_are_integral_but_not_bool():
    f = GluingMatrix(((np.int64(1), np.int64(3)), (np.int64(2), np.int64(7))))
    assert f == DEFAULT_MONODROMY
    assert all(type(x) is int for row in f.rows for x in row)
    for bad in (True, 1.0):
        with pytest.raises(ValidationError):
            GluingMatrix(((bad, 0), (0, 1)))


@pytest.mark.parametrize(
    "rows", [5, None, ((1, 3), 5), ((1, 3, 0), (2, 7)), ((1, 3), (2, 7), (0, 0)), ((1, 3),)]
)
def test_gluing_matrix_must_be_two_rows_of_two(rows):
    # rows, or a row, that cannot be iterated are not 2x2 either
    with pytest.raises(ValidationError, match="must be 2x2"):
        GluingMatrix(rows)


def test_rational_parameters_reject_bools():
    with pytest.raises(ValidationError, match="got a bool"):
        RepPoint(True, Fraction(1, 2))
    with pytest.raises(ValidationError, match="got a bool"):
        trefoil_arc_point(False)


def test_cohomology_vanishes_on_arc_points():
    assert torus_twisted_cohomology(trefoil_arc_point("1/5")) == (0, 0, 0)
    assert torus_twisted_cohomology(trefoil_arc_point("2/5")) == (0, 0, 0)


def float_twisted_cohomology(rep, eps_rank=1e-8, eps_alg=1e-10):
    """Reference ranks from the presentation differentials in floating point.

    d0 stacks (hol(mu) - I; hol(lambda) - I) and d1 is the row
    (I - hol(lambda), hol(mu) - I); their ranks are counted by SVD after
    checking the chain identity d1 d0 = 0.
    """

    def hol(x):
        angle = 2.0 * math.pi * float(x)
        z = complex(math.cos(angle), math.sin(angle))
        return np.diag([z, z.conjugate()])

    hol_mu, hol_la = hol(rep.phi), hol(rep.psi)
    ident = np.eye(2)
    d0 = np.vstack([hol_mu - ident, hol_la - ident])
    d1 = np.hstack([ident - hol_la, hol_mu - ident])
    assert np.max(np.abs(d1 @ d0)) <= eps_alg
    r0 = int(np.sum(np.linalg.svd(d0, compute_uv=False) > eps_rank))
    r1 = int(np.sum(np.linalg.svd(d1, compute_uv=False) > eps_rank))
    return (2 - r0, 4 - r0 - r1, 2 - r1)


def test_cohomology_of_trivial_parameters():
    assert torus_twisted_cohomology(RepPoint(0, 0)) == (2, 4, 2)
    assert torus_twisted_cohomology(RepPoint(3, -2)) == (2, 4, 2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(phi=rationals, psi=rationals)
def test_cohomology_vanishing_rule(phi, psi):
    # The complex splits into two diagonal lines; each is exact unless both
    # holonomy entries are 1, which happens exactly when phi and psi are
    # both integers.
    expected = (2, 4, 2) if (phi.denominator == 1 and psi.denominator == 1) else (0, 0, 0)
    assert torus_twisted_cohomology(RepPoint(phi, psi)) == expected
    assert float_twisted_cohomology(RepPoint(phi, psi)) == expected


def test_holonomy_constraint_values():
    f = DEFAULT_MONODROMY
    rep1 = trefoil_arc_point("1/5")
    assert holonomy_constraint(rep1, f) == (Fraction(-1), Fraction(-5))
    assert mapping_torus_condition(rep1, f)
    assert mapping_torus_condition(trefoil_arc_point("2/5"), f)
    assert not mapping_torus_condition(RepPoint(Fraction(1, 3), 0), f)


def test_chern_simons_golden_values():
    f = DEFAULT_MONODROMY
    rep1 = trefoil_arc_point("1/5")
    rep2 = trefoil_arc_point("2/5")
    assert cs_winding(rep1, f) == (Fraction(3), Fraction(-2))
    assert cs_winding(rep2, f) == (Fraction(7), Fraction(-5))
    assert chern_simons(rep1, f) == Fraction(7, 10)
    assert chern_simons(rep2, f) == Fraction(3, 10)


def test_chern_simons_trivial_point():
    assert chern_simons(RepPoint(0, 0), DEFAULT_MONODROMY) == 0


def test_chern_simons_requires_condition():
    with pytest.raises(ConditionFailed):
        chern_simons(RepPoint(Fraction(1, 3), 0), DEFAULT_MONODROMY)


def test_rho_difference_golden():
    f = DEFAULT_MONODROMY
    rep1 = trefoil_arc_point("1/5")
    rep2 = trefoil_arc_point("2/5")
    assert rho_difference_mod_z(rep1, rep2, f) == Fraction(3, 5)
    assert rho_difference_mod_z(rep2, rep1, f) == Fraction(2, 5)
    assert rho_difference_mod_z(rep1, rep1, f) == 0


def test_results_are_exact_fractions():
    f = DEFAULT_MONODROMY
    rep = trefoil_arc_point("1/5")
    assert isinstance(chern_simons(rep, f), Fraction)
    assert all(isinstance(x, Fraction) for x in cs_winding(rep, f))
    value = rho_difference_mod_z(rep, trefoil_arc_point("2/5"), f)
    assert isinstance(value, Fraction)
    assert 0 <= value < 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.integers(-3, 3), q=st.integers(-3, 3))
def test_integer_shifts_preserve_cs_mod_z(p, q):
    # Integer shifts of (phi, psi) keep the extension condition and leave
    # the Chern-Simons value unchanged mod Z.
    f = DEFAULT_MONODROMY
    rep = trefoil_arc_point("1/5")
    shifted = RepPoint(rep.phi + p, rep.psi + q)
    assert mapping_torus_condition(shifted, f)
    assert chern_simons(shifted, f) == chern_simons(rep, f)
