from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qes.diffop import DiffOp, GaugeFactor, commutator, conjugate_by_gauge, substitute_square
from qes.laurent import LaurentPoly
from qes.scalars import QuadScalar, SQRT2

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def laurent_polys(min_exp=-2, max_exp=4):
    return st.dictionaries(
        st.integers(min_value=min_exp, max_value=max_exp),
        small_fractions, max_size=4,
    ).map(LaurentPoly)


def diff_ops(max_order=2):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_order),
        laurent_polys(), max_size=3,
    ).map(DiffOp)


def plain_polys(max_exp=5):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_exp),
        small_fractions, max_size=4,
    ).map(LaurentPoly)


# -- Laurent layer ----------------------------------------------------------

def test_laurent_basic_algebra():
    x = LaurentPoly.x()
    inv = LaurentPoly.x(-1)
    assert x * inv == LaurentPoly.const(Fraction(1))
    assert (x + inv).derivative() == LaurentPoly.const(1) - LaurentPoly.x(-2)
    assert LaurentPoly.x(3, Fraction(2)).degree() == 3
    assert LaurentPoly.x(-2).valuation() == -2


@given(laurent_polys(), laurent_polys())
def test_laurent_derivative_is_leibniz(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(plain_polys(), small_fractions.filter(lambda c: c != 0))
def test_laurent_stretch_square_evaluates_consistently(p, scale):
    z = Fraction(3, 2)
    assert p.stretch_square(scale).evaluate(z) == p.evaluate(scale * z * z)


def test_laurent_carries_surd_coefficients():
    p = LaurentPoly({2: SQRT2})
    assert p * p == LaurentPoly({4: QuadScalar(2)})


def test_equal_laurent_polys_with_mixed_coefficient_types_hash_equal():
    mixed = LaurentPoly({0: QuadScalar(3), -1: Fraction(1, 2), 2: 5})
    plain = LaurentPoly({0: 3, -1: QuadScalar(Fraction(1, 2)), 2: Fraction(5)})
    assert mixed == plain
    assert hash(mixed) == hash(plain)
    assert len({mixed, plain}) == 1


# -- operator layer ---------------------------------------------------------

@given(diff_ops(), diff_ops(), laurent_polys(min_exp=0))
@settings(max_examples=60)
def test_composition_agrees_with_sequential_application(a, b, f):
    assert (a * b).apply_to(f) == a.apply_to(b.apply_to(f))


@given(diff_ops(), laurent_polys(), small_fractions)
def test_left_multiplication_scales_coefficients_like_composition(a, f, c):
    # A function on the left contributes no Leibniz terms, so scaling each
    # coefficient must agree with composing with the multiplication operator.
    assert f * a == DiffOp.mul_by(f) * a
    assert c * a == DiffOp.mul_by(c) * a
    assert (SQRT2 * a).coeffs == (DiffOp.mul_by(SQRT2) * a).coeffs


@given(diff_ops(), diff_ops())
def test_commutator_antisymmetry(a, b):
    assert commutator(a, b) == -commutator(b, a)


@given(diff_ops(max_order=1), diff_ops(max_order=1), diff_ops(max_order=1))
@settings(max_examples=30)
def test_commutator_jacobi_identity(a, b, c):
    total = (commutator(a, commutator(b, c))
             + commutator(b, commutator(c, a))
             + commutator(c, commutator(a, b)))
    assert total.is_zero()


def test_canonical_normal_form():
    # d/dx followed by multiplication by x, reordered: x*D + 1.
    d = DiffOp.d()
    x = DiffOp.mul_by(LaurentPoly.x())
    assert d * x == x * d + DiffOp.identity()
    assert commutator(d, x) == DiffOp.identity()


def test_operator_powers_and_order():
    d = DiffOp.d()
    assert d ** 3 == DiffOp.d(3)
    op = DiffOp({2: LaurentPoly.x(), 0: LaurentPoly.const(5)})
    assert op.order() == 2
    with pytest.raises(ValueError):
        DiffOp.zero().order()


# -- gauge conjugation ------------------------------------------------------

def test_gauge_conjugation_is_multiplicative():
    gauge = GaugeFactor(z_power=1, gauss_coeff=SQRT2 * Fraction(1, 8))
    a = DiffOp({1: LaurentPoly.x(), 0: LaurentPoly.const(2)})
    b = DiffOp({2: LaurentPoly.const(1), 0: LaurentPoly.x(2)})
    left = conjugate_by_gauge(a * b, gauge)
    right = conjugate_by_gauge(a, gauge) * conjugate_by_gauge(b, gauge)
    assert left == right


def test_gauge_conjugation_round_trips():
    gauge = GaugeFactor(z_power=2, gauss_coeff=Fraction(-1, 4))
    op = DiffOp({2: LaurentPoly.x(2), 1: LaurentPoly.const(3), 0: LaurentPoly.x()})
    assert conjugate_by_gauge(conjugate_by_gauge(op, gauge), gauge.inverse()) == op


def test_gauge_fixes_multiplication_operators():
    gauge = GaugeFactor(z_power=1, gauss_coeff=Fraction(1, 2))
    mult = DiffOp.mul_by(LaurentPoly.x(3))
    assert conjugate_by_gauge(mult, gauge) == mult


def test_gauge_shifts_the_derivative_by_the_log_derivative():
    # g^{-1} D g = D + (log g)'.
    gauge = GaugeFactor(z_power=3, gauss_coeff=Fraction(2, 5))
    conjugated = conjugate_by_gauge(DiffOp.d(), gauge)
    expected = DiffOp.d() + DiffOp.mul_by(gauge.log_derivative())
    assert conjugated == expected


# -- variable change x = scale * z^2 ----------------------------------------

@given(plain_polys(), small_fractions.filter(lambda c: c != 0))
@settings(max_examples=40)
def test_substitute_square_intertwines_application(p, scale):
    op = DiffOp({2: LaurentPoly.x(), 1: LaurentPoly.const(3), 0: LaurentPoly.x(2)})
    pulled_input = p.stretch_square(scale)
    pulled_output = op.apply_to(p).stretch_square(scale)
    assert substitute_square(op, scale).apply_to(pulled_input) == pulled_output


def test_substitute_square_first_order_chain_rule():
    # d/dx becomes (1/(2*scale*z)) d/dz under x = scale z^2.
    op = substitute_square(DiffOp.d(), Fraction(2))
    assert op == DiffOp({1: LaurentPoly.x(-1, Fraction(1, 4))})
