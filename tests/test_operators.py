from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _algebra import apply_to, derivative_op, laurent_at
from qes.diffop import (DiffOp, GaugeFactor, commutator, conjugate_by_gauge,
                        pull_back_square, substitute_square)
from qes.laurent import LaurentPoly
from qes.scalars import QuadScalar, SQRT2, reciprocal

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


@given(laurent_polys(), laurent_polys())
def test_laurent_derivative_is_leibniz(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(plain_polys(), small_fractions.filter(lambda c: c != 0))
def test_laurent_stretch_square_evaluates_consistently(p, scale):
    z = Fraction(3, 2)
    assert laurent_at(p.stretch_square(scale), z) == laurent_at(p, scale * z * z)


def stretched_term_by_term(p, scale):
    """x -> scale z^2 one term at a time, each power taken by `**`."""
    return LaurentPoly({2 * e: c * (scale ** e if e >= 0 else reciprocal(scale) ** -e)
                        for e, c in p.coeffs.items()})


surds = st.builds(QuadScalar, small_fractions, small_fractions, small_fractions,
                  small_fractions).filter(lambda q: not q.is_zero())


@given(laurent_polys(min_exp=-6, max_exp=7), small_fractions.filter(bool) | surds)
@settings(max_examples=60)
def test_stretch_square_equals_the_term_by_term_powers(p, scale):
    # The running products give the very values and types of scale ** e.
    got, expected = p.stretch_square(scale), stretched_term_by_term(p, scale)
    assert got == expected
    assert repr(got) == repr(expected)
    assert [type(c) for c in got.coeffs.values()] == [type(c) for c in expected.coeffs.values()]


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
    assert apply_to(a * b, f) == apply_to(a, apply_to(b, f))


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
    d = derivative_op()
    x = DiffOp.mul_by(LaurentPoly.x())
    assert d * x == x * d + DiffOp.identity()
    assert commutator(d, x) == DiffOp.identity()


def test_operator_powers_and_order():
    d = derivative_op()
    assert d ** 3 == derivative_op(3)
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
    inverse = GaugeFactor(-gauge.z_power, -gauge.gauss_coeff)
    assert conjugate_by_gauge(conjugate_by_gauge(op, gauge), inverse) == op


def test_gauge_fixes_multiplication_operators():
    gauge = GaugeFactor(z_power=1, gauss_coeff=Fraction(1, 2))
    mult = DiffOp.mul_by(LaurentPoly.x(3))
    assert conjugate_by_gauge(mult, gauge) == mult


def test_gauge_shifts_the_derivative_by_the_log_derivative():
    # g^{-1} D g = D + (log g)'.
    gauge = GaugeFactor(z_power=3, gauss_coeff=Fraction(2, 5))
    conjugated = conjugate_by_gauge(derivative_op(), gauge)
    expected = derivative_op() + DiffOp.mul_by(gauge.log_derivative())
    assert conjugated == expected


# -- variable change x = scale * z^2 ----------------------------------------

@given(plain_polys(), small_fractions.filter(lambda c: c != 0))
@settings(max_examples=40)
def test_substitute_square_intertwines_application(p, scale):
    op = DiffOp({2: LaurentPoly.x(), 1: LaurentPoly.const(3), 0: LaurentPoly.x(2)})
    pulled_input = p.stretch_square(scale)
    pulled_output = apply_to(op, p).stretch_square(scale)
    assert apply_to(substitute_square(op, scale), pulled_input) == pulled_output


@given(diff_ops(), small_fractions.filter(lambda c: c != 0))
@settings(max_examples=40)
def test_pull_back_square_inverts_the_substitution(op, scale):
    assert pull_back_square(substitute_square(op, scale), scale) == op


def test_pull_back_square_over_a_surd_scale():
    op = DiffOp({2: LaurentPoly.x(), 1: LaurentPoly({-1: Fraction(2), 0: SQRT2}),
                 0: LaurentPoly.x(2)})
    scale = 3 * SQRT2 / 8
    assert pull_back_square(substitute_square(op, scale), scale) == op


def test_pull_back_square_refuses_a_term_odd_in_z():
    with pytest.raises(ValueError, match="odd"):
        pull_back_square(derivative_op(), Fraction(2))
    with pytest.raises(ValueError, match="odd"):
        pull_back_square(DiffOp.mul_by(LaurentPoly.x()), Fraction(2))
    with pytest.raises(ValueError, match="nonzero"):
        pull_back_square(DiffOp.identity(), 0)


def exact_values(result):
    """The scalars of a number, a Laurent polynomial or an operator."""
    if isinstance(result, DiffOp):
        return [c for poly in result.coeffs.values() for c in poly.coeffs.values()]
    if isinstance(result, LaurentPoly):
        return list(result.coeffs.values())
    return [result]


@given(laurent_polys(), diff_ops(), st.integers(min_value=-4, max_value=4).filter(bool))
@settings(max_examples=40)
def test_int_and_fraction_scales_give_the_same_exact_results(p, op, scale):
    # A negative power of an int scale or point must stay a Fraction.
    def results(k):
        return (p.stretch_square(k), laurent_at(p, k), substitute_square(op, k),
                pull_back_square(substitute_square(op, Fraction(scale)), k))

    by_int, by_fraction = results(scale), results(Fraction(scale))
    assert by_int == by_fraction
    assert not any(isinstance(value, float)
                   for result in by_int for value in exact_values(result))


def test_int_scales_keep_the_seen_cases_exact():
    # Each gave a float before the shared reciprocal.  With a float residue
    # pull_back_square could also loop for ever, as it did on the last case.
    seen = [(LaurentPoly.x(-1).stretch_square(2), LaurentPoly.x(-2, Fraction(1, 2))),
            (laurent_at(LaurentPoly.x(-1), 2), Fraction(1, 2)),
            (substitute_square(derivative_op(), 2), DiffOp({1: LaurentPoly.x(-1, Fraction(1, 4))})),
            (pull_back_square(substitute_square(derivative_op(), Fraction(2)), 2), derivative_op())]
    for got, expected in seen:
        assert got == expected
        assert not any(isinstance(value, float) for value in exact_values(got))
    op = DiffOp({1: LaurentPoly({-1: Fraction(-1, 4), 4: Fraction(1, 2)}),
                 0: LaurentPoly({-2: Fraction(-1, 2), 3: Fraction(1)})})
    assert pull_back_square(substitute_square(op, Fraction(-3)), -3) == op


def test_substitute_square_first_order_chain_rule():
    # d/dx becomes (1/(2*scale*z)) d/dz under x = scale z^2.
    op = substitute_square(derivative_op(), Fraction(2))
    assert op == DiffOp({1: LaurentPoly.x(-1, Fraction(1, 4))})
