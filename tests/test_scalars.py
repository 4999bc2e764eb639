import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qes.scalars import QuadScalar, SQRT2, SQRT3, SQRT6, format_scalar

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def quad_scalars():
    return st.builds(QuadScalar, rationals, rationals, rationals, rationals)


def test_surd_squares():
    assert SQRT2 * SQRT2 == QuadScalar(2)
    assert SQRT3 * SQRT3 == QuadScalar(3)
    assert SQRT6 * SQRT6 == QuadScalar(6)
    assert SQRT2 * SQRT3 == SQRT6


def test_embedding_matches_floating_surds():
    x = QuadScalar(Fraction(1, 2), Fraction(-3, 4), 2, Fraction(5, 7))
    expected = 0.5 - 0.75 * math.sqrt(2) + 2 * math.sqrt(3) + (5 / 7) * math.sqrt(6)
    assert float(x) == pytest.approx(expected, rel=1e-15)


@given(quad_scalars(), quad_scalars(), quad_scalars())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(quad_scalars())
def test_multiplicative_inverse(x):
    if x == QuadScalar(0):
        with pytest.raises(ZeroDivisionError):
            x.invert()
        return
    assert x * x.invert() == QuadScalar(1)


@given(quad_scalars())
def test_embedding_is_a_homomorphism(x):
    two = QuadScalar(2)
    assert float(x + two) == pytest.approx(float(x) + 2, abs=1e-9)
    assert float(x * two) == pytest.approx(2 * float(x), abs=1e-9)


def test_canonical_strings():
    assert format_scalar(QuadScalar(Fraction(3, 5), Fraction(2, 7), 0, -1)) == "3/5+2/7*sqrt2-1*sqrt6"
    assert format_scalar(-SQRT3 + Fraction(-1, 2)) == "-1/2-1*sqrt3"
    assert format_scalar(QuadScalar(0)) == format_scalar(0) == "0"
    assert format_scalar(Fraction(4, 6)) == "2/3"


def test_scalar_coercion_in_arithmetic():
    assert Fraction(1, 2) * SQRT2 == QuadScalar(0, Fraction(1, 2))
    assert SQRT2 * 3 == QuadScalar(0, 3)
    assert SQRT2 + 1 == QuadScalar(1, 1)


def test_rational_zero_divisor_free():
    # (a + b*sqrt2)(a - b*sqrt2) = a^2 - 2 b^2 never vanishes for rational
    # a, b not both zero, which is what makes inversion well defined.
    x = QuadScalar(1, 1) * QuadScalar(1, -1)
    assert x == QuadScalar(-1)


def test_rational_values_hash_like_their_fraction():
    assert {QuadScalar(3), Fraction(3), 3} == {3}
    assert len({QuadScalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({SQRT2, QuadScalar(0, 1)}) == 1


def test_equality_with_rationals_reads_components_in_both_orders():
    half = QuadScalar(Fraction(1, 2))
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert QuadScalar(3) == 3 and 3 == QuadScalar(3)
    assert QuadScalar(0) == 0 and 0 == QuadScalar(0)
    assert half != 1 and 1 != half
    assert half != Fraction(1, 3) and Fraction(1, 3) != half
    # An irrational value equals no rational, even with a matching rational part.
    for irrational in (SQRT2, SQRT3 + 2, QuadScalar(Fraction(1, 2), 0, 0, 1)):
        for rational in (0, 2, Fraction(1, 2)):
            assert irrational != rational and rational != irrational
    assert (SQRT2 == "sqrt2") is False


@given(quad_scalars(), rationals)
def test_equality_with_a_rational_matches_the_coerced_comparison(x, q):
    coerced = x == QuadScalar(q)
    assert (x == q) is coerced and (q == x) is coerced
    if coerced:
        assert hash(x) == hash(q)
