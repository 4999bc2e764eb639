import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qes.linalg import (FieldExtension, charpoly, det, isolate_real_roots,
                        mat_commutator, mat_identity, mat_mul, minimal_factors,
                        nullspace, poly_eval, poly_gcd, poly_mul, poly_trim,
                        rank, refine_root, rref, solve_linear, squarefree_part,
                        sturm_chain)
from qes.scalars import QuadScalar, SQRT2

F = Fraction

entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def square_matrices(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


# -- exact linear algebra ----------------------------------------------------

def test_rank_and_nullspace_of_a_singular_matrix():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert rank(m) == 2
    basis = nullspace(m)
    assert len(basis) == 1
    for row in m:
        assert sum(a * b for a, b in zip(row, basis[0])) == 0


def test_rref_can_stop_after_the_leading_columns():
    # Pivoting on [A | I] only within A's columns still yields rows
    # [R | E] with E*A = R, and R's nonzero rows are RREF(A).
    a = [[F(1), F(2)], [F(2), F(4)], [F(0), F(3)]]
    augmented = [row + [F(int(i == k)) for k in range(3)] for i, row in enumerate(a)]
    reduced, pivots = rref(augmented, pivot_columns=2)
    assert pivots == [0, 1]
    assert [row[:2] for row in reduced[:2]] == [[F(1), F(0)], [F(0), F(1)]]
    for row in reduced:
        assert [sum(row[2 + k] * a[k][j] for k in range(3)) for j in range(2)] == row[:2]


def test_solve_linear_finds_exact_solutions_and_detects_inconsistency():
    m = [[F(2), F(1)], [F(1), F(3)]]
    sol = solve_linear(m, [F(5), F(5)])
    assert sol == [F(2), F(1)]
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


@given(square_matrices(3))
@settings(max_examples=40)
def test_charpoly_matches_numpy(m):
    exact = charpoly(m)
    approx = np.poly(np.array(m, dtype=float))[::-1]  # ascending, monic
    assert len(exact) == 4
    assert exact[-1] == 1
    for a, b in zip(exact, approx):
        assert float(a) == pytest.approx(b, abs=1e-6 * (1 + abs(b)))


@given(square_matrices(3))
@settings(max_examples=40)
def test_constant_coefficient_is_signed_determinant(m):
    assert charpoly(m)[0] == det(m) * (-1) ** 3


def test_cayley_hamilton_in_dimension_three():
    m = [[F(1), F(2), F(0)], [F(0), F(1, 2), F(1)], [F(3), F(0), F(-1)]]
    p = charpoly(m)
    acc = [[F(0)] * 3 for _ in range(3)]
    power = mat_identity(3)
    for c in p:
        acc = [[acc[i][j] + c * power[i][j] for j in range(3)] for i in range(3)]
        power = mat_mul(power, m)
    assert all(v == 0 for row in acc for v in row)


def test_matrix_commutator():
    a = [[F(0), F(1)], [F(0), F(0)]]
    b = [[F(0), F(0)], [F(1), F(0)]]
    assert mat_commutator(a, b) == [[F(1), F(0)], [F(0), F(-1)]]


# -- univariate polynomial tools ----------------------------------------------

def test_sturm_isolation_counts_and_separates_real_roots():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6
    p = [F(6), F(-7), F(0), F(1)]
    intervals = isolate_real_roots(p)
    assert len(intervals) == 3
    roots = sorted(float(sum(refine_root(p, lo, hi, digits=12))) / 2
                   for lo, hi in intervals)
    assert roots == pytest.approx([-3.0, 1.0, 2.0], abs=1e-10)


def test_sturm_chain_handles_repeated_roots_via_squarefree_part():
    p = poly_mul([F(-1), F(1)], [F(-1), F(1)])  # (x-1)^2
    sf = squarefree_part(p)
    assert poly_trim(sf) == [F(-1), F(1)]
    assert len(isolate_real_roots(p)) == 1
    assert len(sturm_chain(sf)) >= 2


def test_refine_root_reaches_requested_precision():
    p = [F(-2), F(0), F(1)]  # x^2 - 2
    lo, hi = refine_root(p, F(1), F(2), digits=15)
    assert lo <= hi and float(hi - lo) < 1e-14
    assert lo <= Fraction(math.sqrt(2)) <= hi or abs(float(lo) - math.sqrt(2)) < 1e-14


def test_poly_gcd_recovers_shared_factor():
    shared = [F(-3), F(1)]
    g = poly_gcd(poly_mul(shared, [F(1), F(1)]), poly_mul(shared, [F(4), F(1)]))
    # gcd is monic up to trimming
    g = poly_trim(g)
    assert len(g) == 2 and g[0] / g[1] == F(-3)


def test_minimal_factors_splits_into_irreducible_rational_pieces():
    # (x^2 - 2)(x - 3): the quadratic has no rational roots, the linear does.
    p = poly_mul([F(-2), F(0), F(1)], [F(-3), F(1)])
    factors, (leftover, _) = minimal_factors(p, max_subset=3)
    assert leftover == [] or poly_trim(leftover) == []
    degrees = sorted(len(f[0]) - 1 for f in factors)
    assert degrees == [1, 2]
    product = [F(1)]
    for coeffs, _ in factors:
        product = poly_mul(product, coeffs)
    # product matches p up to a nonzero rational scale
    scale = p[-1] / product[-1]
    assert [c * scale for c in product] == list(p)


def test_minimal_factors_keeps_interval_root_pairing():
    p = poly_mul([F(-2), F(0), F(1)], [F(-3), F(1)])
    factors, _ = minimal_factors(p, max_subset=3)
    for coeffs, intervals in factors:
        for lo, hi in intervals:
            assert poly_eval(coeffs, lo) * poly_eval(coeffs, hi) <= 0


# -- algebraic extension fields ------------------------------------------------

def test_extension_arithmetic_and_inversion():
    ext = FieldExtension([F(-2), F(0), F(1)], approx=F(141421356, 10**8), name="r")
    r = ext.generator()
    assert r * r == ext.scalar(2)
    x = ext.scalar(3) + r
    assert x * x.invert() == ext.one()
    assert (x * x) == ext.scalar(11) + ext.scalar(6) * r
    assert x.to_float() == pytest.approx(3 + math.sqrt(2), abs=1e-6)


def test_extension_detects_reducible_modulus():
    # x^2 - 1 = (x-1)(x+1): inverting x - 1 must fail loudly.
    ext = FieldExtension([F(-1), F(0), F(1)], approx=F(1))
    bad = ext.generator() - ext.one()
    with pytest.raises(ZeroDivisionError):
        bad.invert()


def test_extension_over_surd_coefficients():
    # Base field containing sqrt2, adjoin a root of t^2 - sqrt2 * t - 1.
    modulus = [QuadScalar(-1), -SQRT2, QuadScalar(1)]
    ext = FieldExtension(modulus, embed=QuadScalar, approx=F(19, 10))
    t = ext.generator()
    assert t * t == ext.scalar(SQRT2) * t + ext.one()
    inverse = t.invert()
    assert t * inverse == ext.one()
    # From the modulus, 1/t = t - sqrt2.
    assert inverse == t - ext.scalar(SQRT2)


def test_nullspace_over_an_extension_field():
    ext = FieldExtension([F(-2), F(0), F(1)], approx=F(3, 2))
    r = ext.generator()
    # rows are dependent over Q(sqrt2): second row is r times the first.
    m = [[ext.one(), r], [r, ext.scalar(2)]]
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert all((row[0] * v[0] + row[1] * v[1]) == ext.zero() for row in m)


def test_nullspace_of_an_all_zero_matrix_keeps_the_field_type():
    # No nonzero entry to divide by: the basis must still consist of field
    # elements, not bare rationals.
    ext = FieldExtension([F(-3), F(1)], approx=F(3), name="lam")
    basis = nullspace([[ext.zero()]])
    assert len(basis) == 1
    assert basis[0][0] == ext.one()
    assert basis[0][0].to_float() == 1.0
