import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _algebra import dense_rref, mat_commutator, poly_eval, poly_mul
from qes import linalg
from qes.linalg import (FieldExtension, charpoly, isolate_real_roots,
                        mat_identity, mat_mul, minimal_factors, nullspace,
                        poly_gcd, poly_trim, rank, refine_root, rref,
                        solve_linear, squarefree_part, sturm_chain,
                        tridiagonal_charpoly)
from qes.scalars import QuadScalar, SQRT2

F = Fraction

entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def square_matrices(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


# -- exact linear algebra ----------------------------------------------------

def test_nullspace_over_an_extension_field():
    # Rows dependent over Q(sqrt2): the second row is sqrt2 times the first.
    m = [[QuadScalar(1), SQRT2], [SQRT2, QuadScalar(2)]]
    assert rank(m) == 1
    basis = nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert all(row[0] * v[0] + row[1] * v[1] == 0 for row in m)


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


def sparse_matrices(element):
    """Up to 7 x 9 matrices, about two thirds of whose entries are zero."""
    zero = st.just(F(0))
    return st.integers(1, 7).flatmap(lambda height: st.integers(1, 9).flatmap(
        lambda width: st.lists(st.lists(st.one_of(zero, zero, element),
                                        min_size=width, max_size=width),
                               min_size=height, max_size=height)))


surds = st.tuples(entries, entries).map(lambda ab: QuadScalar(ab[0], ab[1], 0, 0))


@given(st.sampled_from([entries, surds]).flatmap(sparse_matrices), st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_sparse_rref_equals_the_dense_elimination(matrix, leading):
    assert rref(matrix) == dense_rref(matrix)
    pivot_columns = min(leading, len(matrix[0]))
    assert rref(matrix, pivot_columns) == dense_rref(matrix, pivot_columns)


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
@settings(max_examples=40, deadline=None)
def test_constant_coefficient_is_signed_determinant(m):
    sympy = pytest.importorskip("sympy")
    det = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                        for row in m]).det()
    assert charpoly(m)[0] == F(int(det.p), int(det.q)) * (-1) ** 3


def test_cayley_hamilton_in_dimension_three():
    m = [[F(1), F(2), F(0)], [F(0), F(1, 2), F(1)], [F(3), F(0), F(-1)]]
    p = charpoly(m)
    acc = [[F(0)] * 3 for _ in range(3)]
    power = mat_identity(3)
    for c in p:
        acc = [[acc[i][j] + c * power[i][j] for j in range(3)] for i in range(3)]
        power = mat_mul(power, m)
    assert all(v == 0 for row in acc for v in row)


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(st.lists(entries, min_size=n, max_size=n),
                        st.lists(entries, min_size=n, max_size=n),
                        st.lists(entries, min_size=n, max_size=n))))
@settings(max_examples=40)
def test_continuant_equals_the_general_characteristic_polynomial(diagonals):
    diagonal, upper, lower = diagonals
    n = len(diagonal)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = diagonal[i]
        if i + 1 < n:
            m[i][i + 1], m[i + 1][i] = upper[i], lower[i]
    assert tridiagonal_charpoly(m) == linalg._faddeev_leverrier(m) == charpoly(m)


def test_charpoly_of_a_tridiagonal_surd_matrix():
    m = [[SQRT2, QuadScalar(1), QuadScalar(0)],
         [QuadScalar(3), QuadScalar(0), SQRT2],
         [QuadScalar(0), QuadScalar(-1), QuadScalar(2)]]
    assert charpoly(m) == linalg._faddeev_leverrier(m)


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


small_ints = st.integers(min_value=-6, max_value=6)


@given(st.lists(small_ints, min_size=2, max_size=6),
       st.lists(small_ints, min_size=2, max_size=3),
       st.integers(min_value=0, max_value=3),
       st.fractions(min_value=-8, max_value=8, max_denominator=7),
       st.fractions(min_value=-8, max_value=8, max_denominator=7))
@settings(max_examples=80, deadline=None)
def test_integer_sturm_counts_match_sympy(base, repeated, power, a, b):
    # base * repeated^power: repeated factors exercise the squarefree step.
    sympy = pytest.importorskip("sympy")
    assume(base[-1] != 0 and repeated[-1] != 0)
    p = [F(c) for c in base]
    for _ in range(power):
        p = poly_mul(p, [F(c) for c in repeated])
    x = sympy.Symbol("x")
    poly = sympy.Poly([int(c) for c in reversed(p)], x)
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi and poly.eval(lo) != 0 and poly.eval(hi) != 0)
    chain = sturm_chain(p)
    counted = linalg._sign_changes(chain, lo) - linalg._sign_changes(chain, hi)
    assert counted == poly.count_roots(lo, hi)
    intervals = isolate_real_roots(p)
    assert len(intervals) == poly.count_roots()
    assert all(poly.count_roots(lo, hi) == 1 for lo, hi in intervals)
    sq = squarefree_part(p)
    expected = poly.sqf_part().monic().all_coeffs()[::-1]
    assert [c / sq[-1] for c in sq] == [F(int(c.p), int(c.q)) for c in expected]


def test_integer_sturm_chain_members_are_positive_multiples_of_the_rational_ones():
    # x^4 - 5x^2 + x/2 + 3/4, chain built over Q by plain remainders.
    p = [F(3, 4), F(1, 2), F(-5), F(0), F(1)]
    rational = [p, [i * c for i, c in enumerate(p)][1:]]
    while True:
        remainder = linalg.poly_divmod(rational[-2], rational[-1])[1]
        if not remainder:
            break
        rational.append([-c for c in remainder])
    chain = sturm_chain(p)
    assert len(chain) == len(rational)
    for member, exact in zip(chain, rational):
        assert all(isinstance(c, int) for c in member)
        ratio = member[-1] / exact[-1]
        assert ratio > 0 and [ratio * c for c in exact] == member


def test_refine_root_handles_a_root_of_even_multiplicity():
    p = poly_mul(poly_mul([F(-2), F(0), F(1)], [F(-2), F(0), F(1)]), [F(1), F(1)])
    lo, hi = refine_root(p, F(1), F(2), digits=12)
    assert lo < hi and abs(float(lo) - math.sqrt(2)) < 1e-11
    assert (lo, hi) == refine_root(squarefree_part(p), F(1), F(2), digits=12)


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


def test_minimal_factors_without_a_search_isolates_the_squarefree_part_once(monkeypatch):
    # (x^2 - 2)^2 (x - 3): no factor is split off, every real root is refined.
    p = poly_mul(poly_mul([F(-2), F(0), F(1)], [F(-2), F(0), F(1)]), [F(-3), F(1)])
    sq = squarefree_part(p)
    chains = []
    monkeypatch.setattr(linalg, "sturm_chain",
                        lambda q: chains.append(q) or sturm_chain(q))
    part, intervals = minimal_factors(p)
    assert len(chains) == 2  # one for p, one for its squarefree part
    assert part == sq
    assert intervals == [refine_root(sq, lo, hi, digits=14)
                         for lo, hi in isolate_real_roots(sq)]


def test_isolation_reuses_a_given_chain():
    sq = poly_mul([F(-2), F(0), F(1)], [F(-3), F(1)])
    assert isolate_real_roots(sq, chain=sturm_chain(sq)) == isolate_real_roots(sq)


def test_minimal_factors_keeps_interval_root_pairing():
    # Each refined interval stays inside its own isolating interval, so it
    # still holds that root and no other; the part changes sign across it.
    p = poly_mul([F(-2), F(0), F(1)], [F(-3), F(1)])
    part, refined = minimal_factors(p)
    isolating = isolate_real_roots(p)
    assert len(refined) == len(isolating) == 3
    for (lo, hi), (a, b) in zip(refined, isolating):
        assert a <= lo <= hi <= b and hi - lo < F(1, 10 ** 13)
        assert poly_eval(part, lo) * poly_eval(part, hi) <= 0


# -- quotient rings Q[t]/(m) ---------------------------------------------------

def test_extension_arithmetic_and_inversion():
    ext = FieldExtension([F(-2), F(0), F(1)], approx=F(141421356, 10**8), name="r")
    r = ext.generator()
    assert r * r == ext.scalar(2)
    x = ext.scalar(3) + r
    # No division: a unit's inverse is an element like any other.
    assert x * ext.element([F(3, 7), F(-1, 7)]) == ext.one()
    assert (x * x) == ext.scalar(11) + ext.scalar(6) * r
    assert x.to_float() == pytest.approx(3 + math.sqrt(2), abs=1e-6)


def test_extension_ring_over_a_reducible_modulus_has_no_division():
    # t^2 - 1 = (t - 1)(t + 1): the ring has zero divisors and computes
    # with them; it offers no division to trip over them.
    ext = FieldExtension([F(-1), F(0), F(1)], approx=F(1))
    t = ext.generator()
    assert (t - ext.one()) * (t + ext.one()) == ext.zero()
    assert t * t == ext.one()
    with pytest.raises(TypeError):
        1 / t
    with pytest.raises(TypeError):
        ext.one() / t


def test_extension_over_surd_coefficients():
    # Base field containing sqrt2, adjoin a root of t^2 - sqrt2 * t - 1.
    modulus = [QuadScalar(-1), -SQRT2, QuadScalar(1)]
    ext = FieldExtension(modulus, embed=QuadScalar, approx=F(19, 10))
    t = ext.generator()
    assert t * t == ext.scalar(SQRT2) * t + ext.one()
    # From the modulus, t (t - sqrt2) = 1.
    assert t * (t - ext.scalar(SQRT2)) == ext.one()
