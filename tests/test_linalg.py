import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _algebra import (dense_rref, dense_tridiagonal, faddeev_leverrier, mat_commutator,
                      mat_identity, mat_mul, poly_eval)
from qes import linalg
from qes.cli import _lambda_text
from qes.linalg import (SQUAREFREE_PRIME, charpoly, isolate_real_roots, minimal_factors,
                        nullspace, poly_divmod, poly_float, poly_mul, poly_trim, rank,
                        refine_root, rref, squarefree_modulo)
from qes.scalars import format_scalar
from qes.scalars import QuadScalar, SQRT2

F = Fraction

entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def tridiagonals(n):
    """(lower, main, upper) of an n x n tridiagonal matrix with random entries."""
    off = st.lists(entries, min_size=max(n - 1, 0), max_size=max(n - 1, 0))
    return st.tuples(off, st.lists(entries, min_size=n, max_size=n), off)


def continuant(lower, main, upper):
    """`charpoly` of the tridiagonal matrix with these diagonals."""
    return charpoly(main, [b * a for b, a in zip(lower, upper)])


sizes = st.integers(min_value=1, max_value=5)


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


def sparse_matrices(element):
    """Up to 7 x 9 matrices, about two thirds of whose entries are zero."""
    zero = st.just(F(0))
    return st.integers(1, 7).flatmap(lambda height: st.integers(1, 9).flatmap(
        lambda width: st.lists(st.lists(st.one_of(zero, zero, element),
                                        min_size=width, max_size=width),
                               min_size=height, max_size=height)))


surds = st.tuples(entries, entries).map(lambda ab: QuadScalar(ab[0], ab[1], 0, 0))


@given(st.sampled_from([entries, surds]).flatmap(sparse_matrices))
@settings(max_examples=80, deadline=None)
def test_sparse_rref_equals_the_dense_elimination(matrix):
    assert rref(matrix) == dense_rref(matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=4), st.data())
def test_rank_of_low_rank_products_equals_the_dense_rank(nrows, ncols, rank_cap, data):
    # Products of an nrows x k and a k x ncols matrix have rank at most k,
    # so small k gives rank-deficient matrices; all-zero ones come too.
    ints = st.integers(min_value=-40, max_value=40)
    k = min(rank_cap, nrows, ncols)
    left = data.draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                              min_size=nrows, max_size=nrows))
    right = data.draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                               min_size=k, max_size=k))
    matrix = [[F(sum(a * b for a, b in zip(row, col))) for col in zip(*right)]
              if right else [F(0)] * ncols for row in left]
    assert rank(matrix) == len(dense_rref(matrix)[1]) <= k


def has_float(value):
    return isinstance(value, float) or (
        isinstance(value, (list, tuple)) and any(map(has_float, value)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3), st.data())
def test_int_entries_give_the_fraction_results(nrows, ncols, k, data):
    # The module promises exact results, so an int entry must not turn a
    # quotient into a float: rank([[9, -7], [-9, 7]]) once came out as 2.
    ints = st.integers(min_value=-10 ** 18, max_value=10 ** 18)
    left = data.draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                              min_size=nrows, max_size=nrows))
    right = data.draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                               min_size=k, max_size=k))
    matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    as_fractions = [[F(x) for x in row] for row in matrix]
    assert rank(matrix) == rank(as_fractions)
    basis = nullspace(matrix)
    assert basis == nullspace(as_fractions) and not has_float(basis)
    diagonal = data.draw(st.lists(ints, min_size=nrows, max_size=nrows))
    couplings = data.draw(st.lists(ints, min_size=nrows - 1, max_size=nrows - 1))
    poly = charpoly(diagonal, couplings)
    assert poly == charpoly([F(x) for x in diagonal], [F(x) for x in couplings])
    assert not has_float(poly)


def test_int_entries_give_the_fraction_results_on_the_seen_cases():
    assert rank([[9, -7], [-9, 7]]) == 1
    assert nullspace([[9, -7], [-9, 7]]) == [[F(7, 9), F(1)]]
    assert charpoly([10 ** 17 + 1, 3], [2]) == [3 * 10 ** 17 + 1, -(10 ** 17 + 4), 1]
    assert poly_divmod([1, 0, 1], [1, 2]) == ([F(-1, 4), F(1, 2)], [F(5, 4)])
    assert isolate_real_roots([-2, 0, 1]) == isolate_real_roots([F(-2), F(0), F(1)])


def test_rank_of_empty_zero_and_rank_deficient_matrices():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    # The second column has no pivot, and rows 1 and 3 are dependent.
    assert rank([[0, 0, 2], [3, 6, 1], [0, 0, 4], [1, 2, 5]]) == 2
    assert rank([[2, 4], [3, 6], [5, 10]]) == 1


@given(sizes.flatmap(tridiagonals))
@settings(max_examples=40)
def test_charpoly_matches_numpy(diagonals):
    exact = continuant(*diagonals)
    m = dense_tridiagonal(*diagonals)
    approx = np.poly(np.array(m, dtype=float))[::-1]  # ascending, monic
    assert len(exact) == len(m) + 1
    assert exact[-1] == 1
    for a, b in zip(exact, approx):
        assert float(a) == pytest.approx(b, abs=1e-6 * (1 + abs(b)))


@given(sizes.flatmap(tridiagonals))
@settings(max_examples=40, deadline=None)
def test_constant_coefficient_is_signed_determinant(diagonals):
    sympy = pytest.importorskip("sympy")
    m = dense_tridiagonal(*diagonals)
    det = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                        for row in m]).det()
    assert continuant(*diagonals)[0] == F(int(det.p), int(det.q)) * (-1) ** len(m)


@given(tridiagonals(3))
@settings(max_examples=20)
def test_cayley_hamilton_in_dimension_three(diagonals):
    m = dense_tridiagonal(*diagonals)
    n = len(m)
    acc = [[F(0)] * n for _ in range(n)]
    power = mat_identity(n)
    for c in continuant(*diagonals):
        acc = [[acc[i][j] + c * power[i][j] for j in range(n)] for i in range(n)]
        power = mat_mul(power, m)
    assert all(v == 0 for row in acc for v in row)


@given(st.integers(min_value=0, max_value=6).flatmap(tridiagonals))
@settings(max_examples=40)
def test_continuant_equals_the_general_characteristic_polynomial(diagonals):
    assert continuant(*diagonals) == faddeev_leverrier(dense_tridiagonal(*diagonals))


def test_charpoly_of_a_tridiagonal_surd_matrix():
    diagonals = ([QuadScalar(3), QuadScalar(-1)],
                 [SQRT2, QuadScalar(0), QuadScalar(2)],
                 [QuadScalar(1), SQRT2])
    assert continuant(*diagonals) == faddeev_leverrier(dense_tridiagonal(*diagonals))


def test_matrix_commutator():
    a = [[F(0), F(1)], [F(0), F(0)]]
    b = [[F(0), F(0)], [F(1), F(0)]]
    assert mat_commutator(a, b) == [[F(1), F(0)], [F(0), F(-1)]]


# -- univariate polynomial tools ----------------------------------------------

def test_descartes_isolation_counts_and_separates_positive_roots():
    # (x-1)(x-2)(x+3)(x^2-5): the positive roots 1, 2 and sqrt5 are isolated,
    # 1 and 2 as dyadic midpoints (r, r); -3 and -sqrt5 are not.
    p = poly_mul(poly_mul(poly_mul([F(-1), F(1)], [F(-2), F(1)]), [F(3), F(1)]),
                 [F(-5), F(0), F(1)])
    intervals = isolate_real_roots(p)
    assert len(intervals) == 3 and intervals == sorted(intervals)
    assert intervals[:2] == [(F(1), F(1)), (F(2), F(2))]
    lo, hi = intervals[2]
    assert 2 < lo < hi and lo * lo < 5 < hi * hi
    roots = [float(sum(refine_root(p, lo, hi))) / 2 for lo, hi in intervals]
    assert roots == pytest.approx([1.0, 2.0, math.sqrt(5)], abs=1e-14)


def test_isolation_skips_a_zero_root_and_keeps_dyadic_ends():
    # x (x + 1) (3x - 1) (x - 5): the zero root and -1 are dropped.
    p = poly_mul(poly_mul([F(0), F(1)], [F(1), F(1)]), poly_mul([F(-1), F(3)], [F(-5), F(1)]))
    intervals = isolate_real_roots(p)
    assert len(intervals) == 2
    for (lo, hi), root in zip(intervals, (F(1, 3), F(5))):
        assert lo < root < hi or lo == root == hi
        assert all(x.denominator & (x.denominator - 1) == 0 for x in (lo, hi))
    assert isolate_real_roots([F(0), F(2)]) == [] and isolate_real_roots([F(3)]) == []
    assert minimal_factors([F(-3, 4), F(1)]) == [(F(3, 4), F(3, 4))]


def test_modular_gcd_refuses_a_repeated_root_and_passes_the_squarefree_part():
    # (x-1)^2 (x+3): gcd(p, p') = x - 1 modulo the prime as over Q, so
    # isolation refuses p; its squarefree part p / (x - 1) passes.
    p = poly_mul(poly_mul([F(-1), F(1)], [F(-1), F(1)]), [F(3), F(1)])
    assert not squarefree_modulo([3, -5, 1, 1])
    with pytest.raises(ValueError, match=r"repeated root: gcd\(p, p'\) modulo "
                                         r"2305843009213693951 is not a constant"):
        isolate_real_roots(p)
    sf, rem = poly_divmod(p, [F(-1), F(1)])
    assert rem == [] and sf == [F(-3), F(2), F(1)]
    assert squarefree_modulo([-3, 2, 1])
    assert len(isolate_real_roots(sf)) == 1


def test_a_leading_coefficient_that_the_prime_divides_proves_nothing():
    # P x^2 - 1 is squarefree, but modulo P it drops to degree 0.
    assert SQUAREFREE_PRIME == 2 ** 61 - 1
    assert not squarefree_modulo([-1, 0, SQUAREFREE_PRIME])
    assert squarefree_modulo([-1, 0, SQUAREFREE_PRIME + 1])


def test_refine_root_handles_a_root_of_even_multiplicity():
    # (x^2 - 2)^2 (x + 1): p does not change sign across sqrt2, so isolation
    # refuses p and refinement of (1, 2) refuses it too; the squarefree part
    # is refined to a relative width of 2^-50.
    p = poly_mul(poly_mul([F(-2), F(0), F(1)], [F(-2), F(0), F(1)]), [F(1), F(1)])
    with pytest.raises(ValueError, match="repeated root"):
        isolate_real_roots(p)
    with pytest.raises(ValueError, match="do not bracket a sign change"):
        refine_root(p, F(1), F(2))
    lo, hi = refine_root(poly_mul([F(-2), F(0), F(1)], [F(1), F(1)]), F(1), F(2))
    assert lo < hi and abs(float(lo) - math.sqrt(2)) < 1e-15


def test_minimal_factors_without_a_search_isolates_the_squarefree_part_once(monkeypatch):
    # (x^2 - 2)(x - 3) is squarefree: one modular gcd proves it, and every
    # positive root is refined.  (x^2 - 2)^2 (x - 3) is refused after one
    # gcd, before any isolation or refinement.
    sq = poly_mul([F(-2), F(0), F(1)], [F(-3), F(1)])
    expected = [refine_root(sq, lo, hi) for lo, hi in isolate_real_roots(sq)]
    proofs = []
    monkeypatch.setattr(linalg, "squarefree_modulo",
                        lambda q: proofs.append(q) or squarefree_modulo(q))
    assert minimal_factors(sq) == expected and len(expected) == 2
    assert proofs == [[6, -2, -3, 1]]
    proofs.clear()
    with pytest.raises(ValueError, match="may have a repeated root"):
        minimal_factors(poly_mul(sq, [F(-2), F(0), F(1)]))
    assert len(proofs) == 1


def test_isolation_reuses_a_given_chain(monkeypatch):
    # Isolation called alone proves p squarefree with one gcd modulo the
    # prime and bisects on that proof; the same single gcd is what refuses
    # a repeated root.  The name is kept from the Sturm chain it replaced.
    sq = poly_mul([F(-2), F(0), F(1)], [F(-3), F(1)])
    proofs = []
    monkeypatch.setattr(linalg, "squarefree_modulo",
                        lambda q: proofs.append(q) or squarefree_modulo(q))
    intervals = isolate_real_roots(sq)
    assert proofs == [[6, -2, -3, 1]] and len(intervals) == 2
    proofs.clear()
    with pytest.raises(ValueError, match="repeated root"):
        isolate_real_roots(poly_mul(sq, [F(-3), F(1)]))
    assert len(proofs) == 1


small_ints = st.integers(min_value=-6, max_value=6)


@given(st.lists(small_ints, min_size=2, max_size=6),
       st.lists(small_ints, min_size=2, max_size=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_descartes_isolation_matches_sympy(base, repeated, power):
    # base * repeated^power: the prime proves p squarefree exactly when it
    # is, and isolation then finds every positive root, one per interval.
    sympy = pytest.importorskip("sympy")
    assume(base[-1] != 0 and repeated[-1] != 0)
    p = [F(c) for c in base]
    for _ in range(power):
        p = poly_mul(p, [F(c) for c in repeated])
    x = sympy.Symbol("x")
    poly = sympy.Poly([int(c) for c in reversed(p)], x)
    assume(poly.degree() > 0)
    squarefree = poly.sqf_part().degree() == poly.degree()
    assert squarefree_modulo([int(c) for c in p]) == squarefree
    if not squarefree:
        with pytest.raises(ValueError, match="repeated root"):
            isolate_real_roots(p)
        return
    intervals = isolate_real_roots(p)
    assert len(intervals) == poly.count_roots(0) - (poly.eval(0) == 0)
    for lo, hi in intervals:
        assert poly.eval(lo) == 0 if lo == hi else (
            poly.count_roots(lo, hi) == 1 and poly.eval(lo) * poly.eval(hi) < 0)


@given(st.lists(small_ints, min_size=1, max_size=5),
       st.lists(small_ints, min_size=1, max_size=4),
       st.lists(small_ints, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_modular_gcd_has_the_degree_of_the_rational_gcd(common, a, b):
    # gcd(common * a, common * b) over Q by Euclid's remainders, against the
    # gcd of the integer polynomials modulo the prime.
    assume(common[-1] and a[-1] and b[-1])
    x, y = poly_mul(common, a), poly_mul(common, b)
    p, q = [int(c) for c in x], [int(c) for c in y]
    while y:
        x, y = y, poly_divmod(x, y)[1]
    assert len(linalg._gcd_mod(p, q, SQUAREFREE_PRIME)) == len(x)


def test_refine_root_reaches_requested_precision():
    # The requested precision is a relative width of 2^-50.
    p = [F(-2), F(0), F(1)]  # x^2 - 2
    lo, hi = refine_root(p, F(1), F(2))
    assert lo * lo < 2 < hi * hi
    assert 0 < (hi - lo) / hi <= F(1, 2 ** 50)
    assert (hi - lo) / hi > F(1, 2 ** 51)
    assert hi.denominator & (hi.denominator - 1) == 0
    # 3/4 is a dyadic root: the bisection lands on it and returns (r, r).
    assert refine_root([F(-3), F(4)], F(0), F(2)) == (F(3, 4), F(3, 4))
    with pytest.raises(ValueError, match="dyadic"):
        refine_root(p, F(1), F(5, 3))


def test_minimal_factors_keeps_interval_root_pairing():
    # Each refined interval stays inside its own isolating interval, so it
    # still holds that root and no other; p changes sign across it.
    p = poly_mul(poly_mul([F(-2), F(0), F(1)], [F(-3), F(1)]), [F(-7, 5), F(1)])
    refined = minimal_factors(p)
    isolating = isolate_real_roots(p)
    assert len(refined) == len(isolating) == 3
    for (lo, hi), (a, b) in zip(refined, isolating):
        assert a <= lo <= hi <= b and hi - lo <= hi / 2 ** 50
        assert poly_eval(p, lo) * poly_eval(p, hi) <= 0


# -- polynomials in lambda ------------------------------------------------------

polys = st.lists(entries, max_size=5)


@given(polys, polys, entries)
@settings(max_examples=60)
def test_lambda_polynomial_arithmetic_commutes_with_evaluation(a, b, x):
    product = poly_mul(a, b)
    assert poly_eval(product, x) == poly_eval(a, x) * poly_eval(b, x)
    assert not product or product[-1] != 0
    a, b = poly_trim(a), poly_trim(b)
    assert len(product) == (len(a) + len(b) - 1 if a and b else 0)
    assert poly_mul(a, b) == poly_mul(b, a)


def test_lambda_polynomial_arithmetic_over_the_rationals():
    p, q = [F(1), F(2)], [F(-1, 2), F(0), F(3)]
    assert poly_mul(p, q) == [F(-1, 2), F(-1), F(3), F(6)]
    assert poly_mul(p, []) == poly_mul([], q) == []
    assert poly_mul([F(2), F(0)], [F(3), F(0), F(0)]) == [F(6)]
    assert poly_mul([F(1), F(1)], [F(1), F(-1)]) == [F(1), F(0), F(-1)]


def test_lambda_polynomials_over_surd_coefficients():
    # A cancelled middle coefficient stays, as an exact zero of the field.
    product = poly_mul([QuadScalar(1), SQRT2], [QuadScalar(1), -SQRT2])
    assert product == [QuadScalar(1), QuadScalar(0), QuadScalar(-2)] and product[1] == 0
    assert poly_mul([SQRT2], [F(1), F(1, 2)]) == [SQRT2, SQRT2 / 2]


def test_lambda_polynomial_strings_keep_the_report_format():
    def text(coeffs):
        return _lambda_text([format_scalar(c) for c in coeffs])
    assert text([F(-551, 640), F(-11, 80), F(1, 40)]) == \
        "-551/640 + (-11/80)*lam + (1/40)*lam^2"
    assert text([F(13, 8), F(1, 2)]) == "13/8 + (1/2)*lam"
    assert text([F(1)]) == "1"
    assert text([]) == "0"
    assert text([F(0), F(0), F(3)]) == "(3)*lam^2"
    assert text([F(1), F(0), F(-2)]) == "1 + (-2)*lam^2"
    sqrt3 = QuadScalar(0, 0, 1, 0)
    assert text([F(67, 128) * sqrt3, F(13, 48) * sqrt3, F(1, 24) * sqrt3]) == \
        "67/128*sqrt3 + (13/48*sqrt3)*lam + (1/24*sqrt3)*lam^2"


def test_lambda_polynomial_float_evaluation():
    # c_0 of the N = 2, type I lock at its lambda, as the report prints it.
    c0 = [F(-551, 640), F(-11, 80), F(1, 40)]
    assert poly_float(c0, 3.5517692016213527) == -1.0339291536832866
    r = [QuadScalar(3), QuadScalar(1)]
    assert poly_float(r, math.sqrt(2)) == pytest.approx(3 + math.sqrt(2), abs=1e-15)
    assert poly_float([SQRT2], 5.0) == math.sqrt(2)
    assert poly_float([], 2.0) == 0.0
