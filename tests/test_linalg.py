import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _algebra import (dense_rref, faddeev_leverrier, mat_commutator, mat_identity,
                      mat_mul, poly_eval, poly_mul)
from qes import linalg
from qes.linalg import (LambdaPoly, charpoly, isolate_real_roots, minimal_factors,
                        nullspace, poly_gcd, poly_trim, rank, refine_root, rref,
                        squarefree_part, sturm_chain)
from qes.scalars import QuadScalar, SQRT2

F = Fraction

entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def square_matrices(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def tridiagonal_matrices(n):
    """n x n matrices with random entries on the three diagonals, zeros off them."""
    return square_matrices(n).map(lambda m: [
        [x if abs(i - j) <= 1 else F(0) for j, x in enumerate(row)]
        for i, row in enumerate(m)])


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
def test_integer_rank_equals_the_rational_rank(nrows, ncols, rank_cap, data):
    # Products of an nrows x k and a k x ncols matrix have rank at most k,
    # so small k gives rank-deficient matrices; all-zero ones come too.
    ints = st.integers(min_value=-40, max_value=40)
    k = min(rank_cap, nrows, ncols)
    left = data.draw(st.lists(st.lists(ints, min_size=k, max_size=k),
                              min_size=nrows, max_size=nrows))
    right = data.draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                               min_size=k, max_size=k))
    matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
              if right else [0] * ncols for row in left]
    assert linalg.integer_rank(matrix) == rank([[F(x) for x in row] for row in matrix])


def test_integer_rank_of_empty_zero_and_rank_deficient_matrices():
    assert linalg.integer_rank([]) == 0
    assert linalg.integer_rank([[], []]) == 0
    assert linalg.integer_rank([[0, 0, 0], [0, 0, 0]]) == 0
    # The second column has no pivot, and rows 1 and 3 are dependent.
    assert linalg.integer_rank([[0, 0, 2], [3, 6, 1], [0, 0, 4], [1, 2, 5]]) == 2
    assert linalg.integer_rank([[2, 4], [3, 6], [5, 10]]) == 1


@given(sizes.flatmap(tridiagonal_matrices))
@settings(max_examples=40)
def test_charpoly_matches_numpy(m):
    exact = charpoly(m)
    approx = np.poly(np.array(m, dtype=float))[::-1]  # ascending, monic
    assert len(exact) == len(m) + 1
    assert exact[-1] == 1
    for a, b in zip(exact, approx):
        assert float(a) == pytest.approx(b, abs=1e-6 * (1 + abs(b)))


@given(sizes.flatmap(tridiagonal_matrices))
@settings(max_examples=40, deadline=None)
def test_constant_coefficient_is_signed_determinant(m):
    sympy = pytest.importorskip("sympy")
    det = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                        for row in m]).det()
    assert charpoly(m)[0] == F(int(det.p), int(det.q)) * (-1) ** len(m)


@given(tridiagonal_matrices(3))
@settings(max_examples=20)
def test_cayley_hamilton_in_dimension_three(m):
    n = len(m)
    acc = [[F(0)] * n for _ in range(n)]
    power = mat_identity(n)
    for c in charpoly(m):
        acc = [[acc[i][j] + c * power[i][j] for j in range(n)] for i in range(n)]
        power = mat_mul(power, m)
    assert all(v == 0 for row in acc for v in row)


def test_charpoly_refuses_an_entry_off_the_three_diagonals():
    m = [[F(1), F(2), F(0)], [F(0), F(1, 2), F(1)], [F(3), F(0), F(-1)]]
    with pytest.raises(ValueError, match=r"entry \(2, 0\)"):
        charpoly(m)
    m[2][0] = F(0)
    assert charpoly(m) == faddeev_leverrier(m)


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
    assert charpoly(m) == faddeev_leverrier(m)


def test_charpoly_of_a_tridiagonal_surd_matrix():
    m = [[SQRT2, QuadScalar(1), QuadScalar(0)],
         [QuadScalar(3), QuadScalar(0), SQRT2],
         [QuadScalar(0), QuadScalar(-1), QuadScalar(2)]]
    assert charpoly(m) == faddeev_leverrier(m)


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


# -- polynomials in lambda ------------------------------------------------------

polys = st.lists(entries, max_size=5)


@given(polys, polys, entries)
@settings(max_examples=60)
def test_lambda_polynomial_arithmetic_commutes_with_evaluation(a, b, x):
    p, q = LambdaPoly(a), LambdaPoly(b)
    pa, qb = poly_eval(a, x), poly_eval(b, x)
    assert poly_eval(list((p + q).coeffs), x) == pa + qb
    assert poly_eval(list((p - q).coeffs), x) == pa - qb
    assert poly_eval(list((p * q).coeffs), x) == pa * qb
    assert (p * q).coeffs == tuple(poly_mul(poly_trim(a), poly_trim(b)))
    for result in (p + q, p - q, p * q, -p):
        assert not result.coeffs or result.coeffs[-1] != 0


def test_lambda_polynomial_arithmetic_over_the_rationals():
    p = LambdaPoly([F(1), F(2)])
    q = LambdaPoly([F(-1, 2), F(0), F(3)])
    assert (p * q).coeffs == (F(-1, 2), F(-1), F(3), F(6))
    assert (p + q).coeffs == (F(1, 2), F(2), F(3))
    assert q - q == 0 and (q - q).coeffs == ()
    assert (F(3, 2) * p).coeffs == (p * F(3, 2)).coeffs == (F(3, 2), F(3))
    assert p - 5 == LambdaPoly([F(-4), F(2)]) and 1 + p == LambdaPoly([F(2), F(2)])
    assert LambdaPoly([F(1), F(0), F(0)]).coeffs == (F(1),)
    assert p != 1 and LambdaPoly([F(7)]) == 7
    # No division: a polynomial is a value, not a field element.
    with pytest.raises(TypeError):
        1 / p
    with pytest.raises(TypeError):
        p * "lam"


def test_lambda_polynomials_over_surd_coefficients():
    p = LambdaPoly([QuadScalar(1), SQRT2])
    q = LambdaPoly([QuadScalar(1), -SQRT2])
    assert p * q == LambdaPoly([QuadScalar(1), QuadScalar(0), QuadScalar(-2)])
    assert (p * q).coeffs[1] == 0
    assert SQRT2 * p == LambdaPoly([SQRT2, QuadScalar(2)]) == p * SQRT2
    # A rational coefficient equals its surd-field form.
    assert p + F(1, 2) == LambdaPoly([F(3, 2), SQRT2])
    assert p - p == 0


def test_lambda_polynomial_strings_keep_the_report_format():
    assert repr(LambdaPoly([F(-551, 640), F(-11, 80), F(1, 40)])) == \
        "-551/640 + (-11/80)*lam + (1/40)*lam^2"
    assert repr(LambdaPoly([F(13, 8), F(1, 2)])) == "13/8 + (1/2)*lam"
    assert repr(LambdaPoly([F(1)])) == "1"
    assert repr(LambdaPoly()) == "0"
    assert repr(LambdaPoly([F(0), F(0), F(3)])) == "(3)*lam^2"
    assert repr(LambdaPoly([F(1), F(0), F(-2)])) == "1 + (-2)*lam^2"
    sqrt3 = QuadScalar(0, 0, 1, 0)
    assert repr(LambdaPoly([F(67, 128) * sqrt3, F(13, 48) * sqrt3, F(1, 24) * sqrt3])) == \
        "67/128*sqrt3 + (13/48*sqrt3)*lam + (1/24*sqrt3)*lam^2"


def test_lambda_polynomial_float_evaluation():
    # c_0 of the N = 2, type I lock at its lambda, as the report prints it.
    c0 = LambdaPoly([F(-551, 640), F(-11, 80), F(1, 40)])
    assert c0.to_float(3.5517692016213527) == -1.0339291536832866
    r = LambdaPoly([QuadScalar(3), QuadScalar(1)])
    assert r.to_float(math.sqrt(2)) == pytest.approx(3 + math.sqrt(2), abs=1e-15)
    assert LambdaPoly([SQRT2]).to_float(5.0) == math.sqrt(2)
    assert LambdaPoly().to_float(2.0) == 0.0
