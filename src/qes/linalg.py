"""Exact linear algebra and univariate polynomials.

Matrix routines (RREF, rank, null space) are generic over any exact field
whose elements support +, -, *, / and == 0 (Fraction, QuadScalar); a
linear solve is one `rref` of the augmented matrix, which its caller reads
(`families._solve_over_basis`).  The characteristic polynomial is the
continuant of a tridiagonal matrix's three diagonals.  Polynomials are
ascending rational coefficient lists; their root step clears denominators
once, proves the polynomial squarefree by one gcd modulo a prime, and
isolates and refines its positive roots on integers (Descartes' rule of
signs on dyadic intervals, signs by integer Horner).  A polynomial in
lambda, such as an entry of the Rabi null vector, is such a list too:
membership of a root is a remainder by its polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .scalars import reciprocal

Matrix = List[List[object]]
Vector = List[object]


# ---------------------------------------------------------------------------
# Generic exact matrix algebra
# ---------------------------------------------------------------------------

def rref(matrix: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    Each elimination touches only the pivot row's nonzero columns, since a
    zero there leaves the other row's entry as it is; the family basis
    matrices are mostly zeros.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = reciprocal(rows[r][col])
        pivot = rows[r] = [inv * x for x in rows[r]]
        support = [k for k, x in enumerate(pivot) if x != 0]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                factor = row[col]
                for k in support:
                    row[k] = row[k] - factor * pivot[k]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: Matrix) -> int:
    return len(rref(matrix)[1])


def nullspace(matrix: Matrix) -> List[Vector]:
    """Exact basis of the right null space."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    red, pivots = rref(matrix)
    one = _one_like(matrix)
    zero = one - one
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [zero] * ncols
        vec[free] = one
        for i, col in enumerate(pivots):
            vec[col] = -red[i][free]
        basis.append(vec)
    return basis


def _one_like(matrix: Matrix):
    for row in matrix:
        for x in row:
            if x != 0:
                return reciprocal(x) * x
    return Fraction(1)


def charpoly(diagonal: Sequence, couplings: Sequence) -> List[Fraction]:
    """Monic det(xI - A), ascending, of the tridiagonal A with diagonal a_kk
    and couplings[k - 1] = a_{k,k-1} a_{k-1,k}.

    Exact over any field of characteristic 0, in O(n^2) operations by the
    continuant D_k = (x - a_kk) D_{k-1} - a_{k,k-1} a_{k-1,k} D_{k-2}.
    """
    one = _one_like([diagonal, couplings])
    zero = one - one
    previous: List[Fraction] = []
    current = [one]
    for k, entry in enumerate(diagonal):
        following = [c - entry * x for c, x in zip([zero] + current, current + [zero])]
        if k:
            coupling = couplings[k - 1]
            for i, c in enumerate(previous):
                following[i] = following[i] - coupling * c
        previous, current = current, following
    return current


# ---------------------------------------------------------------------------
# Fraction polynomials (ascending coefficient lists)
# ---------------------------------------------------------------------------

def poly_trim(p: List[Fraction]) -> List[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p: Sequence, q: Sequence) -> List:
    """The product of two ascending coefficient lists, trimmed."""
    out: List = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_float(p: Sequence, point: float) -> float:
    """The value of p at a float point, summed term by term in ascending order."""
    total = 0.0
    power = 1.0
    for c in p:
        total += float(c) * power
        power *= point
    return total


def poly_divmod(p: Sequence[Fraction], q: Sequence[Fraction]):
    p = poly_trim(list(p))
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    while len(rem) >= len(q) and poly_trim(rem):
        rem = poly_trim(rem)
        if len(rem) < len(q):
            break
        factor = rem[-1] * reciprocal(q[-1])
        shift = len(rem) - len(q)
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem = poly_trim(rem)
    return poly_trim(quot), poly_trim(rem)


# ---------------------------------------------------------------------------
# The real-root step on integer polynomials
# ---------------------------------------------------------------------------

# A prime whose gcd test proves a polynomial squarefree over Q.
SQUAREFREE_PRIME = 2 ** 61 - 1


def _integer_multiple(p: Sequence[Fraction]) -> List[int]:
    """The primitive integer polynomial that is a positive multiple of p."""
    p = poly_trim([Fraction(c) for c in p])
    if not p:
        return []
    den = math.lcm(*(c.denominator for c in p))
    p = [c.numerator * (den // c.denominator) for c in p]
    content = math.gcd(*p)
    return [c // content for c in p]


def _gcd_mod(a: List[int], b: List[int], prime: int) -> List[int]:
    """gcd of two polynomials over GF(prime), ascending, up to a unit."""
    a, b = poly_trim([c % prime for c in a]), poly_trim([c % prime for c in b])
    while b:
        inverse = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            factor, shift = a[-1] * inverse % prime, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * c) % prime
            a = poly_trim(a)
        a, b = b, a
    return a


def squarefree_modulo(p: List[int]) -> bool:
    """Whether `SQUAREFREE_PRIME` proves the integer polynomial p squarefree over Q.

    It does when lc(p) is nonzero modulo the prime and gcd(p, p') is a
    constant there: a square factor f^2 of p over Z keeps its degree
    modulo the prime, since lc(f) divides lc(p), and so divides both.
    """
    derivative = [i * c for i, c in enumerate(p)][1:]
    return (p[-1] % SQUAREFREE_PRIME != 0
            and len(_gcd_mod(p, derivative, SQUAREFREE_PRIME)) == 1)


def _sign_at(p: List[int], a: int, e: int) -> int:
    """Sign of p(a / 2^e), from 2^(e d) p(a / 2^e) by integer Horner."""
    total = p[-1]
    for k, c in enumerate(reversed(p[:-1]), 1):
        total = total * a + (c << (e * k))
    return (total > 0) - (total < 0)


def _taylor_shift(p: List[int]) -> List[int]:
    """p(x + 1)."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _roots_in_unit_interval(q: List[int]) -> int:
    """Descartes' bound on the roots of q in (0, 1): the sign variations of
    (x + 1)^d q(1 / (x + 1)).  It is exact when it is 0 or 1."""
    signs = [c > 0 for c in _taylor_shift(q[::-1]) if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def isolate_real_roots(p: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint intervals, ascending, each holding exactly one positive root of p.

    p must be squarefree, which `squarefree_modulo` proves once; an unproved
    p is a ValueError.  p becomes the primitive integer q(x) = p(2^k x),
    with 2^k above Fujiwara's bound on the roots (Tohoku Math. J. 10 (1916)
    167), so its positive roots lie in (0, 1).  Collins-Akritas bisection
    (SYMSAC 1976, as in Rouillier & Zimmermann, J. Comput. Appl. Math. 162
    (2004) 33) then halves each dyadic interval (c/2^e, (c+1)/2^e), carried
    as the integer polynomial whose roots in (0, 1) are q's in it, until
    Descartes' rule counts 0 or 1 roots inside.  An interval is kept only
    if neither end is a root, so p changes sign across it; a midpoint that
    is a root comes back as (r, r), and a zero root is never reported.
    """
    poly = _integer_multiple(p)
    if len(poly) <= 1:
        return []
    if not squarefree_modulo(poly):
        raise ValueError(f"the polynomial may have a repeated root: gcd(p, p') "
                         f"modulo {SQUAREFREE_PRIME} is not a constant")
    degree, lead = len(poly) - 1, poly[-1].bit_length()
    # |a_i / a_d|^(1/(d-i)) < 2^m_i, so every root lies below 2^(1 + max m_i).
    k = max(0, 1 + max((-((lead - 1 - abs(c).bit_length()) // (degree - i))
                        for i, c in enumerate(poly[:-1]) if c), default=-1))
    scale = Fraction(2 ** k)
    found = []
    stack = [(0, 0, [c << (k * i) for i, c in enumerate(poly)])]
    while stack:
        c, e, q = stack.pop()
        count = _roots_in_unit_interval(q)
        if count == 0:
            continue
        if count == 1 and q[0] and sum(q):
            found.append((scale * Fraction(c, 2 ** e), scale * Fraction(c + 1, 2 ** e)))
            continue
        left = [coeff << (len(q) - 1 - i) for i, coeff in enumerate(q)]
        right = _taylor_shift(left)
        if right[0] == 0:
            root = scale * Fraction(2 * c + 1, 2 ** (e + 1))
            found.append((root, root))
        stack += [(2 * c + 1, e + 1, right), (2 * c, e + 1, left)]
    return sorted(found)


def refine_root(p: Sequence[Fraction], lo: Fraction,
                hi: Fraction) -> Tuple[Fraction, Fraction]:
    """Bisect a dyadic interval across which p changes sign down to a
    relative width of 2^-50; an end that is a root r gives (r, r).

    p changes sign across each interval of `isolate_real_roots`, and every
    midpoint is a/2^e, at which p's sign comes from integer Horner.
    """
    poly = _integer_multiple(p)
    if any(x.denominator & (x.denominator - 1) for x in (lo, hi)):
        raise ValueError("interval endpoints must be dyadic")
    e = max(lo.denominator, hi.denominator).bit_length() - 1
    a, b = (int(x * 2 ** e) for x in (lo, hi))
    sa, sb = _sign_at(poly, a, e), _sign_at(poly, b, e)
    if sa == 0:
        return lo, lo
    if sb == 0:
        return hi, hi
    if sa == sb:
        raise ValueError("interval endpoints do not bracket a sign change")
    while (b - a) << 50 > max(abs(a), abs(b)):
        a, b, e, mid = 2 * a, 2 * b, e + 1, a + b
        sign = _sign_at(poly, mid, e)
        if sign == 0:
            return Fraction(mid, 2 ** e), Fraction(mid, 2 ** e)
        a, b = (mid, b) if sign == sa else (a, mid)
    return Fraction(a, 2 ** e), Fraction(b, 2 ** e)


def minimal_factors(p: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Every positive root of the squarefree p as a refined dyadic interval.

    `isolate_real_roots` proves p squarefree with one gcd modulo
    `SQUAREFREE_PRIME` and isolates the positive roots once, and each
    interval is refined by `refine_root`; the intervals come in ascending
    order.  The name outlives a rational-factor search that is gone:
    `perfbench/traced.py` times this step under it, so a rename waits for
    that benchmark's next span list.
    """
    return [refine_root(p, lo, hi) for lo, hi in isolate_real_roots(p)]
