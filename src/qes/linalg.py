"""Exact linear algebra and univariate polynomials.

Matrix routines (RREF, rank, null space) are generic over any exact field
whose elements support +, -, *, / and == 0 (Fraction, QuadScalar), except
`integer_rank`, which stays on ints by fraction-free elimination; a linear
solve is one `rref` of the augmented matrix, which its caller reads
(`families._solve_over_basis`).  The characteristic polynomial is the
continuant of a tridiagonal matrix's three diagonals.  Polynomials are
ascending rational coefficient lists; their real-root machinery refuses a
repeated root, clears denominators once and runs on integers (a primitive
Sturm chain, signs by homogeneous integer Horner evaluation).  `LambdaPoly`
is a polynomial in lambda as a value, the entry type of the Rabi null
vector: it adds and multiplies and never divides, and membership of a root
is a remainder by its polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .scalars import QuadScalar, reciprocal

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


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of an int matrix by fraction-free elimination (Bareiss, Math.
    Comp. 22 (1968) 565).

    Each step replaces every lower entry by (p*a - f*b) / p_prev, a minor
    of the original matrix, so each division is exact and the entries stay
    ints of bounded size; a column without a pivot is skipped.
    """
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    previous, r = 1, 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r]
        p = pivot[col]
        for row in rows[r + 1:]:
            f = row[col]
            for k in range(col + 1, ncols):
                row[k] = (p * row[k] - f * pivot[k]) // previous
        previous = p
        r += 1
    return r


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
# Integer polynomials behind the real-root machinery
# ---------------------------------------------------------------------------

def _content_free(p: List[int]) -> List[int]:
    content = math.gcd(*p)
    return p if content <= 1 else [c // content for c in p]


def _integer_multiple(p: Sequence[Fraction]) -> List[int]:
    """The primitive integer polynomial that is a positive multiple of p."""
    p = poly_trim([Fraction(c) for c in p])
    if not p:
        return []
    den = math.lcm(*(c.denominator for c in p))
    return _content_free([c.numerator * (den // c.denominator) for c in p])


def _positive_remainder(a: List[int], b: List[int]) -> List[int]:
    """|lc(b)|^k times the remainder of a by b: each step scales by |lc(b)|."""
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    rem = list(a)
    while len(rem) >= len(b):
        if rem[-1]:
            shift, factor = len(rem) - len(b), sign * rem[-1]
            rem = [scale * c for c in rem]
            for i, c in enumerate(b):
                rem[shift + i] -= factor * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _sign_at(p: List[int], x: Fraction, powers: Optional[List[int]] = None) -> int:
    """Sign of p(x) from q^d p(a/q), x = a/q, q > 0; `powers` holds q^0..q^d."""
    if powers is None:
        powers = [x.denominator ** k for k in range(len(p))]
    total = p[-1]
    for k, c in enumerate(reversed(p[:-1]), 1):
        total = total * x.numerator + c * powers[k]
    return (total > 0) - (total < 0)


def sturm_chain(p: Sequence[Fraction]) -> List[List[int]]:
    """Sturm chain of p as a primitive pseudo-remainder sequence over Z.

    Member k is a positive integer multiple of the k-th member of the
    classical rational chain p, p', -rem(p, p'), ..., so the two give the
    same sign counts at every point.  Each pseudo-remainder is negated and
    divided by its content (Collins, J. ACM 14 (1967) 128), which keeps the
    coefficients small without any rational arithmetic.  The last member
    is gcd(p, p') up to a constant.
    """
    first = _integer_multiple(p)
    chain = [first, _content_free([i * c for i, c in enumerate(first)][1:])]
    while chain[-1]:
        rem = _positive_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_content_free([-c for c in rem]))
    return [c for c in chain if c]


def _sign_changes(chain: List[List[int]], x: Fraction) -> int:
    powers = [x.denominator ** k for k in range(len(chain[0]))]
    changes = last = 0
    for poly in chain:
        sign = _sign_at(poly, x, powers)
        if sign:
            changes += last == -sign
            last = sign
    return changes


def root_bound(p: Sequence[Fraction]) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    p = poly_trim(list(p))
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=Fraction(0))
    return Fraction(1) + m * reciprocal(lead)


def isolate_real_roots(p: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint open intervals each containing exactly one real root of p.

    p must be squarefree: the last member of its integer Sturm chain is
    gcd(p, p') up to a constant, and a nonconstant one, a repeated root, is
    a ValueError.  Bisects (-B, B), B the Cauchy bound of p, counting roots
    with the chain; a midpoint that hits a root is nudged right by
    1/1000003 of the interval.
    """
    p = poly_trim(list(p))
    if len(p) <= 1:
        return []
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        raise ValueError(f"the polynomial has a repeated root: gcd(p, p') has degree "
                         f"{len(chain[-1]) - 1}")
    bound = root_bound(p)
    # Each entry carries the sign changes at both ends; their difference
    # is the number of roots inside, so every point is evaluated once.
    intervals = []
    stack = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 0:
            continue
        if va - vb == 1:
            intervals.append((a, b))
            continue
        mid = (a + b) / 2
        # Nudge off a root of the chain's first polynomial.
        while _sign_at(chain[0], mid) == 0:
            mid = mid + (b - a) / 1000003
        vmid = _sign_changes(chain, mid)
        stack.append((a, mid, va, vmid))
        stack.append((mid, b, vmid, vb))
    intervals.sort()
    return intervals


def refine_root(p: Sequence[Fraction], lo: Fraction, hi: Fraction,
                digits: int = 14) -> Tuple[Fraction, Fraction]:
    """Shrink an isolating interval by bisection to ~`digits` significant digits.

    p must change sign across the interval, as a squarefree p does across
    each interval of `isolate_real_roots`.
    """
    poly = _integer_multiple(p)
    slo, shi = _sign_at(poly, lo), _sign_at(poly, hi)
    if slo == 0:
        return lo, lo
    if shi == 0:
        return hi, hi
    if slo == shi:
        raise ValueError("interval endpoints do not bracket a sign change")
    scale = max(abs(lo), abs(hi), Fraction(1))
    target = scale / Fraction(10) ** digits
    while hi - lo > target:
        mid = (lo + hi) / 2
        smid = _sign_at(poly, mid)
        if smid == 0:
            return mid, mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# The real-root step
# ---------------------------------------------------------------------------

def minimal_factors(p: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Every real root of the squarefree p as a refined isolating interval.

    `isolate_real_roots` isolates the roots once, refusing a repeated one,
    and each interval is refined to `refine_root`'s 14-digit default; the
    intervals come in ascending order.  The name outlives a rational-factor
    search that is gone: `perfbench/traced.py` times this step under it, so
    a rename waits for that benchmark's next span list.
    """
    return [refine_root(p, lo, hi) for lo, hi in isolate_real_roots(p)]


# ---------------------------------------------------------------------------
# Polynomials in lambda with exact coefficients
# ---------------------------------------------------------------------------

_CONSTANTS = (int, Fraction, QuadScalar)


class LambdaPoly:
    """An immutable polynomial in lambda over Q or Q(sqrt2, sqrt3), ascending.

    Coefficients are stored without trailing zeros.  It adds, subtracts and
    multiplies, with Fraction, QuadScalar and int taken as constants, and has
    no division and no modulus; a caller that needs a value at a root of p
    evaluates it there, or divides by p with `poly_divmod`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[object] = ()) -> None:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("LambdaPoly is immutable")

    @staticmethod
    def _operand(other) -> Optional[Tuple[object, ...]]:
        if isinstance(other, LambdaPoly):
            return other.coeffs
        return (other,) if isinstance(other, _CONSTANTS) else None

    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        return LambdaPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self + -LambdaPoly(b)

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        if not self.coeffs or not b:
            return LambdaPoly()
        raw: List[object] = [0] * (len(self.coeffs) + len(b) - 1)
        for i, x in enumerate(self.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y != 0:
                    raw[i + j] = raw[i + j] + x * y
        return LambdaPoly(raw)

    __rmul__ = __mul__

    def __eq__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return self.coeffs == LambdaPoly(b).coeffs

    def to_float(self, point: float) -> float:
        """The value at `point`, summed term by term in ascending order."""
        total = 0.0
        power = 1.0
        for c in self.coeffs:
            total += float(c) * power
            power *= point
        return total

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"({c})*lam")
            else:
                parts.append(f"({c})*lam^{i}")
        return " + ".join(parts) if parts else "0"
