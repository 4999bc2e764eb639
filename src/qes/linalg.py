"""Exact dense linear algebra, univariate polynomials and quotient rings.

Matrix routines are generic over any exact field whose elements support
+, -, *, / and == 0 (Fraction, QuadScalar). Polynomials are ascending
rational coefficient lists; their real-root machinery clears denominators
once and runs on integers (a primitive Sturm chain, signs by homogeneous
integer Horner evaluation). `FieldExtension` is the quotient ring
base[t]/(m(t)): it adds and multiplies but never divides, so a squarefree
modulus suffices and no irreducibility is assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

Matrix = List[List[object]]
Vector = List[object]


# ---------------------------------------------------------------------------
# Generic exact matrix algebra
# ---------------------------------------------------------------------------

def mat_identity(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            total = a[i][0] * b[0][j]
            for t in range(1, k):
                total = total + a[i][t] * b[t][j]
            row.append(total)
        out.append(row)
    return out


def mat_scale(a: Matrix, s) -> Matrix:
    return [[s * x for x in row] for row in a]


def rref(matrix: Matrix, pivot_columns: Optional[int] = None) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    With `pivot_columns`, pivots are sought only in that many leading
    columns; the row operations still act on whole rows, so the columns
    after them carry the same transform without being reduced themselves.
    Each elimination touches only the pivot row's nonzero columns, since a
    zero there leaves the other row's entry as it is; the `[A | I]` systems
    of the family bases are mostly zeros.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0]) if pivot_columns is None else pivot_columns
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
        inv = 1 / rows[r][col]
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


def solve_linear(matrix: Matrix, rhs: Vector) -> Optional[Vector]:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if not matrix:
        return [] if all(x == 0 for x in rhs) else None
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    zero = _zero_like(matrix, rhs)
    solution = [zero] * ncols
    for i, col in enumerate(pivots):
        solution[col] = red[i][ncols]
    return solution


def nullspace(matrix: Matrix) -> List[Vector]:
    """Exact basis of the right null space."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    red, pivots = rref(matrix)
    zero = _zero_like(matrix, [])
    one = _one_like(matrix)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [zero] * ncols
        vec[free] = one
        for i, col in enumerate(pivots):
            vec[col] = -red[i][free]
        basis.append(vec)
    return basis


def _zero_like(matrix: Matrix, extra: Sequence[object]):
    for row in matrix:
        for x in row:
            return x - x
    for x in extra:
        return x - x
    return Fraction(0)


def _one_like(matrix: Matrix):
    for row in matrix:
        for x in row:
            if x != 0:
                return x / x
    return Fraction(1)


def charpoly(matrix: Matrix) -> List[Fraction]:
    """Monic characteristic polynomial det(xI - A), ascending coefficients.

    Exact over any field of characteristic 0: the continuant recurrence
    when A is tridiagonal, Faddeev-LeVerrier otherwise.
    """
    n = len(matrix)
    if all(matrix[i][j] == 0 for i in range(n) for j in range(n) if abs(i - j) > 1):
        return tridiagonal_charpoly(matrix)
    return _faddeev_leverrier(matrix)


def _faddeev_leverrier(matrix: Matrix) -> List[Fraction]:
    n = len(matrix)
    one = _one_like(matrix)
    zero = one - one
    coeffs = [zero] * n + [one]
    m = mat_identity(n, one, zero)
    for k in range(1, n + 1):
        m = mat_mul(matrix, m)
        trace = m[0][0]
        for i in range(1, n):
            trace = trace + m[i][i]
        ck = -trace / k
        coeffs[n - k] = ck
        for i in range(n):
            m[i][i] = m[i][i] + ck
    return coeffs


def tridiagonal_charpoly(matrix: Matrix) -> List[Fraction]:
    """det(xI - A) for a tridiagonal A, ascending, in O(n^2) operations by
    the continuant D_k = (x - a_kk) D_{k-1} - a_{k,k-1} a_{k-1,k} D_{k-2}.

    Entries off the three diagonals are never read; `charpoly` checks them.
    """
    one = _one_like(matrix)
    zero = one - one
    previous: List[Fraction] = []
    current = [one]
    for k, row in enumerate(matrix):
        following = [c - row[k] * x for c, x in zip([zero] + current, current + [zero])]
        if k:
            coupling = row[k - 1] * matrix[k - 1][k]
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
        factor = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quot[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem = poly_trim(rem)
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    a, b = poly_trim(list(p)), poly_trim(list(q))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


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


def _squarefree_with_chain(p: Sequence[Fraction]):
    """(squarefree part of p, the Sturm chain of that part)."""
    p = poly_trim(list(p))
    if len(p) <= 1:
        return p, []
    chain = sturm_chain(p)
    gcd = chain[-1]
    if len(gcd) == 1:
        return p, chain
    sq = poly_divmod(p, [Fraction(c, gcd[-1]) for c in gcd])[0]
    return sq, sturm_chain(sq)


def squarefree_part(p: Sequence[Fraction]) -> List[Fraction]:
    """p divided by the monic gcd(p, p'): the same roots, each simple."""
    return _squarefree_with_chain(p)[0]


def root_bound(p: Sequence[Fraction]) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    p = poly_trim(list(p))
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


def isolate_real_roots(p: Sequence[Fraction], *, chain: Optional[List[List[int]]] = None
                       ) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint open intervals each containing exactly one real root.

    Works on the square-free part, so multiple roots are reported once.
    Bisects (-B, B), B the Cauchy bound of that part, counting roots with
    its integer Sturm chain; a midpoint that hits a root is nudged right
    by 1/1000003 of the interval.  A given `chain` is p's, and p squarefree.
    """
    if chain is None:
        sq, chain = _squarefree_with_chain(p)
    else:
        sq = poly_trim(list(p))
    if len(sq) <= 1:
        return []
    bound = root_bound(sq)
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

    If p changes sign across the interval it is a constant-sign multiple of
    its squarefree part there, so bisecting p itself picks the same halves;
    only a root of even multiplicity needs the squarefree part.
    """
    poly = _integer_multiple(p)
    slo, shi = _sign_at(poly, lo), _sign_at(poly, hi)
    if slo == shi != 0:
        poly = _integer_multiple(squarefree_part(p))
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

def minimal_factors(p: Sequence[Fraction]
                    ) -> Tuple[List[Fraction], List[Tuple[Fraction, Fraction]]]:
    """(squarefree part of p, every real root's refined isolating interval).

    The squarefree part and its integer Sturm chain are built once, the
    chain isolates the real roots once, and each interval is refined to
    `refine_root`'s 14-digit default; the intervals come in ascending
    order.  The name outlives a rational-factor search that is gone:
    `perfbench/traced.py` times this step under it, so a rename waits for
    that benchmark's next span list.
    """
    sq, chain = _squarefree_with_chain(p)
    return sq, [refine_root(sq, lo, hi) for lo, hi in isolate_real_roots(sq, chain=chain)]


# ---------------------------------------------------------------------------
# The quotient ring base[t] / (m(t))
# ---------------------------------------------------------------------------

class FieldExtension:
    """The quotient ring base[t]/(m(t)) for a monic modulus m.

    Elements are ExtElem wrappers around coefficient tuples, reduced mod m.
    The ring adds, subtracts and multiplies; it has no division.  Evaluation
    at any root of m is a ring map, so an identity computed here holds at
    every root at once, and for a squarefree m an element is zero exactly
    when it vanishes at every root: m need not be irreducible.
    """

    def __init__(self, modulus: Sequence[object], embed: Callable = Fraction,
                 approx: Optional[Fraction] = None, name: str = "t") -> None:
        mod = list(modulus)
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if mod[-1] != 1 and mod[-1] != Fraction(1):
            raise ValueError("modulus must be monic")
        self.modulus = mod
        self.embed = embed
        self.approx = approx
        self.name = name
        self.degree = len(mod) - 1
        self._zero = embed(0)
        self._one = embed(1)

    def element(self, coeffs: Sequence[object]) -> "ExtElem":
        vec = [self.embed(0)] * self.degree
        for i, c in enumerate(coeffs):
            if i >= self.degree:
                raise ValueError("coefficient list too long")
            vec[i] = c
        return ExtElem(self, tuple(vec))

    def scalar(self, value) -> "ExtElem":
        return self.element([self.embed(0) + value])

    def generator(self) -> "ExtElem":
        if self.degree == 1:
            # t is congruent to the rational root -m0.
            return self.scalar(-self.modulus[0])
        return self.element([self._zero, self._one])

    def zero(self) -> "ExtElem":
        return self.element([])

    def one(self) -> "ExtElem":
        return self.scalar(self._one)

    def _reduce(self, coeffs: List[object]) -> Tuple[object, ...]:
        m = self.modulus
        deg = self.degree
        work = list(coeffs)
        for i in range(len(work) - 1, deg - 1, -1):
            lead = work[i]
            if lead == 0:
                work.pop()
                continue
            for k in range(deg + 1):
                work[i - deg + k] = work[i - deg + k] - lead * m[k]
            work.pop()
        while len(work) < deg:
            work.append(self._zero)
        return tuple(work[:deg])


class ExtElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldExtension, coeffs: Tuple[object, ...]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("ExtElem is immutable")

    def _coerce(self, other) -> Optional["ExtElem"]:
        if isinstance(other, ExtElem):
            if other.field is not self.field:
                return None
            return other
        try:
            return self.field.scalar(other)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtElem(self.field,
                       tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ExtElem(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        raw = [self.field._zero] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b == 0:
                    continue
                raw[i + j] = raw[i + j] + a * b
        return ExtElem(self.field, self.field._reduce(raw))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, o.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def to_float(self) -> float:
        from .scalars import embed_to_float
        if self.field.approx is None:
            raise ValueError("no numeric approximation attached to the field")
        total = 0.0
        power = 1.0
        root = float(self.field.approx)
        for c in self.coeffs:
            total += embed_to_float(c) * power
            power *= root
        return total

    def __repr__(self):
        name = self.field.name
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"({c})*{name}")
            else:
                parts.append(f"({c})*{name}^{i}")
        return " + ".join(parts) if parts else "0"
