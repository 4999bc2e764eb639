"""Exact dense linear algebra and univariate polynomial utilities.

Matrix routines are generic over any exact field whose elements support
+, -, *, / and == 0 (Fraction, QuadScalar, extension elements). Polynomial
root machinery (Sturm isolation, factor reconstruction) is specific to
Fraction coefficients.
"""

from __future__ import annotations

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


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s) -> Matrix:
    return [[s * x for x in row] for row in a]


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = []
    for row in a:
        total = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            total = total + x * y
        out.append(total)
    return out


def rref(matrix: Matrix, pivot_columns: Optional[int] = None) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    With `pivot_columns`, pivots are sought only in that many leading
    columns; the row operations still act on whole rows, so the columns
    after them carry the same transform without being reduced themselves.
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
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
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
    # An all-zero matrix still has typed entries; division only works on a
    # nonzero one, so fall back to the element's own field if it names one.
    first = None
    for row in matrix:
        for x in row:
            if first is None:
                first = x
            if x != 0:
                return x / x
    field = getattr(first, "field", None)
    if field is not None:
        return field.one()
    return Fraction(1)


def charpoly(matrix: Matrix) -> List[Fraction]:
    """Monic characteristic polynomial det(xI - A), ascending coefficients.

    Faddeev-LeVerrier recursion; exact over any field of characteristic 0.
    """
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


def det(matrix: Matrix):
    cp = charpoly(matrix)
    n = len(matrix)
    sign = 1 if n % 2 == 0 else -1
    return sign * cp[0]


# ---------------------------------------------------------------------------
# Fraction polynomials (ascending coefficient lists)
# ---------------------------------------------------------------------------

def poly_trim(p: List[Fraction]) -> List[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def poly_deriv(p: Sequence[Fraction]) -> List[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


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


def squarefree_part(p: Sequence[Fraction]) -> List[Fraction]:
    g = poly_gcd(p, poly_deriv(p))
    if len(g) <= 1:
        return poly_trim(list(p))
    return poly_divmod(p, g)[0]


def sturm_chain(p: Sequence[Fraction]) -> List[List[Fraction]]:
    chain = [poly_trim(list(p)), poly_deriv(p)]
    while chain[-1]:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = poly_eval(poly, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            changes += 1
    return changes


def root_bound(p: Sequence[Fraction]) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    p = poly_trim(list(p))
    lead = abs(p[-1])
    m = max((abs(c) for c in p[:-1]), default=Fraction(0))
    return Fraction(1) + m / lead


def isolate_real_roots(p: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint open intervals each containing exactly one real root.

    Works on the square-free part, so multiple roots are reported once.
    """
    sq = squarefree_part(p)
    if len(sq) <= 1:
        return []
    chain = sturm_chain(sq)
    bound = root_bound(sq)
    lo, hi = -bound, bound

    def count(a: Fraction, b: Fraction) -> int:
        return _sign_changes(chain, a) - _sign_changes(chain, b)

    intervals = []
    stack = [(lo, hi, count(lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            intervals.append((a, b))
            continue
        mid = (a + b) / 2
        # Nudge off a root of the chain's first polynomial.
        while poly_eval(sq, mid) == 0:
            mid = mid + (b - a) / 1000003
        left = count(a, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, n - left))
    intervals.sort()
    return intervals


def refine_root(p: Sequence[Fraction], lo: Fraction, hi: Fraction,
                digits: int = 14) -> Tuple[Fraction, Fraction]:
    """Shrink an isolating interval by bisection to ~`digits` significant digits."""
    sq = squarefree_part(p)
    flo = poly_eval(sq, lo)
    fhi = poly_eval(sq, hi)
    if flo == 0:
        return lo, lo
    if fhi == 0:
        return hi, hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("interval endpoints do not bracket a sign change")
    scale = max(abs(lo), abs(hi), Fraction(1))
    target = scale / Fraction(10) ** digits
    while hi - lo > target:
        mid = (lo + hi) / 2
        fmid = poly_eval(sq, mid)
        if fmid == 0:
            return mid, mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Minimal-factor reconstruction for real roots
# ---------------------------------------------------------------------------

def _interval_to_fraction(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


def minimal_factors(p: Sequence[Fraction],
                    max_subset: int = 3,
                    max_den: int = 10 ** 8):
    """Split the square-free part of p into exactly-verified rational factors.

    Strategy: isolate all real roots, then try subsets (size 1..max_subset)
    whose elementary symmetric functions round to small rationals; candidate
    factors are accepted only if they divide p exactly, so the reconstruction
    heuristics cannot produce a wrong answer. Returns (factors, leftover)
    where factors is a list of (coeff_list, [root intervals]) and leftover
    holds any unfactored remainder (roots of complex-paired factors, or real
    roots whose conjugates are complex).
    """
    sq = squarefree_part(p)
    intervals = isolate_real_roots(sq)
    refined = [refine_root(sq, lo, hi, digits=30) for lo, hi in intervals]
    approx = [_interval_to_fraction(lo, hi) for lo, hi in refined]
    remaining = list(range(len(refined)))
    current = list(sq)
    factors = []

    def try_subset(idxs: List[int]) -> Optional[List[Fraction]]:
        # Build the monic polynomial with the chosen approximate roots,
        # round to rationals, verify exact divisibility.
        poly = [Fraction(1)]
        for i in idxs:
            root = approx[i]
            new = [Fraction(0)] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k + 1] += c
                new[k] -= root * c
            poly = new
        candidate = [c.limit_denominator(max_den) for c in poly]
        quot, rem = poly_divmod(current, candidate)
        if rem:
            return None
        return candidate

    size = 1
    while size <= max_subset:
        progressed = False
        for combo in _subsets(remaining, size):
            cand = try_subset(list(combo))
            if cand is not None:
                factors.append((cand, [refined[i] for i in combo]))
                current = poly_divmod(current, cand)[0]
                for i in combo:
                    remaining.remove(i)
                progressed = True
                break
        if not progressed:
            size += 1
    leftover_intervals = [refined[i] for i in remaining]
    leftover = poly_trim(current) if len(poly_trim(current)) > 1 else []
    return factors, (leftover, leftover_intervals)


def _subsets(pool: List[int], size: int):
    if size > len(pool):
        return
    idx = list(range(size))
    while True:
        yield tuple(pool[i] for i in idx)
        for i in reversed(range(size)):
            if idx[i] != i + len(pool) - size:
                break
        else:
            return
        idx[i] += 1
        for j in range(i + 1, size):
            idx[j] = idx[j - 1] + 1


# ---------------------------------------------------------------------------
# Quotient-ring field extension  base[t] / (m(t))
# ---------------------------------------------------------------------------

class FieldExtension:
    """Arithmetic in base_field[t]/(m(t)) for a monic squarefree modulus m.

    Elements are ExtElem wrappers around coefficient tuples. Inversion uses
    the extended Euclidean algorithm and raises ZeroDivisionError when the
    element is a zero divisor, which needs a modulus reducible over the base.
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

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.invert()

    def invert(self) -> "ExtElem":
        if self.is_zero():
            raise ZeroDivisionError("extension element is zero")
        # Extended Euclid on (self as poly, modulus).
        zero, one = self.field._zero, self.field._one
        r0 = list(self.field.modulus)
        r1 = list(self.coeffs)
        s0, s1 = [zero], [one]

        def trim(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        r0, r1 = trim(r0), trim(r1)
        while True:
            if not r1:
                raise ZeroDivisionError("modulus reducible over base field")
            if len(r1) == 1:
                inv = one / r1[0]
                coeffs = [inv * c for c in s1]
                return ExtElem(self.field, self.field._reduce(
                    coeffs + [zero] * max(0, self.field.degree - len(coeffs))))
            # divide r0 by r1
            quot = [zero] * (len(r0) - len(r1) + 1) if len(r0) >= len(r1) else []
            rem = list(r0)
            while len(trim(rem)) >= len(r1):
                rem = trim(rem)
                factor = rem[-1] / r1[-1]
                shift = len(rem) - len(r1)
                quot[shift] = quot[shift] + factor
                for i, c in enumerate(r1):
                    rem[shift + i] = rem[shift + i] - factor * c
                rem = trim(rem)
            new_s = list(s0)
            # new_s = s0 - quot * s1
            prod = [zero] * (len(quot) + len(s1) - 1) if quot and s1 else []
            for i, qc in enumerate(quot):
                if qc == 0:
                    continue
                for j, sc in enumerate(s1):
                    prod[i + j] = prod[i + j] + qc * sc
            width = max(len(new_s), len(prod))
            new_s = new_s + [zero] * (width - len(new_s))
            for i, c in enumerate(prod):
                new_s[i] = new_s[i] - c
            r0, r1 = trim(list(r1)), trim(rem)
            s0, s1 = s1, trim(new_s)

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
