"""The six operator families and their finite-dimensional basis subspaces.

Each family lives on a ladder of functions built from one special-function
kernel F (a hypergeometric, Airy, or modified-Bessel solution of a second
order ODE).  Every basis element is stored as a *pair* R(x)*F + S(x)*F',
and the ODE rewrites F'' back into (F, F'), so applying any differential
operator to a basis element is exact Laurent-polynomial arithmetic.  That
representation is the oracle against which the closed-form ladder actions
and the matrix representations are checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .diffop import DiffOp
from .laurent import LaurentPoly
from . import linalg

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FamilyError(ValueError):
    """Raised for parameter values outside a family's admissible set."""


# ---------------------------------------------------------------------------
# pair representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairContext:
    """Differentiation rule for R*F + S*F' in the working coordinate.

    `u` and `v` give the ODE rewrite F'' = u*F + v*F' composed with the
    coordinate map, and `scale` is the derivative of that map (1 when the
    working coordinate is the kernel's own argument).  With w = map(z):

        d/dz [R*F(w) + S*F'(w)] = (R' + S*scale*u)*F + (R*scale + S' + S*scale*v)*F'
    """

    u: LaurentPoly
    v: LaurentPoly
    scale: LaurentPoly

    def derive(self, r: LaurentPoly, s: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
        s_scaled = s * self.scale
        return (r.derivative() + s_scaled * self.u,
                r * self.scale + s.derivative() + s_scaled * self.v)


@dataclass(frozen=True)
class PairElement:
    """R(x)*F(x) + S(x)*F'(x) for the fundamental kernel F of one family."""

    r: LaurentPoly
    s: LaurentPoly
    ctx: PairContext

    def __add__(self, other: "PairElement") -> "PairElement":
        return PairElement(self.r + other.r, self.s + other.s, self.ctx)

    def __sub__(self, other: "PairElement") -> "PairElement":
        return PairElement(self.r - other.r, self.s - other.s, self.ctx)

    def __neg__(self) -> "PairElement":
        return PairElement(-self.r, -self.s, self.ctx)

    def scaled(self, c) -> "PairElement":
        return PairElement(self.r * c, self.s * c, self.ctx)

    def times_poly(self, p: LaurentPoly) -> "PairElement":
        return PairElement(p * self.r, p * self.s, self.ctx)

    def derivative(self) -> "PairElement":
        r, s = self.ctx.derive(self.r, self.s)
        return PairElement(r, s, self.ctx)

    def is_zero(self) -> bool:
        return self.r.is_zero() and self.s.is_zero()


def apply_op(op: DiffOp, elem: Union[PairElement, "BasisElement"]) -> PairElement:
    """Apply a differential operator to a pair, reducing F'' via the ODE."""
    pair = elem.to_pair() if isinstance(elem, BasisElement) else elem
    return _combine(op, _derivatives(pair, max(op.coeffs, default=0)))


def _derivatives(pair: PairElement, order: int) -> List[PairElement]:
    """[pair, pair', ..., pair^(order)]."""
    chain = [pair]
    for _ in range(order):
        chain.append(chain[-1].derivative())
    return chain


def _combine(op: DiffOp, chain: List[PairElement]) -> PairElement:
    """sum_k a_k * chain[k] for op = sum_k a_k d^k: op applied to chain[0]."""
    result = PairElement(LaurentPoly.zero(), LaurentPoly.zero(), chain[0].ctx)
    for order in sorted(op.coeffs):
        result = result + chain[order].times_poly(op.coeffs[order])
    return result


# ---------------------------------------------------------------------------
# family definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """One of the six families, with its parameters pinned to exact rationals."""

    family_id: int
    n_max: int
    s: Optional[Fraction] = None
    alpha: Optional[Fraction] = None
    nu: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.family_id not in (1, 2, 3, 4, 5, 6):
            raise FamilyError(f"unknown family id {self.family_id}")
        if self.n_max < 0:
            raise FamilyError("subspace size N must be non-negative")
        needs_s = self.family_id in (1, 2, 3)
        needs_alpha = self.family_id in (2, 3, 6)
        needs_nu = self.family_id == 5
        if needs_s:
            if self.s is None:
                raise FamilyError(f"family {self.family_id} requires parameter s")
            if self.s.denominator == 1 and self.s <= 0:
                raise FamilyError("s must avoid the nonpositive integers")
            if self.s == 0:
                raise FamilyError("s = 0 is a pole of the ladder formulas")
        if needs_alpha:
            if self.alpha is None:
                raise FamilyError(f"family {self.family_id} requires parameter alpha")
            if self.family_id in (2, 6) and self.alpha == 0:
                raise FamilyError("alpha = 0 degenerates the second chain")
            if self.family_id == 3:
                for n in range(self.n_max + 1):
                    if self.alpha + n == 0:
                        raise FamilyError(f"alpha + {n} = 0 breaks the parameter chain")
        if needs_nu and self.nu is None:
            raise FamilyError("family 5 requires parameter nu")

    @property
    def dimension(self) -> int:
        return self.n_max + 1 if self.family_id == 3 else 2 * (self.n_max + 1)

    def context(self) -> PairContext:
        """The ODE rewrite F'' = u*F + v*F' in the kernel's own coordinate."""
        fid = self.family_id
        if fid == 1:
            u, v = LaurentPoly.x(-1), LaurentPoly.x(-1, -self.s)
        elif fid in (2, 3):
            u = LaurentPoly.x(-1, self.alpha)
            v = LaurentPoly({0: _ONE, -1: -self.s})
        elif fid == 4:
            u, v = LaurentPoly.x(), LaurentPoly.zero()
        elif fid == 5:
            u = LaurentPoly({0: _ONE, -2: self.nu * self.nu})
            v = LaurentPoly.x(-1, -_ONE)
        else:
            u = LaurentPoly.const(4 * self.alpha)
            v = LaurentPoly.x(1, Fraction(2))
        return PairContext(u, v, LaurentPoly.const(_ONE))


@dataclass(frozen=True)
class BasisElement:
    """f_n^(sign) of a family subspace; family 3 uses sign=None."""

    spec: FamilySpec
    n: int
    sign: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 <= self.n <= self.spec.n_max:
            raise FamilyError(f"basis index {self.n} outside 0..{self.spec.n_max}")
        if self.spec.family_id == 3:
            if self.sign is not None:
                raise FamilyError("family 3 has a single chain (sign must be None)")
        elif self.sign not in ("+", "-"):
            raise FamilyError("sign must be '+' or '-'")

    @property
    def index(self) -> int:
        """Position in the fixed basis order (plus chain first)."""
        if self.spec.family_id == 3:
            return self.n
        return self.n if self.sign == "+" else self.spec.n_max + 1 + self.n

    def to_pair(self) -> PairElement:
        return _basis(self.spec).pairs[self.index]


def _second_chain_seed(spec: FamilySpec) -> PairElement:
    """f_0^-, the seed of the second chain (families other than 3).

    Family 3 extends by shifting the upper hypergeometric parameter instead
    of adjoining a derivative chain, so it has no second seed.
    """
    fid = spec.family_id
    ctx = spec.context()
    one = LaurentPoly.const(_ONE)
    if fid == 1:
        return PairElement(LaurentPoly.zero(), LaurentPoly.const(spec.s), ctx)
    if fid == 2:
        return PairElement(LaurentPoly.zero(), LaurentPoly.const(spec.s / spec.alpha), ctx)
    if fid == 4:
        return PairElement(LaurentPoly.zero(), one, ctx)
    if fid == 5:
        return PairElement(LaurentPoly.x(-1, spec.nu), -one, ctx)
    # The second chain must carry the opposite parity for the ladder to
    # close: its seed is F'/(4*alpha) = x * 1F1(alpha+1; 3/2; x^2), the
    # derivative kernel with its natural odd prefactor kept.
    return PairElement(LaurentPoly.zero(), LaurentPoly.const(Fraction(1, 4) / spec.alpha), ctx)


def _basis_pairs(spec: FamilySpec) -> Tuple[PairElement, ...]:
    """All basis elements as pairs, in the fixed order."""
    ctx = spec.context()
    if spec.family_id == 3:
        pairs = [PairElement(LaurentPoly.const(_ONE), LaurentPoly.zero(), ctx)]
        for n in range(spec.n_max):
            prev = pairs[-1]
            step = prev.derivative().times_poly(
                LaurentPoly.x(1, _ONE / (spec.alpha + n)))
            pairs.append(prev + step)
    else:
        minus = _second_chain_seed(spec)
        plus = PairElement(LaurentPoly.const(_ONE), LaurentPoly.zero(), ctx)
        pairs = [plus.times_poly(LaurentPoly.x(n)) for n in range(spec.n_max + 1)]
        pairs += [minus.times_poly(LaurentPoly.x(n)) for n in range(spec.n_max + 1)]
    return tuple(pairs)


def family_operators(spec: FamilySpec) -> Tuple[DiffOp, DiffOp]:
    """(J+, J-) for the family, with the subspace size N baked in."""
    return operators_over(spec.family_id, Fraction(spec.n_max),
                          spec.s, spec.alpha, spec.nu)


def operators_over(family_id: int, n_cap, s, alpha, nu) -> Tuple[DiffOp, DiffOp]:
    """(J+, J-) with N, s, alpha and nu taken from any coefficient ring.

    The operators only add and multiply their parameters, so the same
    definition serves exact rationals (`family_operators`) and polynomials
    in the parameters (the symbolic closure derivation).  Parameters a
    family does not use are ignored and may be None.
    """
    x = LaurentPoly.x()
    x2 = LaurentPoly.x(2)
    if family_id == 1:
        j_minus = DiffOp({2: x, 1: LaurentPoly.const(s + 1)})
        j_plus = DiffOp({2: x2, 1: LaurentPoly.x(1, s - 2 * n_cap), 0: -x})
    elif family_id == 2:
        j_minus = DiffOp({2: x, 1: LaurentPoly({0: 1 + s, 1: -_ONE})})
        j_plus = DiffOp({2: x2, 1: LaurentPoly({1: s - 2 * n_cap, 2: -_ONE}),
                         0: LaurentPoly.x(1, n_cap - alpha)})
    elif family_id == 3:
        j_minus = DiffOp({2: x, 1: LaurentPoly({0: s, 1: -_ONE})})
        j_plus = DiffOp({2: x2, 1: LaurentPoly({1: s - n_cap, 2: -_ONE}),
                         0: LaurentPoly.x(1, -alpha)})
    elif family_id == 4:
        j_minus = DiffOp({2: x, 1: LaurentPoly.const(-1 - 2 * n_cap), 0: -x2})
        j_plus = DiffOp({2: LaurentPoly.const(_ONE), 0: -x})
    elif family_id == 5:
        j_minus = DiffOp({2: x, 1: LaurentPoly.const(Fraction(2)),
                          0: LaurentPoly({-1: -(nu * nu + nu), 1: -_ONE})})
        j_plus = DiffOp({2: x2, 1: LaurentPoly.x(1, 1 - 2 * n_cap), 0: -x2})
    elif family_id == 6:
        j_minus = DiffOp({2: LaurentPoly.const(_ONE), 1: LaurentPoly.x(1, Fraction(-2))})
        j_plus = DiffOp({2: x, 1: LaurentPoly({2: Fraction(-2), 0: -1 - 2 * n_cap}),
                         0: LaurentPoly.x(1, 2 * (n_cap - 2 * alpha))})
    else:
        raise FamilyError(f"unknown family id {family_id}")
    return j_plus, j_minus


# ---------------------------------------------------------------------------
# decomposition over the basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NotInSpan:
    """Witness that a pair is outside the subspace: the system is inconsistent."""

    rank_basis: int
    rank_augmented: int
    residual: PairElement


@dataclass(frozen=True)
class _Basis:
    """A family basis with one exact elimination of its coefficient matrix A.

    A has one row per (component, exponent) key that occurs in the basis
    and one column per basis pair.  `transform` holds, sparsely, the first
    `rank` rows of an invertible E with E*A = RREF(A): row i maps a
    right-hand side b to the value of pivot column `pivots[i]`.
    """

    pairs: Tuple[PairElement, ...]
    rows: Tuple[Tuple[str, int], ...]
    pivots: Tuple[int, ...]
    transform: Tuple[Tuple[Tuple[int, Fraction], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _component(pair: PairElement, comp: str) -> LaurentPoly:
    return pair.r if comp == "r" else pair.s


@functools.lru_cache(maxsize=64)
def _basis(spec: FamilySpec) -> _Basis:
    """The basis pairs of `spec` and the elimination of their matrix, built once."""
    pairs = _basis_pairs(spec)
    exps_r, exps_s = set(), set()
    for p in pairs:
        exps_r.update(p.r.coeffs)
        exps_s.update(p.s.coeffs)
    rows = [("r", e) for e in sorted(exps_r)] + [("s", e) for e in sorted(exps_s)]
    dim, height = len(pairs), len(rows)
    augmented = [[_component(p, comp).coeff(e) for p in pairs]
                 + [_ONE if k == i else _ZERO for k in range(height)]
                 for i, (comp, e) in enumerate(rows)]
    reduced, pivots = linalg.rref(augmented, pivot_columns=dim)
    transform = tuple(
        tuple((k, c) for k, c in enumerate(reduced[i][dim:]) if c)
        for i in range(len(pivots)))
    return _Basis(pairs, tuple(rows), tuple(pivots), transform)


def decompose(pair: PairElement, spec: FamilySpec):
    """Exact coordinates of `pair` in the family basis, or a NotInSpan witness.

    The basis matrix A of `spec` is eliminated once and cached; each call
    reads the target's coefficients b on A's rows and forms the candidate
    c = E*b on the pivot columns, free columns zero (the same vector a
    fresh RREF of [A | b] gives).  The candidate is certified by
    re-multiplying: sum c_j * basis_j must equal `pair` exactly, which also
    catches exponents the basis lacks.  When it does not, b lies outside
    the column space, so the augmented rank is exactly rank(A) + 1.
    """
    basis = _basis(spec)
    rhs = [_component(pair, comp).coeff(e) for comp, e in basis.rows]
    coords = [_ZERO] * len(basis.pairs)
    for col, row in zip(basis.pivots, basis.transform):
        coords[col] = sum((c * rhs[k] for k, c in row), _ZERO)
    r, s = LaurentPoly.zero(), LaurentPoly.zero()
    for c, p in zip(coords, basis.pairs):
        if c:
            r, s = r + p.r * c, s + p.s * c
    if r == pair.r and s == pair.s:
        return coords
    return NotInSpan(basis.rank, basis.rank + 1, pair)


def independence_rank(spec: FamilySpec) -> int:
    """Column rank of the basis coefficient matrix (should equal the dimension).

    Read from the same cached elimination that `decompose` uses.
    """
    return _basis(spec).rank


def matrix_rep(op: DiffOp, spec: FamilySpec) -> List[List[Fraction]]:
    """Exact matrix of `op` on the family basis; column j expands op(basis_j)."""
    dim = spec.dimension
    pairs = _basis(spec).pairs
    columns = []
    for j in range(dim):
        image = apply_op(op, pairs[j])
        coords = decompose(image, spec)
        if isinstance(coords, NotInSpan):
            raise FamilyError(
                f"operator does not preserve the family-{spec.family_id} subspace "
                f"(failed on basis element {j})")
        columns.append(coords)
    return [[columns[j][i] for j in range(dim)] for i in range(dim)]


# ---------------------------------------------------------------------------
# closed-form ladder actions
# ---------------------------------------------------------------------------

def action_formula(spec: FamilySpec, raise_op: bool, elem: BasisElement) -> Dict[int, Fraction]:
    """Published closed-form action of J+ (raise_op) or J- on one basis element.

    Returns {basis_index: coefficient}; entries whose ladder coefficient
    vanishes are omitted, so the cutoff at the subspace edges is visible.
    """
    fid, n_cap = spec.family_id, spec.n_max
    s, alpha, nu = spec.s, spec.alpha, spec.nu
    n = Fraction(elem.n)
    a_n = n - 2 * n_cap
    b_n = n - n_cap
    out: Dict[Tuple[Optional[str], int], Fraction] = {}

    def put(sign: Optional[str], m: int, coeff: Fraction) -> None:
        if coeff == 0:
            return
        if not 0 <= m <= n_cap:
            raise FamilyError(
                f"ladder coefficient escapes the subspace: target index {m}")
        out[(sign, m)] = out.get((sign, m), _ZERO) + coeff

    m = elem.n
    plus_chain = elem.sign == "+"
    if fid == 1:
        if raise_op:
            if plus_chain:
                put("+", m, n * (a_n - 1 + s))
                if b_n:
                    put("-", m + 1, 2 * b_n / s)
            else:
                put("-", m, (n - s) * (a_n - 1))
                put("+", m, s * (2 * b_n - 1))
        else:
            if plus_chain:
                put("+", m, _ONE)
                if n:
                    put("+", m - 1, n * (n + s))
                put("-", m, (1 + 2 * n) / s)
            else:
                put("-", m, _ONE)
                if n:
                    put("-", m - 1, n * (n - s))
                    put("+", m - 1, 2 * n * s)
    elif fid == 2:
        if raise_op:
            if plus_chain:
                put("+", m, n * (a_n - 1 + s))
                if b_n:
                    put("+", m + 1, -b_n)
                    put("-", m + 1, 2 * alpha * b_n / s)
            else:
                put("-", m, (s - n) * (1 - a_n))
                if b_n:
                    put("-", m + 1, b_n)
                put("+", m, s * (2 * b_n - 1))
        else:
            if plus_chain:
                put("+", m, alpha - n)
                if n:
                    put("+", m - 1, n * (n + s))
                put("-", m, alpha * (1 + 2 * n) / s)
            else:
                put("-", m, alpha + n + 1)
                if n:
                    put("-", m - 1, n * (n - s))
                    put("+", m - 1, 2 * n * s)
    elif fid == 3:
        c_n = n_cap - 2 * n
        if raise_op:
            put(None, m, s * n + (alpha + n) * c_n)
            if b_n:
                put(None, m + 1, (alpha + n) * b_n)
            if n:
                put(None, m - 1, n * (alpha + n - s))
        else:
            put(None, m, n + alpha)
    elif fid == 4:
        if raise_op:
            if plus_chain:
                if n >= 2:
                    put("+", m - 2, n * (n - 1))
                if n:
                    put("-", m - 1, 2 * n)
            else:
                put("+", m, 1 + 2 * n)
                if n >= 2:
                    put("-", m - 2, n * (n - 1))
        else:
            if plus_chain:
                if n:
                    put("+", m - 1, (a_n - 2) * n)
                put("-", m, 2 * b_n - 1)
            else:
                if b_n:
                    put("+", m + 1, 2 * b_n)
                if n:
                    put("-", m - 1, (a_n - 2) * n)
    elif fid == 5:
        if raise_op:
            if plus_chain:
                put("+", m, (nu + n) * (nu + a_n))
                if b_n:
                    put("-", m + 1, -2 * b_n)
            else:
                put("-", m, (n - 1 - nu) * (a_n - 1 - nu))
                if b_n:
                    put("+", m + 1, -2 * b_n)
        else:
            if plus_chain:
                if n:
                    put("+", m - 1, n * (1 + n + 2 * nu))
                put("-", m, -(1 + 2 * n))
            else:
                put("+", m, -(1 + 2 * n))
                if n:
                    put("-", m - 1, n * (n - 2 * nu - 1))
    else:
        if raise_op:
            if plus_chain:
                if b_n:
                    put("+", m + 1, -2 * b_n)
                if n:
                    put("+", m - 1, n * (a_n - 2))
                put("-", m, 4 * alpha * (2 * b_n - 1))
            else:
                if n:
                    put("-", m - 1, n * (a_n - 2))
                put("+", m, 2 * b_n - 1)
                if b_n:
                    put("-", m + 1, 2 * b_n)
        else:
            if plus_chain:
                put("+", m, 2 * (2 * alpha - n))
                if n >= 2:
                    put("+", m - 2, n * n - n)
                if n:
                    put("-", m - 1, 8 * alpha * n)
            else:
                if n:
                    put("+", m - 1, 2 * n)
                put("-", m, 2 * (2 * alpha + 1 + n))
                if n >= 2:
                    put("-", m - 2, n * n - n)

    indexed: Dict[int, Fraction] = {}
    for (sign, m_target), coeff in out.items():
        indexed[BasisElement(spec, m_target, sign).index] = coeff
    return indexed


def verify_invariance(spec: FamilySpec) -> Dict[str, object]:
    """Check both family operators against the closed-form ladder actions.

    Every basis element is pushed through J+ and J- symbolically (its
    derivatives are formed once and shared by both operators), decomposed
    over the basis, and the exact coordinates are compared entry by entry
    with `action_formula`.  Mismatches carry both values.
    """
    j_plus, j_minus = family_operators(spec)
    depth = max(j_plus.order(), j_minus.order())
    mismatches: List[Dict[str, object]] = []
    checks = 0
    for idx in range(spec.dimension):
        elem = _element_at(spec, idx)
        chain = _derivatives(elem.to_pair(), depth)
        for label, op in (("J+", j_plus), ("J-", j_minus)):
            checks += 1
            coords = decompose(_combine(op, chain), spec)
            if isinstance(coords, NotInSpan):
                mismatches.append({"op": label, "element": idx,
                                   "computed": "not in span",
                                   "expected": action_formula(spec, label == "J+", elem)})
                continue
            expected = action_formula(spec, label == "J+", elem)
            got = {i: c for i, c in enumerate(coords) if c != 0}
            if got != expected:
                mismatches.append({"op": label, "element": idx,
                                   "computed": got, "expected": expected})
    return {"family": spec.family_id, "n_max": spec.n_max,
            "checks": checks, "mismatches": mismatches,
            "ok": not mismatches}


def _element_at(spec: FamilySpec, index: int) -> BasisElement:
    if spec.family_id == 3:
        return BasisElement(spec, index, None)
    width = spec.n_max + 1
    if index < width:
        return BasisElement(spec, index, "+")
    return BasisElement(spec, index - width, "-")


# ---------------------------------------------------------------------------
# re-deriving preserving operators from the subspace alone
# ---------------------------------------------------------------------------

def solve_preserving(spec: FamilySpec, max_order: int = 2,
                     degree_bound: int = 2) -> Dict[str, object]:
    """All operators sum a_k(x) d^k with polynomial a_k that map the subspace
    into itself, found by exact linear algebra over the unknown coefficients.

    Returns the solution space modulo the constants (multiples of the
    identity), as DiffOp generators plus the raw dimension bookkeeping.
    """
    pairs = _basis(spec).pairs
    dim = len(pairs)
    op_unknowns = [(k, e) for k in range(max_order + 1) for e in range(degree_bound + 1)]
    n_op = len(op_unknowns)
    n_unknowns = n_op + dim * dim

    derived = [_derivatives(p, max_order) for p in pairs]

    exps_r, exps_s = set(), set()
    for j in range(dim):
        for k, e in op_unknowns:
            shifted = derived[j][k].times_poly(LaurentPoly.x(e))
            exps_r.update(shifted.r.coeffs)
            exps_s.update(shifted.s.coeffs)
        for p in pairs:
            exps_r.update(p.r.coeffs)
            exps_s.update(p.s.coeffs)
    row_keys = [("r", e) for e in sorted(exps_r)] + [("s", e) for e in sorted(exps_s)]

    matrix: List[List[Fraction]] = []
    for j in range(dim):
        for comp, e in row_keys:
            row = [_ZERO] * n_unknowns
            for col, (k, mono) in enumerate(op_unknowns):
                shifted = derived[j][k].times_poly(LaurentPoly.x(mono))
                row[col] = (shifted.r if comp == "r" else shifted.s).coeff(e)
            for i in range(dim):
                row[n_op + i * dim + j] = -(pairs[i].r if comp == "r" else pairs[i].s).coeff(e)
            matrix.append(row)

    solutions = linalg.nullspace(matrix)
    op_parts = [vec[:n_op] for vec in solutions]
    identity_direction = [_ZERO] * n_op
    identity_direction[op_unknowns.index((0, 0))] = _ONE

    stacked = [identity_direction] + op_parts
    dim_mod_constants = linalg.rank(stacked) - 1

    generators: List[DiffOp] = []
    basis_rows = [identity_direction]
    for vec in op_parts:
        candidate = basis_rows + [vec]
        if linalg.rank(candidate) > len(basis_rows):
            basis_rows.append(vec)
            generators.append(_vector_to_op(vec, op_unknowns))
    return {"generators": generators,
            "dimension_mod_constants": dim_mod_constants,
            "raw_dimension": len(solutions)}


def _vector_to_op(vec: List[Fraction], op_unknowns: List[Tuple[int, int]]) -> DiffOp:
    coeffs: Dict[int, LaurentPoly] = {}
    for value, (k, e) in zip(vec, op_unknowns):
        if value:
            coeffs[k] = coeffs.get(k, LaurentPoly.zero()) + LaurentPoly.x(e, value)
    return DiffOp(coeffs)


def operator_in_span(result: Dict[str, object], op: DiffOp,
                     max_order: int = 2, degree_bound: int = 2) -> bool:
    """Does `op` lie in the preserving span (modulo an additive constant)?"""
    op_unknowns = [(k, e) for k in range(max_order + 1) for e in range(degree_bound + 1)]
    target = [_ZERO] * len(op_unknowns)
    for k, poly in op.coeffs.items():
        for e, c in poly.coeffs.items():
            if (k, e) not in op_unknowns:
                return False
            target[op_unknowns.index((k, e))] = c
    rows = [[_ZERO] * len(op_unknowns)]
    rows[0][op_unknowns.index((0, 0))] = _ONE
    for gen in result["generators"]:
        row = [_ZERO] * len(op_unknowns)
        for k, poly in gen.coeffs.items():
            for e, c in poly.coeffs.items():
                row[op_unknowns.index((k, e))] = c
        rows.append(row)
    base_rank = linalg.rank(rows)
    return linalg.rank(rows + [target]) == base_rank


# ---------------------------------------------------------------------------
# the coordinate substitution used by the spectral reduction
# ---------------------------------------------------------------------------

def substituted_context(spec: FamilySpec, scale: Fraction) -> PairContext:
    """Differentiation rule for pairs whose argument is scale * z**2."""
    ctx = spec.context()
    return PairContext(ctx.u.stretch_square(scale), ctx.v.stretch_square(scale),
                       LaurentPoly.x(1, 2 * scale))


def substitute_pair(pair: PairElement, scale: Fraction, new_ctx: PairContext) -> PairElement:
    """Rewrite an x-coordinate pair as a z-coordinate pair via x = scale * z**2."""
    return PairElement(pair.r.stretch_square(scale), pair.s.stretch_square(scale), new_ctx)
