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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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

    A context with `den` = D > 1 stores D*u and D*v in `u` and `v`, and
    `derive` computes D*d/dz: clearing the denominators of the rewrite once
    keeps pairs with integer coefficients on integers (`_cleared_basis`).
    """

    u: LaurentPoly
    v: LaurentPoly
    scale: LaurentPoly
    den: int = 1

    def derive(self, r: LaurentPoly, s: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
        s_scaled = s * self.scale
        r_part, s_part = r.derivative(), r * self.scale + s.derivative()
        if self.den != 1:
            r_part, s_part = r_part * self.den, s_part * self.den
        return r_part + s_scaled * self.u, s_part + s_scaled * self.v


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


def apply_op(op: DiffOp, pair: PairElement) -> PairElement:
    """Apply a differential operator to a pair, reducing F'' via the ODE."""
    return _combine(op, _derivatives(pair, max(op.coeffs, default=0)))


def _derivatives(pair: PairElement, order: int) -> List[PairElement]:
    """[pair, pair', ..., pair^(order)]."""
    chain = [pair]
    for _ in range(order):
        chain.append(chain[-1].derivative())
    return chain


def _combine(op: DiffOp, chain: List[PairElement]) -> PairElement:
    """sum_k a_k * chain[k] for op = sum_k a_k d^k: op applied to chain[0].

    Both components are summed in one pass, each product taken as
    (coefficient of a_k) * (coefficient of chain[k]).
    """
    r: Dict[int, object] = {}
    s: Dict[int, object] = {}
    for order in sorted(op.coeffs):
        elem = chain[order]
        for shift, a in op.coeffs[order].coeffs.items():
            _add_product(r, a, shift, elem.r)
            _add_product(s, a, shift, elem.s)
    return PairElement(LaurentPoly(r), LaurentPoly(s), chain[0].ctx)


def _add_product(acc: Dict[int, object], factor, shift: int, poly: LaurentPoly) -> None:
    """acc += factor * x^shift * poly, on a bare {exponent: coefficient} dict."""
    for exp, coeff in poly.coeffs.items():
        key = exp + shift
        acc[key] = acc.get(key, 0) + factor * coeff


# ---------------------------------------------------------------------------
# family definitions
# ---------------------------------------------------------------------------

# Each family's parameters, in the order `sampling.sample_params` draws them.
PARAMETERS = {1: ("s",), 2: ("s", "alpha"), 3: ("s", "alpha"), 4: (), 5: ("nu",), 6: ("alpha",)}


@dataclass(frozen=True)
class FamilySpec:
    """One of the six families, with its parameters pinned to exact rationals."""

    family_id: int
    n_max: int
    s: Optional[Fraction] = None
    alpha: Optional[Fraction] = None
    nu: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.family_id not in PARAMETERS:
            raise FamilyError(f"unknown family id {self.family_id}")
        if self.n_max < 0:
            raise FamilyError("subspace size N must be non-negative")
        extra = [name for name in ("s", "alpha", "nu")
                 if getattr(self, name) is not None and name not in PARAMETERS[self.family_id]]
        if extra:
            raise FamilyError(f"family {self.family_id} takes no parameter {', '.join(extra)}")
        for name in PARAMETERS[self.family_id]:
            value = getattr(self, name)
            if value is None:
                raise FamilyError(f"family {self.family_id} requires parameter {name}")
            if name == "s" and value.denominator == 1 and value <= 0:
                raise FamilyError("s must avoid the nonpositive integers")
            if name == "alpha" and self.family_id in (2, 6) and value == 0:
                raise FamilyError("alpha = 0 degenerates the second chain")
            if name == "alpha" and self.family_id == 3 and -value in range(self.n_max + 1):
                raise FamilyError(f"alpha + {-value} = 0 breaks the parameter chain")

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


def _basis_matrix(pairs: Sequence[PairElement], zero=_ZERO):
    """One row per (component, exponent) key that occurs in `pairs`, one
    column per pair; absent entries are `zero`."""
    exps_r = sorted({e for p in pairs for e in p.r.coeffs})
    exps_s = sorted({e for p in pairs for e in p.s.coeffs})
    return ([[p.r.coeffs.get(e, zero) for p in pairs] for e in exps_r]
            + [[p.s.coeffs.get(e, zero) for p in pairs] for e in exps_s])


def _solve_over_basis(pairs: Sequence[PairElement], targets: Sequence[PairElement]):
    """Solve A c = t for every target t by one RREF of [A | targets], A's
    columns being `pairs`.

    Returns (rank of A, coordinates, None), column j of the coordinates
    solving target j with free coordinates zero.  The first pivot among the
    target columns marks the first target outside span(A); then the result
    is (rank of A, None, that target's index).
    """
    dim = len(pairs)
    red, pivots = linalg.rref(_basis_matrix([*pairs, *targets]))
    coords = [[_ZERO] * len(targets) for _ in range(dim)]
    for rank, (row, col) in enumerate(zip(red, pivots)):
        if col >= dim:
            return rank, None, col - dim
        coords[col] = row[dim:]
    return len(pivots), coords, None


def decompose(pair: PairElement, spec: FamilySpec):
    """Exact coordinates of `pair` in the family basis, or a NotInSpan witness.

    One elimination of [A | b] (`_solve_over_basis`), free coordinates zero.
    When b lies outside the column space, the augmented rank is exactly
    rank(A) + 1.
    """
    rank, coords, outside = _solve_over_basis(_basis_pairs(spec), (pair,))
    if outside is not None:
        return NotInSpan(rank, rank + 1, pair)
    return [row[0] for row in coords]


def matrix_rep(op: DiffOp, spec: FamilySpec) -> List[List[Fraction]]:
    """Exact matrix of `op` on the family basis; column j expands op(basis_j).

    One elimination of [A | images] (`_solve_over_basis`) solves every
    column, and names the first image outside the span of A.
    """
    pairs = _basis_pairs(spec)
    _, rep, outside = _solve_over_basis(pairs, [apply_op(op, pair) for pair in pairs])
    if outside is not None:
        raise FamilyError(
            f"operator does not preserve the family-{spec.family_id} subspace "
            f"(failed on basis element {outside})")
    return rep


# ---------------------------------------------------------------------------
# closed-form ladder actions
# ---------------------------------------------------------------------------

def action_formula(spec: FamilySpec, raise_op: bool, index: int) -> Dict[int, Fraction]:
    """Published closed-form action of J+ (raise_op) or J- on one basis element.

    `index` is the element's position in the fixed basis order: n for
    family 3, whose basis is the single chain f_0..f_N, and for the other
    families n on the plus chain f_0^+..f_N^+ and N + 1 + n on the minus
    chain after it.  An index outside 0..dimension - 1 is a FamilyError.
    Returns {basis_index: coefficient} with the zero coefficients omitted.
    The cut-off at the subspace edges needs no guard: every coefficient
    whose target index would leave 0..N carries a factor that vanishes
    there, b_n = n - N going up from n = N, and n (or n(n - 1) for a step
    of two) going down from n = 0 (Turbiner's sl(2) structure).  So `put`
    drops it as a zero, and its range check is the edge check: a nonzero
    coefficient outside 0..N is a FamilyError.
    """
    if not 0 <= index < spec.dimension:
        raise FamilyError(f"basis index {index} outside 0..{spec.dimension - 1}")
    fid, n_cap = spec.family_id, spec.n_max
    s, alpha, nu = spec.s, spec.alpha, spec.nu
    # Family 3's one chain has N + 1 elements, so every index is on it.
    plus_chain, m = index <= n_cap, index % (n_cap + 1)
    n = Fraction(m)
    a_n = n - 2 * n_cap
    b_n = n - n_cap
    out: Dict[int, Fraction] = {}
    plus, minus = 0, n_cap + 1  # where each chain starts in the basis order

    def put(chain: int, m: int, coeff: Fraction) -> None:
        if coeff == 0:
            return
        if not 0 <= m <= n_cap:
            raise FamilyError(
                f"ladder coefficient escapes the subspace: target index {m}")
        out[chain + m] = out.get(chain + m, _ZERO) + coeff

    if fid == 1:
        if raise_op:
            if plus_chain:
                put(plus, m, n * (a_n - 1 + s))
                put(minus, m + 1, 2 * b_n / s)
            else:
                put(minus, m, (n - s) * (a_n - 1))
                put(plus, m, s * (2 * b_n - 1))
        else:
            if plus_chain:
                put(plus, m, _ONE)
                put(plus, m - 1, n * (n + s))
                put(minus, m, (1 + 2 * n) / s)
            else:
                put(minus, m, _ONE)
                put(minus, m - 1, n * (n - s))
                put(plus, m - 1, 2 * n * s)
    elif fid == 2:
        if raise_op:
            if plus_chain:
                put(plus, m, n * (a_n - 1 + s))
                put(plus, m + 1, -b_n)
                put(minus, m + 1, 2 * alpha * b_n / s)
            else:
                put(minus, m, (s - n) * (1 - a_n))
                put(minus, m + 1, b_n)
                put(plus, m, s * (2 * b_n - 1))
        else:
            if plus_chain:
                put(plus, m, alpha - n)
                put(plus, m - 1, n * (n + s))
                put(minus, m, alpha * (1 + 2 * n) / s)
            else:
                put(minus, m, alpha + n + 1)
                put(minus, m - 1, n * (n - s))
                put(plus, m - 1, 2 * n * s)
    elif fid == 3:
        c_n = n_cap - 2 * n
        if raise_op:
            put(plus, m, s * n + (alpha + n) * c_n)
            put(plus, m + 1, (alpha + n) * b_n)
            put(plus, m - 1, n * (alpha + n - s))
        else:
            put(plus, m, n + alpha)
    elif fid == 4:
        if raise_op:
            if plus_chain:
                put(plus, m - 2, n * (n - 1))
                put(minus, m - 1, 2 * n)
            else:
                put(plus, m, 1 + 2 * n)
                put(minus, m - 2, n * (n - 1))
        else:
            if plus_chain:
                put(plus, m - 1, (a_n - 2) * n)
                put(minus, m, 2 * b_n - 1)
            else:
                put(plus, m + 1, 2 * b_n)
                put(minus, m - 1, (a_n - 2) * n)
    elif fid == 5:
        if raise_op:
            if plus_chain:
                put(plus, m, (nu + n) * (nu + a_n))
                put(minus, m + 1, -2 * b_n)
            else:
                put(minus, m, (n - 1 - nu) * (a_n - 1 - nu))
                put(plus, m + 1, -2 * b_n)
        else:
            if plus_chain:
                put(plus, m - 1, n * (1 + n + 2 * nu))
                put(minus, m, -(1 + 2 * n))
            else:
                put(plus, m, -(1 + 2 * n))
                put(minus, m - 1, n * (n - 2 * nu - 1))
    else:
        if raise_op:
            if plus_chain:
                put(plus, m + 1, -2 * b_n)
                put(plus, m - 1, n * (a_n - 2))
                put(minus, m, 4 * alpha * (2 * b_n - 1))
            else:
                put(minus, m - 1, n * (a_n - 2))
                put(plus, m, 2 * b_n - 1)
                put(minus, m + 1, 2 * b_n)
        else:
            if plus_chain:
                put(plus, m, 2 * (2 * alpha - n))
                put(plus, m - 2, n * n - n)
                put(minus, m - 1, 8 * alpha * n)
            else:
                put(plus, m - 1, 2 * n)
                put(minus, m, 2 * (2 * alpha + 1 + n))
                put(minus, m - 2, n * n - n)
    return out


def verify_invariance(spec: FamilySpec) -> Dict[str, object]:
    """Check both family operators against the closed-form ladder actions.

    Each action J f_j = sum_i a_ij f_i is checked as an identity: the image
    of every basis pair is formed symbolically (its derivatives are shared
    by J+ and J-), the combination given by `action_formula` is subtracted,
    and the residual must be zero.  The check runs on integers: the basis
    is cleared to d*f_i, its derivatives are taken as D*d/dx
    (`_cleared_basis`), and each operator and its actions carry one
    common factor (`_cleared_action`), so the residual is a nonzero integer
    multiple of the rational one.  The same cleared basis gives
    `basis_rank`.  A passing check solves nothing; only a failing one is
    decomposed over the basis, unscaled, so that its mismatch carries the
    computed coordinates (or "not in span") beside the expected ones.
    """
    pairs, cleared = _cleared_basis(spec)
    ops = family_operators(spec)
    depth = max(op.order() for op in ops)
    den = cleared[0].ctx.den
    checked = []
    for label, op in zip(("J+", "J-"), ops):
        actions = [action_formula(spec, label == "J+", idx) for idx in range(len(pairs))]
        checked.append((label, op, actions, *_cleared_action(op, actions, den, depth)))
    mismatches: List[Dict[str, object]] = []
    checks = 0
    for idx, pair in enumerate(cleared):
        chain = _derivatives(pair, depth)
        for label, op, actions, int_op, int_actions in checked:
            checks += 1
            if _is_combination(_combine(int_op, chain), int_actions[idx], cleared):
                continue
            coords = decompose(apply_op(op, pairs[idx]), spec)
            computed = ("not in span" if isinstance(coords, NotInSpan)
                        else {i: c for i, c in enumerate(coords) if c != 0})
            mismatches.append({"op": label, "element": idx,
                               "computed": computed, "expected": actions[idx]})
    rank = linalg.integer_rank(_basis_matrix(cleared, zero=0))
    return {"family": spec.family_id, "n_max": spec.n_max,
            "checks": checks, "mismatches": mismatches,
            "ok": not mismatches,
            "basis_rank": rank, "rank_ok": rank == spec.dimension}


def _denominator(*polys: LaurentPoly) -> int:
    """The lcm of the denominators of all coefficients of `polys`."""
    return math.lcm(*(c.denominator for p in polys for c in p.coeffs.values()))


def _times(poly: LaurentPoly, factor: int) -> LaurentPoly:
    """factor * poly on int coefficients; `factor` clears poly's denominators."""
    return LaurentPoly({e: c.numerator * (factor // c.denominator)
                        for e, c in poly.coeffs.items()})


def _cleared_basis(spec: FamilySpec) -> Tuple[Tuple[PairElement, ...], Tuple[PairElement, ...]]:
    """(the basis pairs, d times each of them on ints), d the lcm of the
    denominators of all the pairs.

    The cleared pairs differentiate by D*d/dx, D the lcm of the denominators
    of the ODE rewrite (u, v), so their derivative chains stay on ints too.
    """
    pairs = _basis_pairs(spec)
    ctx = spec.context()
    den = _denominator(ctx.u, ctx.v)
    ctx = PairContext(_times(ctx.u, den), _times(ctx.v, den), LaurentPoly.const(1), den)
    d = _denominator(*(poly for pair in pairs for poly in (pair.r, pair.s)))
    return pairs, tuple(PairElement(_times(p.r, d), _times(p.s, d), ctx) for p in pairs)


def _cleared_action(op: DiffOp, actions: Sequence[Dict[int, Fraction]], den: int,
                    depth: int) -> Tuple[DiffOp, List[Dict[int, int]]]:
    """(T*op for chains of D*d/dx, T*each action), all on ints, one T for the op.

    The order-k coefficient a_k is scaled by L*d_J*D^(depth - k), d_J the
    lcm of op's denominators, so on the chain [d*f, ..., (D*d/dx)^depth
    (d*f)] it gives T*d*op(f) with T = L*d_J*D^depth; L clears the
    denominators of d_J*D^depth times the actions.
    """
    m = _denominator(*op.coeffs.values()) * den ** depth
    lcm = math.lcm(*((m * c).denominator for action in actions for c in action.values()))
    int_op = DiffOp({k: _times(a, lcm * m // den ** k) for k, a in op.coeffs.items()})
    int_actions = [{i: c.numerator * (lcm * m // c.denominator) for i, c in action.items()}
                   for action in actions]
    return int_op, int_actions


def _is_combination(image: PairElement, coords: Dict[int, Fraction],
                    pairs: Sequence[PairElement]) -> bool:
    """Is image - sum_i coords[i] * pairs[i] exactly zero?

    The residual is summed into one dict per component, as `_combine` sums.
    """
    r = dict(image.r.coeffs)
    s = dict(image.s.coeffs)
    for i, c in coords.items():
        _add_product(r, -c, 0, pairs[i].r)
        _add_product(s, -c, 0, pairs[i].s)
    return not any(r.values()) and not any(s.values())


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
    pairs = _basis_pairs(spec)
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
