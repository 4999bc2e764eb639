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
    """Differentiation rule for R*F + S*F' in the kernel's own coordinate x.

    `u` and `v` give the ODE rewrite F'' = u*F + v*F', so

        d/dx [R*F + S*F'] = (R' + S*u)*F + (R + S' + S*v)*F'
    """

    u: LaurentPoly
    v: LaurentPoly

    def derive(self, r: LaurentPoly, s: LaurentPoly) -> Tuple[LaurentPoly, LaurentPoly]:
        return r.derivative() + s * self.u, r + s.derivative() + s * self.v


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

@dataclass(frozen=True)
class Family:
    """One family as data: `FAMILIES` keeps one record per id, and a new
    kernel is one more record.  Each formula only adds and multiplies its
    parameters, so it takes them from any ring: rationals for a `FamilySpec`,
    polynomials for `structure`'s proofs.  Unused parameters are ignored.

    - `parameters`: the names it takes, in the order `sampling` draws them;
      `rules`: per name, a check raising FamilyError for a value refused at
      subspace size N (each refuses zero).
    - `rewrite(s, alpha, nu)`: the kernel's ODE F'' = u*F + v*F'.
    - `minus_seed(s, alpha, nu)`: (w, R, S) with w * f_0^- = R*F + S*F' and
      f_n^- = x^n f_0^-, w keeping R and S polynomial.  None for the single
      shifted-parameter chain f_(n+1) = f_n + x f_n' / (alpha + n).
    - `operators(N, s, alpha, nu)`: (J+, J-).
    - `ladder(n, N, s, alpha, nu)`: the closed-form actions on the element
      of index n, {(raising?, on the plus chain?): (den, terms)}, each term
      (target on the plus chain?, index shift, numerator): J f_n carries
      numerator / den (den 1 or s) times the element of index n + shift on
      the target chain.  `action_formula` reads it on Fractions;
      `structure.ladder_proof` proves it over polynomials in n and N,
      including Turbiner's sl(2) cut-off: a term whose target leaves 0..N
      vanishes there.
    - `closure(s, alpha, nu, n)`: the tabulated closure coefficients, keyed
      by `structure.CONSTANT_NAMES`.
    """

    parameters: Tuple[str, ...]
    rules: Dict[str, Callable[[Fraction, int], None]]
    rewrite: Callable[..., PairContext]
    minus_seed: Optional[Callable[..., Tuple[object, LaurentPoly, LaurentPoly]]]
    operators: Callable[..., Tuple[DiffOp, DiffOp]]
    ladder: Callable[..., Dict[Tuple[bool, bool], Tuple[object, list]]]
    closure: Callable[..., Dict[str, object]]


def _s_off_the_poles(s: Fraction, n_max: int) -> None:
    if s.denominator == 1 and s <= 0:
        raise FamilyError("s must avoid the nonpositive integers")


def _alpha_nonzero(alpha: Fraction, n_max: int) -> None:
    if alpha == 0:
        raise FamilyError("alpha = 0 degenerates the second chain")


def _alpha_off_the_chain(alpha: Fraction, n_max: int) -> None:
    if -alpha in range(n_max + 1):
        raise FamilyError(f"alpha + {-alpha} = 0 breaks the parameter chain")


def _kummer(s, alpha, nu) -> PairContext:
    """x F'' + (s - x) F' = alpha F, F = 1F1(alpha; s; x)."""
    return PairContext(LaurentPoly.x(-1, alpha), LaurentPoly({0: _ONE, -1: -s}))


def _ladder_1(n, n_cap, s, alpha, nu):
    a_n, b_n = n - 2 * n_cap, n - n_cap
    return {
        (True, True): (s, [(True, 0, s * n * (a_n - 1 + s)), (False, 1, 2 * b_n)]),
        (True, False): (1, [(False, 0, (n - s) * (a_n - 1)), (True, 0, s * (2 * b_n - 1))]),
        (False, True): (s, [(True, 0, s), (True, -1, s * n * (n + s)), (False, 0, 1 + 2 * n)]),
        (False, False): (1, [(False, 0, 1), (False, -1, n * (n - s)), (True, -1, 2 * n * s)]),
    }


def _ladder_2(n, n_cap, s, alpha, nu):
    a_n, b_n = n - 2 * n_cap, n - n_cap
    return {
        (True, True): (s, [(True, 0, s * n * (a_n - 1 + s)), (True, 1, -s * b_n),
                           (False, 1, 2 * alpha * b_n)]),
        (True, False): (1, [(False, 0, (s - n) * (1 - a_n)), (False, 1, b_n),
                            (True, 0, s * (2 * b_n - 1))]),
        (False, True): (s, [(True, 0, s * (alpha - n)), (True, -1, s * n * (n + s)),
                            (False, 0, alpha * (1 + 2 * n))]),
        (False, False): (1, [(False, 0, alpha + n + 1), (False, -1, n * (n - s)),
                             (True, -1, 2 * n * s)]),
    }


def _ladder_3(n, n_cap, s, alpha, nu):
    b_n, c_n = n - n_cap, n_cap - 2 * n
    return {
        (True, True): (1, [(True, 0, s * n + (alpha + n) * c_n), (True, 1, (alpha + n) * b_n),
                           (True, -1, n * (alpha + n - s))]),
        (False, True): (1, [(True, 0, n + alpha)]),
    }


def _ladder_4(n, n_cap, s, alpha, nu):
    a_n, b_n = n - 2 * n_cap, n - n_cap
    return {
        (True, True): (1, [(True, -2, n * (n - 1)), (False, -1, 2 * n)]),
        (True, False): (1, [(True, 0, 1 + 2 * n), (False, -2, n * (n - 1))]),
        (False, True): (1, [(True, -1, (a_n - 2) * n), (False, 0, 2 * b_n - 1)]),
        (False, False): (1, [(True, 1, 2 * b_n), (False, -1, (a_n - 2) * n)]),
    }


def _ladder_5(n, n_cap, s, alpha, nu):
    a_n, b_n = n - 2 * n_cap, n - n_cap
    return {
        (True, True): (1, [(True, 0, (nu + n) * (nu + a_n)), (False, 1, -2 * b_n)]),
        (True, False): (1, [(False, 0, (n - 1 - nu) * (a_n - 1 - nu)), (True, 1, -2 * b_n)]),
        (False, True): (1, [(True, -1, n * (1 + n + 2 * nu)), (False, 0, -(1 + 2 * n))]),
        (False, False): (1, [(True, 0, -(1 + 2 * n)), (False, -1, n * (n - 2 * nu - 1))]),
    }


def _ladder_6(n, n_cap, s, alpha, nu):
    a_n, b_n = n - 2 * n_cap, n - n_cap
    return {
        (True, True): (1, [(True, 1, -2 * b_n), (True, -1, n * (a_n - 2)),
                           (False, 0, 4 * alpha * (2 * b_n - 1))]),
        (True, False): (1, [(False, -1, n * (a_n - 2)), (True, 0, 2 * b_n - 1),
                            (False, 1, 2 * b_n)]),
        (False, True): (1, [(True, 0, 2 * (2 * alpha - n)), (True, -2, n * n - n),
                            (False, -1, 8 * alpha * n)]),
        (False, False): (1, [(True, -1, 2 * n), (False, 0, 2 * (2 * alpha + 1 + n)),
                             (False, -2, n * n - n)]),
    }


FAMILIES: Dict[int, Family] = {
    # x F'' + s F' = F, F = 0F1(; s; x)
    1: Family(("s",), {"s": _s_off_the_poles},
        rewrite=lambda s, alpha, nu: PairContext(LaurentPoly.x(-1), LaurentPoly.x(-1, -s)),
        minus_seed=lambda s, alpha, nu: (1, LaurentPoly.zero(), LaurentPoly.const(s)),
        operators=lambda n_cap, s, alpha, nu: (
            DiffOp({2: LaurentPoly.x(2), 1: LaurentPoly.x(1, s - 2 * n_cap), 0: -LaurentPoly.x()}),
            DiffOp({2: LaurentPoly.x(), 1: LaurentPoly.const(s + 1)})),
        ladder=_ladder_1,
        closure=lambda s, alpha, nu, n: dict(
            c1p=0, c1m=2, c2m=0, c3p=-4, c4p=-2, c5p=2, c5m=0,
            c6p=(2 * n - s) * (s - 2 - 2 * n), c6m=-2, c7p=(s + 1) * (s - 2 - 2 * n), c7m=0)),
    # F = 1F1(alpha; s; x) beside the chain of f_0^- = s F' / alpha
    2: Family(("s", "alpha"), {"s": _s_off_the_poles, "alpha": _alpha_nonzero},
        rewrite=_kummer,
        minus_seed=lambda s, alpha, nu: (alpha, LaurentPoly.zero(), LaurentPoly.const(s)),
        operators=lambda n_cap, s, alpha, nu: (
            DiffOp({2: LaurentPoly.x(2), 1: LaurentPoly({1: s - 2 * n_cap, 2: -_ONE}),
                    0: LaurentPoly.x(1, n_cap - alpha)}),
            DiffOp({2: LaurentPoly.x(), 1: LaurentPoly({0: 1 + s, 1: -_ONE})})),
        ladder=_ladder_2,
        closure=lambda s, alpha, nu, n: dict(
            c1p=0, c1m=2, c2m=0, c3p=-4, c4p=-2, c5p=2 + 2 * alpha + s, c5m=1,
            c6p=(2 * n - s) * (s - 2 - 2 * n), c6m=-(2 + 2 * alpha + s),
            c7p=(alpha - n) * (s + 1) * (2 + 2 * alpha + s), c7m=(alpha - n) * (s + 1))),
    # the single chain f_n = 1F1(alpha + n; s; x)
    3: Family(("s", "alpha"), {"s": _s_off_the_poles, "alpha": _alpha_off_the_chain},
        rewrite=_kummer, minus_seed=None,
        operators=lambda n_cap, s, alpha, nu: (
            DiffOp({2: LaurentPoly.x(2), 1: LaurentPoly({1: s - n_cap, 2: -_ONE}),
                    0: LaurentPoly.x(1, -alpha)}),
            DiffOp({2: LaurentPoly.x(), 1: LaurentPoly({0: s, 1: -_ONE})})),
        ladder=_ladder_3,
        closure=lambda s, alpha, nu, n: dict(
            c1p=0, c1m=2, c2m=0, c3p=-4, c4p=-2, c5p=s + n + 2 * alpha, c5m=1,
            c6p=s - n, c6m=-(s + n + 2 * alpha), c7p=s * alpha * (s - n - 2), c7m=s * alpha)),
    # F'' = x F, F an Airy function
    4: Family((), {},
        rewrite=lambda s, alpha, nu: PairContext(LaurentPoly.x(), LaurentPoly.zero()),
        minus_seed=lambda s, alpha, nu: (1, LaurentPoly.zero(), LaurentPoly.const(_ONE)),
        operators=lambda n_cap, s, alpha, nu: (
            DiffOp({2: LaurentPoly.const(_ONE), 0: -LaurentPoly.x()}),
            DiffOp({2: LaurentPoly.x(), 1: LaurentPoly.const(-1 - 2 * n_cap),
                    0: -LaurentPoly.x(2)})),
        ladder=_ladder_4,
        closure=lambda s, alpha, nu, n: dict(
            c1p=0, c1m=0, c2m=6, c3p=0, c4p=0, c5p=-2, c5m=0, c6p=0, c6m=2, c7p=0, c7m=0)),
    # x^2 F'' + x F' = (x^2 + nu^2) F, F = I_nu(x)
    5: Family(("nu",), {},
        rewrite=lambda s, alpha, nu: PairContext(LaurentPoly({0: _ONE, -2: nu * nu}),
                                                 LaurentPoly.x(-1, -_ONE)),
        minus_seed=lambda s, alpha, nu: (1, LaurentPoly.x(-1, nu), LaurentPoly.const(-_ONE)),
        operators=lambda n_cap, s, alpha, nu: (
            DiffOp({2: LaurentPoly.x(2), 1: LaurentPoly.x(1, 1 - 2 * n_cap),
                    0: -LaurentPoly.x(2)}),
            DiffOp({2: LaurentPoly.x(), 1: LaurentPoly.const(Fraction(2)),
                    0: LaurentPoly({-1: -(nu * nu + nu), 1: -_ONE})})),
        ladder=_ladder_5,
        closure=lambda s, alpha, nu, n: dict(
            c1p=0, c1m=2, c2m=0, c3p=-4, c4p=-2, c5p=0, c5m=4, c6p=1 - 4 * n * n, c6m=0,
            c7p=0, c7m=-4 * (1 + nu * nu + 2 * n + nu))),
    # F'' = 2x F' + 4 alpha F, F = 1F1(alpha; 1/2; x^2).  The minus chain must
    # carry the opposite parity for the ladder to close: its seed is
    # F'/(4*alpha) = x * 1F1(alpha+1; 3/2; x^2), odd prefactor kept.
    6: Family(("alpha",), {"alpha": _alpha_nonzero},
        rewrite=lambda s, alpha, nu: PairContext(LaurentPoly.const(4 * alpha),
                                                 LaurentPoly.x(1, Fraction(2))),
        minus_seed=lambda s, alpha, nu: (4 * alpha, LaurentPoly.zero(), LaurentPoly.const(_ONE)),
        operators=lambda n_cap, s, alpha, nu: (
            DiffOp({2: LaurentPoly.x(), 1: LaurentPoly({2: Fraction(-2), 0: -1 - 2 * n_cap}),
                    0: LaurentPoly.x(1, 2 * (n_cap - 2 * alpha))}),
            DiffOp({2: LaurentPoly.const(_ONE), 1: LaurentPoly.x(1, Fraction(-2))})),
        ladder=_ladder_6,
        closure=lambda s, alpha, nu, n: dict(
            c1p=-6, c1m=0, c2m=0, c3p=0, c4p=0, c5p=0, c5m=4, c6p=12 + 32 * alpha, c6m=0,
            c7p=-8 * (2 * alpha - n) * (2 + n + 2 * alpha), c7m=0)),
}


@dataclass(frozen=True)
class FamilySpec:
    """One of the families, with its parameters pinned to exact rationals."""

    family_id: int
    n_max: int
    s: Optional[Fraction] = None
    alpha: Optional[Fraction] = None
    nu: Optional[Fraction] = None

    def __post_init__(self) -> None:
        family = FAMILIES.get(self.family_id)
        if family is None:
            raise FamilyError(f"unknown family id {self.family_id}")
        if self.n_max < 0:
            raise FamilyError("subspace size N must be non-negative")
        extra = [name for name in ("s", "alpha", "nu")
                 if getattr(self, name) is not None and name not in family.parameters]
        if extra:
            raise FamilyError(f"family {self.family_id} takes no parameter {', '.join(extra)}")
        for name in family.parameters:
            value = getattr(self, name)
            if value is None:
                raise FamilyError(f"family {self.family_id} requires parameter {name}")
            if name in family.rules:
                family.rules[name](value, self.n_max)

    @property
    def family(self) -> Family:
        return FAMILIES[self.family_id]

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) * (1 if self.family.minus_seed is None else 2)


def _basis_pairs(spec: FamilySpec) -> Tuple[PairElement, ...]:
    """All basis elements as pairs, in the fixed order."""
    ctx = spec.family.rewrite(spec.s, spec.alpha, spec.nu)
    plus = PairElement(LaurentPoly.const(_ONE), LaurentPoly.zero(), ctx)
    if spec.family.minus_seed is None:
        pairs = [plus]
        for n in range(spec.n_max):
            pairs.append(pairs[-1] + pairs[-1].derivative().times_poly(
                LaurentPoly.x(1, _ONE / (spec.alpha + n))))
        return tuple(pairs)
    w, r, s = spec.family.minus_seed(spec.s, spec.alpha, spec.nu)
    minus = PairElement(r * (_ONE / w), s * (_ONE / w), ctx)
    return tuple(seed.times_poly(LaurentPoly.x(n))
                 for seed in (plus, minus) for n in range(spec.n_max + 1))


def family_operators(spec: FamilySpec) -> Tuple[DiffOp, DiffOp]:
    """(J+, J-) for the family, with the subspace size N baked in."""
    return spec.family.operators(Fraction(spec.n_max), spec.s, spec.alpha, spec.nu)



# ---------------------------------------------------------------------------
# decomposition over the basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NotInSpan:
    """Witness that a pair is outside the subspace: the system is inconsistent."""

    rank_basis: int
    rank_augmented: int
    residual: PairElement


def _basis_matrix(pairs: Sequence[PairElement]):
    """One row per (component, exponent) key that occurs in `pairs`, one
    column per pair; absent entries are zero."""
    exps_r = sorted({e for p in pairs for e in p.r.coeffs})
    exps_s = sorted({e for p in pairs for e in p.s.coeffs})
    return ([[p.r.coeffs.get(e, _ZERO) for p in pairs] for e in exps_r]
            + [[p.s.coeffs.get(e, _ZERO) for p in pairs] for e in exps_s])


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

    `index` is the element's position in the fixed basis order: n on the
    plus chain f_0..f_N (the whole basis of a family without a minus seed)
    and N + 1 + n on the minus chain after it.  An index outside
    0..dimension - 1 is a FamilyError.  Returns {basis_index: coefficient}
    with the zero coefficients omitted, read off `Family.ladder`.  The
    cut-off at the subspace edges needs no guard: every coefficient whose
    target index would leave 0..N vanishes there, so it is dropped as a
    zero, and the range check is the edge check: a nonzero coefficient
    outside 0..N is a FamilyError.
    """
    if not 0 <= index < spec.dimension:
        raise FamilyError(f"basis index {index} outside 0..{spec.dimension - 1}")
    n_cap = spec.n_max
    plus_chain, m = index <= n_cap, index % (n_cap + 1)
    den, terms = spec.family.ladder(Fraction(m), n_cap,
                                    spec.s, spec.alpha, spec.nu)[raise_op, plus_chain]
    out: Dict[int, Fraction] = {}
    for to_plus, shift, numerator in terms:
        if numerator == 0:
            continue
        target = m + shift
        if not 0 <= target <= n_cap:
            raise FamilyError(
                f"ladder coefficient escapes the subspace: target index {target}")
        if not to_plus:
            target += n_cap + 1  # the minus chain follows the plus chain
        out[target] = out.get(target, _ZERO) + Fraction(numerator) / den
    return out


def verify_invariance(spec: FamilySpec) -> Dict[str, object]:
    """Check both family operators against the closed-form ladder actions.

    Each action J f_j = sum_i a_ij f_i is checked as an identity: the image
    of every basis pair is formed from its derivatives, which J+ and J-
    share, the combination given by `action_formula` is subtracted
    (`_is_combination`), and the residual must be exactly zero.  A passing
    check solves nothing; only a failing image is decomposed over the
    basis, so that its mismatch carries the computed coordinates (or "not
    in span") beside the expected ones (or "outside the subspace", for a
    nonzero coefficient past the edge).  `basis_rank` is the rank of the
    basis matrix.
    """
    pairs = _basis_pairs(spec)
    ops = tuple(zip(("J+", "J-"), family_operators(spec)))
    depth = max(op.order() for _, op in ops)
    mismatches: List[Dict[str, object]] = []
    for idx, pair in enumerate(pairs):
        chain = _derivatives(pair, depth)
        for label, op in ops:
            image = _combine(op, chain)
            try:
                expected = action_formula(spec, label == "J+", idx)
            except FamilyError:  # a nonzero coefficient past the subspace edge
                expected = "outside the subspace"
            else:
                if _is_combination(image, expected, pairs):
                    continue
            coords = decompose(image, spec)
            computed = ("not in span" if isinstance(coords, NotInSpan)
                        else {i: c for i, c in enumerate(coords) if c != 0})
            mismatches.append({"op": label, "element": idx,
                               "computed": computed, "expected": expected})
    rank = linalg.rank(_basis_matrix(pairs))
    return {"family": spec.family_id, "n_max": spec.n_max,
            "checks": len(ops) * len(pairs), "mismatches": mismatches,
            "ok": not mismatches,
            "basis_rank": rank, "rank_ok": rank == spec.dimension}


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
    into itself, found by exact linear algebra over the coefficients of a_k.

    With coefficients c, basis element j maps to sum_(k,e) c_ke x^e f_j^(k).
    In one RREF of [basis | every x^e f_j^(k)] (`_basis_matrix`), each row
    pivoted past the basis columns is a condition that every image in the
    span meets; its slice over element j's columns is a condition on c, and
    the preserving space is their null space.  The matrix entries need no
    unknowns: on an independent basis the operator fixes them.

    Returns the space modulo the constants (multiples of the identity): the
    generators are the solutions at the pivot columns of [identity |
    solutions]; plus the searched (order, exponent) cells, which
    `operator_in_span` reads, and the raw dimension bookkeeping.
    """
    pairs = _basis_pairs(spec)
    dim = len(pairs)
    unknowns = [(k, e) for k in range(max_order + 1) for e in range(degree_bound + 1)]
    chains = [_derivatives(pair, max_order) for pair in pairs]
    images = [chain[k].times_poly(LaurentPoly.x(e)) for chain in chains for k, e in unknowns]
    red, pivots = linalg.rref(_basis_matrix([*pairs, *images]))
    width = len(unknowns)
    conditions = [row[dim + j * width:dim + (j + 1) * width]
                  for row, col in zip(red, pivots) if col >= dim for j in range(dim)]
    solutions = linalg.nullspace(conditions or [[_ZERO] * width])
    _, chosen = linalg.rref(list(zip(_op_vector(DiffOp.identity(), unknowns), *solutions)))
    generators = [sum((DiffOp({k: LaurentPoly.x(e, c)})
                       for (k, e), c in zip(unknowns, solutions[col - 1])), DiffOp.zero())
                  for col in chosen[1:]]
    return {"generators": generators, "dimension_mod_constants": len(generators),
            "cells": unknowns, "raw_dimension": len(solutions)}


def _op_vector(op: DiffOp, unknowns: List[Tuple[int, int]]) -> Optional[List[Fraction]]:
    """`op`'s coefficients at the cells `unknowns`, or None when it has a cell outside them."""
    cells = op.cells()
    if not cells.keys() <= set(unknowns):
        return None
    return [cells.get(cell, _ZERO) for cell in unknowns]


def operator_in_span(result: Dict[str, object], op: DiffOp) -> bool:
    """Does `op` lie in the preserving span (modulo an additive constant)?

    The identity, the generators of `solve_preserving` and `op` are read as
    vectors over the cells the search used (`result["cells"]`, `_op_vector`);
    `op` is in the span when appending it keeps the rank.  An operator with
    a cell outside them is not.
    """
    cells = result["cells"]
    target = _op_vector(op, cells)
    if target is None:
        return False
    rows = [_op_vector(gen, cells) for gen in (DiffOp.identity(), *result["generators"])]
    return linalg.rank(rows + [target]) == linalg.rank(rows)
