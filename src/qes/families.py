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
        return context_over(self.family_id, self.s, self.alpha, self.nu)


def context_over(family_id: int, s, alpha, nu) -> PairContext:
    """The ODE rewrite of one family's kernel, with s, alpha and nu taken from
    any coefficient ring (as in `operators_over`)."""
    if family_id == 1:
        u, v = LaurentPoly.x(-1), LaurentPoly.x(-1, -s)
    elif family_id in (2, 3):
        u = LaurentPoly.x(-1, alpha)
        v = LaurentPoly({0: _ONE, -1: -s})
    elif family_id == 4:
        u, v = LaurentPoly.x(), LaurentPoly.zero()
    elif family_id == 5:
        u = LaurentPoly({0: _ONE, -2: nu * nu})
        v = LaurentPoly.x(-1, -_ONE)
    else:
        u = LaurentPoly.const(4 * alpha)
        v = LaurentPoly.x(1, Fraction(2))
    return PairContext(u, v)


def second_seed_over(family_id: int, s, alpha, nu) -> Tuple[object, LaurentPoly, LaurentPoly]:
    """(w, R, S) with w * f_0^- = R*F + S*F', f_0^- the seed of the second
    chain (families other than 3), for parameters from any coefficient ring.

    w is 1, alpha (family 2) or 4*alpha (family 6), so R and S stay
    polynomial in the parameters.  Family 3 extends by shifting the upper
    hypergeometric parameter instead of adjoining a derivative chain, so it
    has no second seed.
    """
    zero = LaurentPoly.zero()
    if family_id == 1:
        return 1, zero, LaurentPoly.const(s)
    if family_id == 2:
        return alpha, zero, LaurentPoly.const(s)
    if family_id == 4:
        return 1, zero, LaurentPoly.const(_ONE)
    if family_id == 5:
        return 1, LaurentPoly.x(-1, nu), LaurentPoly.const(-_ONE)
    # The second chain must carry the opposite parity for the ladder to
    # close: its seed is F'/(4*alpha) = x * 1F1(alpha+1; 3/2; x^2), the
    # derivative kernel with its natural odd prefactor kept.
    return 4 * alpha, zero, LaurentPoly.const(_ONE)


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
        w, r, s = second_seed_over(spec.family_id, spec.s, spec.alpha, spec.nu)
        minus = PairElement(r * (_ONE / w), s * (_ONE / w), ctx)
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

def ladder_table(family_id: int, n, n_cap, s, alpha, nu):
    """The closed-form ladder actions of one family on the basis element of
    index n, with n, N = n_cap and the parameters from any coefficient ring.

    Returns {(raising?, on the plus chain?): (den, terms)}, one entry per
    operator and source chain (family 3 has the plus chain only), each term
    (target on the plus chain?, index shift, numerator): J f_n carries
    numerator / den times the target element of index n + shift on its
    chain.  den is 1 or s.  `action_formula` evaluates the table on
    Fractions and `structure.ladder_proof` on polynomials in n, N and the
    parameters, so the coefficients it proves are the ones
    `rabi.subspace_matrix` uses.  Every term whose target leaves 0..N has a
    numerator that vanishes there: b_n = n - N going up from n = N, and n
    (or n(n - 1) for a step of two) going down from n = 0 (Turbiner's sl(2)
    structure).
    """
    a_n = n - 2 * n_cap
    b_n = n - n_cap
    if family_id == 1:
        return {
            (True, True): (s, [(True, 0, s * n * (a_n - 1 + s)), (False, 1, 2 * b_n)]),
            (True, False): (1, [(False, 0, (n - s) * (a_n - 1)), (True, 0, s * (2 * b_n - 1))]),
            (False, True): (s, [(True, 0, s), (True, -1, s * n * (n + s)), (False, 0, 1 + 2 * n)]),
            (False, False): (1, [(False, 0, 1), (False, -1, n * (n - s)), (True, -1, 2 * n * s)]),
        }
    if family_id == 2:
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
    if family_id == 3:
        c_n = n_cap - 2 * n
        return {
            (True, True): (1, [(True, 0, s * n + (alpha + n) * c_n), (True, 1, (alpha + n) * b_n),
                               (True, -1, n * (alpha + n - s))]),
            (False, True): (1, [(True, 0, n + alpha)]),
        }
    if family_id == 4:
        return {
            (True, True): (1, [(True, -2, n * (n - 1)), (False, -1, 2 * n)]),
            (True, False): (1, [(True, 0, 1 + 2 * n), (False, -2, n * (n - 1))]),
            (False, True): (1, [(True, -1, (a_n - 2) * n), (False, 0, 2 * b_n - 1)]),
            (False, False): (1, [(True, 1, 2 * b_n), (False, -1, (a_n - 2) * n)]),
        }
    if family_id == 5:
        return {
            (True, True): (1, [(True, 0, (nu + n) * (nu + a_n)), (False, 1, -2 * b_n)]),
            (True, False): (1, [(False, 0, (n - 1 - nu) * (a_n - 1 - nu)), (True, 1, -2 * b_n)]),
            (False, True): (1, [(True, -1, n * (1 + n + 2 * nu)), (False, 0, -(1 + 2 * n))]),
            (False, False): (1, [(True, 0, -(1 + 2 * n)), (False, -1, n * (n - 2 * nu - 1))]),
        }
    if family_id == 6:
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
    raise FamilyError(f"unknown family id {family_id}")


def action_formula(spec: FamilySpec, raise_op: bool, index: int) -> Dict[int, Fraction]:
    """Published closed-form action of J+ (raise_op) or J- on one basis element.

    `index` is the element's position in the fixed basis order: n for
    family 3, whose basis is the single chain f_0..f_N, and for the other
    families n on the plus chain f_0^+..f_N^+ and N + 1 + n on the minus
    chain after it.  An index outside 0..dimension - 1 is a FamilyError.
    Returns {basis_index: coefficient} with the zero coefficients omitted,
    read off `ladder_table`.  The cut-off at the subspace edges needs no
    guard: every coefficient whose target index would leave 0..N vanishes
    there, so it is dropped as a zero, and the range check is the edge
    check: a nonzero coefficient outside 0..N is a FamilyError.
    """
    if not 0 <= index < spec.dimension:
        raise FamilyError(f"basis index {index} outside 0..{spec.dimension - 1}")
    n_cap = spec.n_max
    # Family 3's one chain has N + 1 elements, so every index is on it.
    plus_chain, m = index <= n_cap, index % (n_cap + 1)
    den, terms = ladder_table(spec.family_id, Fraction(m), n_cap,
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
    solutions]; plus the raw dimension bookkeeping.
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
            "raw_dimension": len(solutions)}


def _op_vector(op: DiffOp, unknowns: List[Tuple[int, int]]) -> Optional[List[Fraction]]:
    """`op`'s coefficients at the cells `unknowns`, or None when it has a cell outside them."""
    cells = op.cells()
    if not cells.keys() <= set(unknowns):
        return None
    return [cells.get(cell, _ZERO) for cell in unknowns]


def operator_in_span(result: Dict[str, object], op: DiffOp,
                     max_order: int = 2, degree_bound: int = 2) -> bool:
    """Does `op` lie in the preserving span (modulo an additive constant)?

    The identity, the generators of `solve_preserving` and `op` are read as
    vectors over the same cells (`_op_vector`); `op` is in the span when
    appending it keeps the rank.  An operator with a cell outside them is not.
    """
    unknowns = [(k, e) for k in range(max_order + 1) for e in range(degree_bound + 1)]
    target = _op_vector(op, unknowns)
    if target is None:
        return False
    rows = [_op_vector(gen, unknowns) for gen in (DiffOp.identity(), *result["generators"])]
    return linalg.rank(rows + [target]) == linalg.rank(rows)
