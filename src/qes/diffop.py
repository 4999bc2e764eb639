"""Linear ordinary differential operators with Laurent-polynomial coefficients.

Normal form: sum over k of p_k(x) * D^k with all derivatives moved to the
right. Composition uses the Leibniz rule, so equality of normal forms is
equality of operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict

from .laurent import LaurentPoly, register_non_scalar
from .scalars import reciprocal


def _as_laurent(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    return LaurentPoly.const(value)


class DiffOp:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, object] | None = None) -> None:
        cleaned: Dict[int, LaurentPoly] = {}
        if coeffs:
            for order, poly in coeffs.items():
                if not isinstance(order, int) or order < 0:
                    raise ValueError("derivative orders must be ints >= 0")
                poly = _as_laurent(poly)
                if poly.is_zero():
                    continue
                cleaned[order] = poly
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls({})

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls({0: LaurentPoly.const(Fraction(1))})

    @classmethod
    def d(cls, order: int = 1) -> "DiffOp":
        return cls({order: LaurentPoly.const(Fraction(1))})

    @classmethod
    def mul_by(cls, poly) -> "DiffOp":
        """The operator 'multiply by poly(x)'."""
        return cls({0: _as_laurent(poly)})

    # -- vector-space operations --------------------------------------------

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        total = dict(self.coeffs)
        for order, poly in other.coeffs.items():
            total[order] = total.get(order, LaurentPoly.zero()) + poly
        return DiffOp(total)

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DiffOp({k: -p for k, p in self.coeffs.items()})

    # -- composition -------------------------------------------------------

    def __mul__(self, other):
        """Operator composition; scalars and Laurent polys act as multipliers."""
        if not isinstance(other, DiffOp):
            other = DiffOp.mul_by(other)
        out: Dict[int, LaurentPoly] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                db = b
                for m in range(i + 1):
                    if db.is_zero():
                        break
                    term = comb(i, m) * (a * db)
                    order = i + j - m
                    out[order] = out.get(order, LaurentPoly.zero()) + term
                    db = db.derivative()
        return DiffOp(out)

    def __rmul__(self, other):
        # other is a scalar or Laurent poly: multiplying by a function on the
        # left only scales each coefficient, with no Leibniz terms.
        factor = _as_laurent(other)
        return DiffOp({k: factor * p for k, p in self.coeffs.items()})

    def __pow__(self, n: int) -> "DiffOp":
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be ints >= 0")
        result = DiffOp.identity()
        for _ in range(n):
            result = result * self
        return result

    # -- predicates ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset((k, p) for k, p in self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        if not self.coeffs:
            raise ValueError("zero operator has no order")
        return max(self.coeffs)

    def coeff(self, order: int) -> LaurentPoly:
        return self.coeffs.get(order, LaurentPoly.zero())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for order in sorted(self.coeffs, reverse=True):
            poly = self.coeffs[order]
            if order == 0:
                parts.append(f"[{poly!r}]")
            elif order == 1:
                parts.append(f"[{poly!r}]*D")
            else:
                parts.append(f"[{poly!r}]*D^{order}")
        return " + ".join(parts)


register_non_scalar(DiffOp)


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    return a * b - b * a


@dataclass(frozen=True)
class GaugeFactor:
    """Multiplier z**z_power * exp(gauss_coeff * z**2)."""

    z_power: int
    gauss_coeff: object

    def log_derivative(self) -> LaurentPoly:
        terms = {}
        if self.z_power:
            terms[-1] = Fraction(self.z_power)
        if self.gauss_coeff != 0:
            terms[1] = 2 * self.gauss_coeff
        return LaurentPoly(terms)


def conjugate_by_gauge(op: DiffOp, gauge: GaugeFactor) -> DiffOp:
    """Return gauge^-1 * op * gauge in normal form.

    Conjugation is an algebra map fixing multiplication operators and sending
    D to D + (log gauge)'. Exact whenever the log-derivative is Laurent, which
    holds for all supported gauges.
    """
    shifted_d = DiffOp({1: LaurentPoly.const(Fraction(1)),
                        0: gauge.log_derivative()})
    return _replace_d(op, shifted_d, lambda poly: poly)


def substitute_square(op: DiffOp, scale) -> DiffOp:
    """Rewrite an operator in x under the change of variable x = scale * z**2.

    Multiplication by x becomes multiplication by scale*z^2 and D_x becomes
    (1/(2*scale)) * z^-1 * D_z; the result may have Laurent coefficients.
    """
    if scale == 0:
        raise ValueError("substitution scale must be nonzero")
    new_d = DiffOp({1: LaurentPoly({-1: reciprocal(2 * scale)})})
    return _replace_d(op, new_d, lambda poly: poly.stretch_square(scale))


def _replace_d(op: DiffOp, new_d: DiffOp, coefficient) -> DiffOp:
    """sum_k coefficient(p_k) * new_d^k for op = sum_k p_k D^k: D replaced by
    the first-order new_d, and each coefficient mapped."""
    result, power = DiffOp.zero(), DiffOp.identity()
    for order in range(max(op.coeffs, default=0) + 1):
        if order:
            power = power * new_d
        if order in op.coeffs:
            result = result + coefficient(op.coeffs[order]) * power
    return result


def pull_back_square(op: DiffOp, scale) -> DiffOp:
    """The operator in x that `substitute_square(., scale)` maps to `op` in z.

    It exists exactly when `op` is even in z, each p_k(z) D_z^k having only
    exponents of the parity of k; an odd term raises ValueError.  Orders are
    peeled from the top: D_x^k turns into (2*scale*z)^-k D_z^k plus lower
    orders, so the leading term fixes one x-term, and its substitution is
    subtracted before the next order.
    """
    if scale == 0:
        raise ValueError("substitution scale must be nonzero")
    rest, result = op, DiffOp.zero()
    while not rest.is_zero():
        order = rest.order()
        lead = rest.coeffs[order] * LaurentPoly.x(order, (2 * scale) ** order)
        coeffs = {}
        for exp, coeff in lead.coeffs.items():
            if exp % 2:
                raise ValueError(f"term z^{exp - order}*D^{order} is odd in z")
            half = exp // 2
            coeffs[half] = coeff * (reciprocal(scale) ** half if half >= 0 else scale ** -half)
        term = DiffOp({order: LaurentPoly(coeffs)})
        result = result + term
        rest = rest - substitute_square(term, scale)
    return result
