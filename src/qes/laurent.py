"""Laurent polynomials in one variable with exact duck-typed coefficients.

Coefficients may be Fraction, QuadScalar, or any ring element supporting
+, -, * and equality with 0, such as `structure.ParamPoly`, which has no
division; only `stretch_square` divides, by its scale. Stored as
{exponent: coefficient} with no explicit zeros, so equality is plain dict
equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict

from .scalars import reciprocal

# Types (registered by other modules) that must NOT be treated as scalar
# coefficients; products defer to the other operand's __rmul__.
_NON_SCALAR_TYPES: tuple = ()


def register_non_scalar(kind: type) -> None:
    global _NON_SCALAR_TYPES
    if kind not in _NON_SCALAR_TYPES:
        _NON_SCALAR_TYPES = _NON_SCALAR_TYPES + (kind,)


class LaurentPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, object] | None = None) -> None:
        cleaned = {}
        if coeffs:
            for exp, coeff in coeffs.items():
                if not isinstance(exp, int):
                    raise TypeError("exponents must be int")
                if coeff == 0:
                    continue
                cleaned[exp] = coeff
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def x(cls, power: int = 1, coeff=Fraction(1)) -> "LaurentPoly":
        return cls({power: coeff})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        total = dict(self.coeffs)
        for exp, coeff in other.coeffs.items():
            total[exp] = total.get(exp, 0) + coeff
        return LaurentPoly(total)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out: Dict[int, object] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    out[e] = out.get(e, 0) + c1 * c2
            return LaurentPoly(out)
        if isinstance(other, _NON_SCALAR_TYPES):
            return NotImplemented
        return LaurentPoly({e: c * other for e, c in self.coeffs.items()})

    def __rmul__(self, other):
        return LaurentPoly({e: other * c for e, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- calculus and structure ------------------------------------------------

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: e * c for e, c in self.coeffs.items() if e != 0})

    def coeff(self, exp: int):
        return self.coeffs.get(exp, Fraction(0))

    def map_coeffs(self, fn: Callable) -> "LaurentPoly":
        return LaurentPoly({e: fn(c) for e, c in self.coeffs.items()})

    def stretch_square(self, scale) -> "LaurentPoly":
        """Substitute x -> scale * z**2: exponent n maps to 2n, coeff to c*scale^n.

        The powers of scale (and of 1/scale for negative n) are running
        products, one product per power up to the largest |n| in use.
        """
        up = _powers(scale, max(self.coeffs, default=0))
        low = min(self.coeffs, default=0)
        down = _powers(reciprocal(scale), -low) if low < 0 else []
        return LaurentPoly({2 * exp: coeff * (up[exp] if exp >= 0 else down[-exp])
                            for exp, coeff in self.coeffs.items()})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs):
            c = self.coeffs[exp]
            if exp == 0:
                parts.append(f"({c})")
            elif exp == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{exp}")
        return " + ".join(parts)


def _powers(base, top: int) -> list:
    """[base**0, base**1, ..., base**top], each the previous one times base."""
    powers = [base ** 0]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers
