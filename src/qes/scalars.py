"""Exact scalars: arbitrary-precision rationals and the field Q(sqrt2, sqrt3).

Rationals are `fractions.Fraction` (always in lowest terms, positive
denominator). `QuadScalar` implements the fixed biquadratic field with basis
{1, sqrt2, sqrt3, sqrt6}; zero testing is exact because the basis is linearly
independent over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_COERCIBLE = (int, Fraction)

# High-precision rational approximations of the radicals, used so that float
# embedding is a single correctly-rounded conversion at the end.
_SHIFT = 2 ** 60
_SQRT2_APPROX = Fraction(isqrt(2 * _SHIFT * _SHIFT), _SHIFT)
_SQRT3_APPROX = Fraction(isqrt(3 * _SHIFT * _SHIFT), _SHIFT)
_SQRT6_APPROX = Fraction(isqrt(6 * _SHIFT * _SHIFT), _SHIFT)


class QuadScalar:
    """a + b*sqrt2 + c*sqrt3 + d*sqrt6 with Fraction components, immutable."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _COERCIBLE):
            other = QuadScalar(other)
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return QuadScalar(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        if isinstance(other, _COERCIBLE):
            other = QuadScalar(other)
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _COERCIBLE):
            return QuadScalar(self.a * other, self.b * other,
                              self.c * other, self.d * other)
        if not isinstance(other, QuadScalar):
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return QuadScalar(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    # -- field operations ------------------------------------------------

    def conjugates(self):
        """The three nontrivial Galois images (sqrt2 and/or sqrt3 negated)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (
            QuadScalar(a, -b, c, -d),
            QuadScalar(a, b, -c, -d),
            QuadScalar(a, -b, -c, d),
        )

    def invert(self) -> "QuadScalar":
        if self.is_zero():
            raise ZeroDivisionError("QuadScalar division by zero")
        g2, g3, g6 = self.conjugates()
        cofactor = g2 * g3 * g6
        norm = self * cofactor
        # The product over the full Galois orbit is rational.
        assert norm.b == 0 and norm.c == 0 and norm.d == 0
        return QuadScalar(cofactor.a / norm.a, cofactor.b / norm.a,
                          cofactor.c / norm.a, cofactor.d / norm.a)

    def __truediv__(self, other):
        if isinstance(other, _COERCIBLE):
            if other == 0:
                raise ZeroDivisionError("QuadScalar division by zero")
            inv = Fraction(1, 1) / Fraction(other)
            return self * inv
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        if isinstance(other, _COERCIBLE):
            return QuadScalar(other) * self.invert()
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.invert() if exponent < 0 else self
        result = QuadScalar(1)
        for _ in range(abs(exponent)):
            result = result * base
        return result

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def is_rational(self) -> bool:
        return self.b == 0 and self.c == 0 and self.d == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, _COERCIBLE):  # no coercion: runs for every `x == 0`
            return self.a == other and self.is_rational()
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        # A rational value equals its Fraction and int forms, so hash alike.
        if self.is_rational():
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def __float__(self) -> float:
        exact = (self.a + self.b * _SQRT2_APPROX + self.c * _SQRT3_APPROX
                 + self.d * _SQRT6_APPROX)
        return float(exact)

    def __repr__(self) -> str:
        return f"QuadScalar({self})"

    def __str__(self) -> str:
        return format_scalar(self)


SQRT2 = QuadScalar(0, 1, 0, 0)
SQRT3 = QuadScalar(0, 0, 1, 0)
SQRT6 = QuadScalar(0, 0, 0, 1)


def reciprocal(x):
    """1 / x, as a Fraction when x is an int, so an exact scalar stays exact."""
    return Fraction(1, x) if isinstance(x, int) else 1 / x


def format_scalar(x) -> str:
    """Canonical string form, e.g. '3/5+2/7*sqrt2-1*sqrt6'."""
    if not isinstance(x, QuadScalar):
        return str(Fraction(x))
    parts = []
    for coeff, tag in ((x.a, ""), (x.b, "sqrt2"), (x.c, "sqrt3"), (x.d, "sqrt6")):
        if coeff == 0:
            continue
        body = str(coeff) if not tag else f"{coeff}*{tag}"
        if not parts:
            parts.append(body)
        elif coeff > 0:
            parts.append("+" + body)
        else:
            parts.append(body)  # str(coeff) already carries the minus sign
    return "".join(parts) if parts else "0"

