"""Exact arithmetic in a real quadratic extension Q(sqrt(m)).

The classification families involve irrational parameter values such as
``alpha = sqrt(2)*gamma`` or ``gamma = (sqrt(3)/2)*alpha``.  To keep the
feasibility oracle exact on those families, sample values may be numbers
of the form ``a + b*sqrt(m)`` with rational a, b and a fixed square-free
radicand m.  This realizes the squared-parameter sample mode: the square
``value**2`` and the sign are both exact, and every field operation stays
inside Q(sqrt(m)).

Only one irrational radicand may appear in a given sample; mixing, say,
sqrt(2) and sqrt(3) raises ArithmeticError.  Plain rationals (b == 0,
normalized to m == 1) combine freely with any radicand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

NumberLike = Union[int, Fraction, "QuadRat"]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 0 as m * k**2 with m square-free; returns (m, k)."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    m, k = n, 1
    d = 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            k *= d
        d += 1
    return m, k


@dataclass(frozen=True)
class QuadRat:
    """a + b*sqrt(m) with a, b rational and m square-free (m == 1 iff b == 0)."""

    a: Fraction
    b: Fraction
    m: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b == 0:
            object.__setattr__(self, "m", 1)
        elif self.m <= 1 or squarefree_decompose(self.m)[1] != 1:
            raise ValueError(f"radicand {self.m} must be square-free and exceed 1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: int | Fraction) -> QuadRat:
        return QuadRat(Fraction(value), Fraction(0), 1)

    @staticmethod
    def sqrt(value: int | Fraction) -> QuadRat:
        """Exact square root of a non-negative rational."""
        frac = Fraction(value)
        if frac < 0:
            raise ValueError("sqrt of a negative rational")
        # sqrt(n/d) = sqrt(n*d)/d with n*d = m*k^2 square-free decomposed
        m, k = squarefree_decompose(frac.numerator * frac.denominator)
        coeff = Fraction(k, frac.denominator)
        if m in (0, 1):
            return QuadRat(coeff * m if m == 0 else coeff, Fraction(0), 1)
        return QuadRat(Fraction(0), coeff, m)

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> QuadRat | None:
        if isinstance(value, QuadRat):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadRat.from_rational(value)
        return None

    def _common_radicand(self, other: QuadRat) -> int:
        if self.b == 0:
            return other.m
        if other.b == 0:
            return self.m
        if self.m != other.m:
            raise ArithmeticError(
                f"incompatible radicands sqrt({self.m}) and sqrt({other.m})"
            )
        return self.m

    # -- field operations --------------------------------------------------

    def __add__(self, other: object):
        rhs = QuadRat._coerce(other)
        if rhs is None:
            return NotImplemented
        m = self._common_radicand(rhs)
        return QuadRat(self.a + rhs.a, self.b + rhs.b, m)

    __radd__ = __add__

    def __neg__(self) -> QuadRat:
        return QuadRat(-self.a, -self.b, self.m)

    def __sub__(self, other: object):
        rhs = QuadRat._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object):
        rhs = QuadRat._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object):
        rhs = QuadRat._coerce(other)
        if rhs is None:
            return NotImplemented
        m = self._common_radicand(rhs)
        return QuadRat(
            self.a * rhs.a + self.b * rhs.b * m,
            self.a * rhs.b + self.b * rhs.a,
            m,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadRat:
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        norm = self.a * self.a - self.b * self.b * self.m
        return QuadRat(self.a / norm, -self.b / norm, self.m)

    def __truediv__(self, other: object):
        rhs = QuadRat._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other: object):
        rhs = QuadRat._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, exponent: int) -> QuadRat:
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadRat.from_rational(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """-1, 0 or +1; exact (sqrt(m) is irrational for square-free m > 1)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return (self.b > 0) - (self.b < 0)
        sa = 1 if self.a > 0 else -1
        sb = 1 if self.b > 0 else -1
        if sa == sb:
            return sa
        # a and b*sqrt(m) have opposite signs: compare magnitudes via squares
        return sa if self.a * self.a > self.b * self.b * self.m else sb

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        rhs = QuadRat._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.b == 0 and rhs.b == 0:
            return self.a == rhs.a
        return self.a == rhs.a and self.b == rhs.b and self.m == rhs.m

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.m})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.m})"
        signed_root = f"-{root}" if self.b < 0 else root
        if self.a == 0:
            return signed_root
        joiner = " - " if self.b < 0 else " + "
        return f"{self.a}{joiner}{root}"

    def __repr__(self) -> str:
        return f"QuadRat({self})"


def scalar_sign(value: NumberLike) -> int:
    """Exact sign of an int, Fraction or QuadRat."""
    if isinstance(value, QuadRat):
        return value.sign()
    return (value > 0) - (value < 0)
