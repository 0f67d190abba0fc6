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

Every stored value keeps one invariant: a and b are Fractions, and m == 1
exactly when b == 0, otherwise m is square-free and exceeds 1.  So each
number has one representation, and a value is zero exactly when a and b
are.  The public constructor coerces a and b to Fractions and checks the
radicand.  The field operations build their results through the internal
``QuadRat._of``, which stores Fractions as given and only sets m = 1 where
b cancels to zero: a result computed from valid operands keeps the
invariant without being checked again.  ``int`` and ``Fraction`` operands
are used as they are, never wrapped in a QuadRat first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

NumberLike = Union[int, Fraction, "QuadRat"]

_ZERO = Fraction(0)


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

    @staticmethod
    def _of(a: Fraction, b: Fraction, m: int) -> QuadRat:
        """Store Fractions a, b as given, with m = 1 where b is zero; m must be
        a valid radicand whenever b is not."""
        value = object.__new__(QuadRat)
        object.__setattr__(value, "a", a)
        object.__setattr__(value, "b", b)
        object.__setattr__(value, "m", m if b else 1)
        return value

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: int | Fraction) -> QuadRat:
        return QuadRat._of(Fraction(value), _ZERO, 1)

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
        if not self.b:
            return other.m
        if not other.b:
            return self.m
        if self.m != other.m:
            raise ArithmeticError(
                f"incompatible radicands sqrt({self.m}) and sqrt({other.m})"
            )
        return self.m

    # -- field operations --------------------------------------------------

    def __add__(self, other: object):
        if isinstance(other, QuadRat):
            m = self._common_radicand(other)
            return QuadRat._of(self.a + other.a, self.b + other.b, m)
        if isinstance(other, (int, Fraction)):
            return QuadRat._of(self.a + other, self.b, self.m)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> QuadRat:
        return QuadRat._of(-self.a, -self.b, self.m)

    def __sub__(self, other: object):
        if isinstance(other, QuadRat):
            m = self._common_radicand(other)
            return QuadRat._of(self.a - other.a, self.b - other.b, m)
        if isinstance(other, (int, Fraction)):
            return QuadRat._of(self.a - other, self.b, self.m)
        return NotImplemented

    def __rsub__(self, other: object):
        if isinstance(other, (int, Fraction)):
            return QuadRat._of(other - self.a, -self.b, self.m)
        return NotImplemented

    def __mul__(self, other: object):
        if isinstance(other, QuadRat):
            if not other.b:
                return QuadRat._of(self.a * other.a, self.b * other.a, self.m)
            if not self.b:
                return QuadRat._of(self.a * other.a, self.a * other.b, other.m)
            m = self._common_radicand(other)
            return QuadRat._of(
                self.a * other.a + self.b * other.b * m,
                self.a * other.b + self.b * other.a,
                m,
            )
        if isinstance(other, (int, Fraction)):
            return QuadRat._of(self.a * other, self.b * other, self.m)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> QuadRat:
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        norm = self.a * self.a - self.b * self.b * self.m
        return QuadRat._of(self.a / norm, -self.b / norm, self.m)

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
            n >>= 1
            if n:
                base = base * base
        return result

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b)

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
        if isinstance(other, QuadRat):
            return self.a == other.a and self.b == other.b and self.m == other.m
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if not self.b:
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
