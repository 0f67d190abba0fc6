"""Exact arithmetic in a real quadratic extension Q(sqrt(m)).

The classification families involve irrational parameter values such as
``alpha = sqrt(2)*gamma`` or ``gamma = (sqrt(3)/2)*alpha``.  To keep the
feasibility oracle exact on those families, sample values may be numbers
of the form ``a + b*sqrt(m)`` with rational a, b and a fixed square-free
radicand m.  This realizes the squared-parameter sample mode: the square
``value**2`` and the sign are both exact, and every field operation stays
inside Q(sqrt(m)).

Only one irrational radicand may appear in a given sample; mixing, say,
sqrt(2) and sqrt(3) raises MixedRadicandError, an ArithmeticError, in
the field operations, and MetricLieAlgebra.check_sample raises it for a
sample that holds both before any arithmetic.  Plain rationals (b == 0,
normalized to m == 1) combine freely with any radicand.

A number is stored as three Python ints and its radicand, (p + q*sqrt(m))/r
with r > 0, gcd(p, q, r) == 1, and m == 1 exactly when q == 0, otherwise
m square-free and above 1.  So each number has one representation: a
rational is p/r in lowest terms, and a value is zero exactly when p and q
are.  Every field operation does its arithmetic on the ints and hands the
result to one normalising builder, the module's ``_of``, which divides out
gcd(p, q, r), makes r positive and sets m = 1 where q cancels; a result
computed from valid operands thus keeps the invariant without its radicand
being checked again.  The public constructor ``QuadRat(a, b, m)`` coerces a
and b to Fractions, checks the radicand and goes through the same builder.
``a`` and ``b`` are read back as the Fractions p/r and q/r.  ``int`` and
``Fraction`` operands are used as they are, never wrapped in a QuadRat
first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Union

NumberLike = Union[int, Fraction, "QuadRat"]

_new = object.__new__


class MixedRadicandError(ArithmeticError):
    """Two numbers with different irrational radicands met."""


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


def _of(p: int, q: int, r: int, m: int) -> QuadRat:
    """The QuadRat (p + q*sqrt(m))/r in lowest terms, for ints p, q and r != 0;
    m must be a valid radicand whenever q is not 0."""
    g = gcd(p, q, r)
    if r < 0:
        g = -g
    if g != 1:
        p //= g
        q //= g
        r //= g
    value = _new(QuadRat)
    value._p = p
    value._q = q
    value._r = r
    value._m = m if q else 1
    return value


def _mixed(x: QuadRat, y: QuadRat) -> MixedRadicandError:
    return MixedRadicandError(f"incompatible radicands sqrt({x._m}) and sqrt({y._m})")


class QuadRat:
    """a + b*sqrt(m) with a, b rational and m square-free (m == 1 iff b == 0),
    stored as (p + q*sqrt(m))/r in lowest terms (see the module docstring)."""

    __slots__ = ("_p", "_q", "_r", "_m")

    def __new__(cls, a: int | Fraction, b: int | Fraction, m: int) -> QuadRat:
        a, b = Fraction(a), Fraction(b)
        if b and (m <= 1 or squarefree_decompose(m)[1] != 1):
            raise ValueError(f"radicand {m} must be square-free and exceed 1")
        return _of(
            a.numerator * b.denominator,
            b.numerator * a.denominator,
            a.denominator * b.denominator,
            m,
        )

    def __reduce__(self):
        return QuadRat, (self.a, self.b, self._m)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._r)

    @property
    def m(self) -> int:
        return self._m

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: int | Fraction) -> QuadRat:
        frac = Fraction(value)
        return _of(frac.numerator, 0, frac.denominator, 1)

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

    # -- field operations --------------------------------------------------

    def __add__(self, other: object):
        if isinstance(other, QuadRat):
            q, oq = self._q, other._q
            if q and oq and self._m != other._m:
                raise _mixed(self, other)
            r, orr = self._r, other._r
            m = self._m if q else other._m
            return _of(self._p * orr + other._p * r, q * orr + oq * r, r * orr, m)
        if isinstance(other, int):
            return _of(self._p + other * self._r, self._q, self._r, self._m)
        if isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
            return _of(self._p * d + n * self._r, self._q * d, self._r * d, self._m)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> QuadRat:
        return _of(-self._p, -self._q, self._r, self._m)

    def __sub__(self, other: object):
        if isinstance(other, QuadRat):
            q, oq = self._q, other._q
            if q and oq and self._m != other._m:
                raise _mixed(self, other)
            r, orr = self._r, other._r
            m = self._m if q else other._m
            return _of(self._p * orr - other._p * r, q * orr - oq * r, r * orr, m)
        if isinstance(other, int):
            return _of(self._p - other * self._r, self._q, self._r, self._m)
        if isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
            return _of(self._p * d - n * self._r, self._q * d, self._r * d, self._m)
        return NotImplemented

    def __rsub__(self, other: object):
        if isinstance(other, int):
            return _of(other * self._r - self._p, -self._q, self._r, self._m)
        if isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
            return _of(n * self._r - self._p * d, -self._q * d, self._r * d, self._m)
        return NotImplemented

    def __mul__(self, other: object):
        if isinstance(other, QuadRat):
            p, q, op, oq = self._p, self._q, other._p, other._q
            if not oq:
                return _of(p * op, q * op, self._r * other._r, self._m)
            if not q:
                return _of(p * op, p * oq, self._r * other._r, other._m)
            m = self._m
            if m != other._m:
                raise _mixed(self, other)
            return _of(p * op + q * oq * m, p * oq + q * op, self._r * other._r, m)
        if isinstance(other, int):
            return _of(self._p * other, self._q * other, self._r, self._m)
        if isinstance(other, Fraction):
            n = other.numerator
            return _of(self._p * n, self._q * n, self._r * other.denominator, self._m)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> QuadRat:
        p, q, r, m = self._p, self._q, self._r, self._m
        if not (p or q):
            raise ZeroDivisionError("division by zero")
        # r/(p + q*sqrt(m)) = r*(p - q*sqrt(m))/(p^2 - q^2*m), nonzero as m is no square
        return _of(r * p, -r * q, p * p - q * q * m, m)

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
        return not (self._p or self._q)

    def sign(self) -> int:
        """-1, 0 or +1; exact (sqrt(m) is irrational for square-free m > 1)."""
        p, q = self._p, self._q  # r > 0 does not change the sign
        if not q:
            return (p > 0) - (p < 0)
        if not p:
            return (q > 0) - (q < 0)
        sp = 1 if p > 0 else -1
        sq = 1 if q > 0 else -1
        if sp == sq:
            return sp
        # p and q*sqrt(m) have opposite signs: compare magnitudes via squares
        return sp if p * p > q * q * self._m else sq

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadRat):
            return (
                self._p == other._p
                and self._q == other._q
                and self._r == other._r
                and self._m == other._m
            )
        if isinstance(other, int):
            return not self._q and self._r == 1 and self._p == other
        if isinstance(other, Fraction):
            return not self._q and self._p == other.numerator and self._r == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        if not self._q:
            return hash(Fraction(self._p, self._r))
        return hash((self.a, self.b, self._m))

    def __float__(self) -> float:
        # int true division rounds correctly, as float(Fraction) does
        return self._p / self._r + self._q / self._r * math.sqrt(self._m)

    def __str__(self) -> str:
        a, b, m = self.a, self.b, self._m
        if b == 0:
            return str(a)
        root = f"sqrt({m})" if abs(b) == 1 else f"{abs(b)}*sqrt({m})"
        signed_root = f"-{root}" if b < 0 else root
        if a == 0:
            return signed_root
        joiner = " - " if b < 0 else " + "
        return f"{a}{joiner}{root}"

    def __repr__(self) -> str:
        return f"QuadRat({self})"


def scalar_sign(value: NumberLike) -> int:
    """Exact sign of an int, Fraction or QuadRat."""
    if isinstance(value, QuadRat):
        return value.sign()
    return (value > 0) - (value < 0)
