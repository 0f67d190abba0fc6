"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial maps monomials to nonzero coefficients, each value in one
representation: an ``int`` when it is integral, else a ``fractions.Fraction``.
Ints because the symbolic pipeline's coefficients are nearly all integral
(the obstruction system is built from 4*Ric, see curvature), and int
arithmetic skips the gcd and method dispatch of every Fraction operation.
A ``Monomial`` is a tuple subclass holding its sorted ``(name, exponent)``
pairs, every exponent positive, so dict lookups hash and compare monomials
in C; the empty tuple is the constant monomial.  Two polynomials are equal
exactly when their term maps are equal: the representation is canonical.
The public constructor coerces every coefficient and drops zeros.  The ring
operations build their results through the internal ``Polynomial._of``,
which wraps a term dict without checking it; each operation keeps the
invariant itself, turning an integral Fraction into its numerator and
dropping a coefficient where it cancels.  A product with an int or
Fraction scales each coefficient; a product with a single-term polynomial
maps distinct monomials to distinct monomials, so it builds its terms
without merging and skips the coefficient product when that term's
coefficient is 1.  Sign normalization keeps the polynomial at content 1
and a positive leading coefficient, divides exactly with ``//`` by an
integer content, and otherwise scales once, by plus or minus one over the
content.

    alpha^2*beta - 3/2  ->  {((alpha,2),(beta,1)): 1, (): Fraction(-3, 2)}

Coefficients stay exact rationals throughout.  The classification results
built on top of this module hinge on exact cancellations (for instance
``2*beta^2 - 2*gamma^2`` vanishing identically when ``beta == gamma``),
which float coefficients would turn into tolerance judgement calls.

Term order is graded lexicographic: compare total degree first, then the
exponent vectors with parameter names sorted ascending (so ``alpha`` is
the most significant variable), as in Cox, Little and O'Shea.  Sort keys
are read off each monomial's sparse exponents.  The order is only used
for canonical printing and for picking the leading coefficient during
sign normalization; no division or Groebner machinery lives here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, Mapping, Union

Rational = Fraction

ScalarLike = Union[int, Fraction]


class MissingParameterError(KeyError):
    """A polynomial was evaluated without a value for some parameter."""

    def __str__(self) -> str:
        return f"missing value for parameter {self.args[0]!r}"


class ZeroPolynomialError(ValueError):
    """Sign normalization was asked of the zero polynomial."""


class PolynomialSyntaxError(ValueError):
    """A polynomial literal could not be parsed."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Monomial(tuple):
    """A product of parameter powers, e.g. alpha^2*beta.

    The monomial is the tuple of its ``(name, exponent)`` pairs, sorted by
    name with no zero exponents, making the representation canonical; the
    tuple's own hashing and equality serve as the monomial's.
    """

    __slots__ = ()

    @property
    def exps(self) -> tuple[tuple[str, int], ...]:
        return self

    @staticmethod
    def from_exponents(exponents: Mapping[str, int]) -> Monomial:
        items = tuple(sorted((n, e) for n, e in exponents.items() if e != 0))
        for name, exp in items:
            if exp < 0:
                raise ValueError(f"negative exponent for {name!r}")
        return Monomial(items)

    def degree(self) -> int:
        return sum(e for _, e in self)

    def variables(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self)

    def __mul__(self, other: Monomial) -> Monomial:
        if not other:
            return self
        if not self:
            return other
        merged = dict(self)
        for name, exp in other:
            merged[name] = merged.get(name, 0) + exp
        return Monomial(sorted(merged.items()))

    def __str__(self) -> str:
        if not self:
            return "1"
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self)


MONOMIAL_ONE = Monomial(())


@lru_cache(maxsize=None)
def _name_key(name: str) -> tuple[int, ...]:
    """Minus the name's code points, then 1, which exceeds them all: keys
    order names in reverse, and a name ranks above its extensions."""
    return (*[-ord(ch) for ch in name], 1)


def _grlex_key(item: tuple[Monomial, ScalarLike]) -> tuple:
    """Graded-lex key of a (monomial, coefficient) item.  Dense exponent
    vectors compare as the sparse exps do once each name is replaced by its
    reverse-order key, so the alphabetically first name is most significant."""
    mono = item[0]
    return sum([e for _, e in mono]), [(_name_key(n), e) for n, e in mono]


def _exact(value: ScalarLike) -> ScalarLike:
    """The canonical coefficient of a value: an int when it is integral."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def _accumulate(out: dict[Monomial, ScalarLike], mono: Monomial, coeff: ScalarLike) -> None:
    """out[mono] += coeff for a nonzero coeff, deleting the term if it cancels."""
    old = out.get(mono)
    total = _exact(coeff if old is None else old + coeff)
    if total:
        out[mono] = total
    else:
        del out[mono]


class Polynomial:
    """Immutable multivariate polynomial with rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, ScalarLike] | None = None):
        cleaned: dict[Monomial, ScalarLike] = {}
        if terms:
            for mono, coeff in terms.items():
                exact = _exact(Fraction(coeff))
                if exact:
                    cleaned[mono] = exact
        object.__setattr__(self, "_terms", cleaned)

    @staticmethod
    def _of(terms: dict[Monomial, ScalarLike]) -> Polynomial:
        """Wrap a term dict that already keeps the invariant, without copying it."""
        poly = object.__new__(Polynomial)
        object.__setattr__(poly, "_terms", terms)
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> Polynomial:
        return Polynomial()

    @staticmethod
    def one() -> Polynomial:
        return Polynomial({MONOMIAL_ONE: 1})

    @staticmethod
    def constant(value: ScalarLike) -> Polynomial:
        return Polynomial({MONOMIAL_ONE: value})

    @staticmethod
    def parameter(name: str) -> Polynomial:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid parameter name {name!r}")
        return Polynomial({Monomial(((name, 1),)): 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[Monomial, ScalarLike]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({n for mono in self._terms for n, _ in mono}))

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self._terms:
            return 0
        return max(m.degree() for m in self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, ScalarLike]]:
        """Terms in descending graded-lexicographic order (leading first)."""
        return sorted(self._terms.items(), key=_grlex_key, reverse=True)

    def leading_term(self) -> tuple[Monomial, ScalarLike]:
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        return max(self._terms.items(), key=_grlex_key)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> Polynomial | None:
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(value)
        return None

    def __add__(self, other: object) -> Polynomial:
        rhs = Polynomial._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            _accumulate(out, mono, coeff)
        return Polynomial._of(out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: object) -> Polynomial:
        rhs = Polynomial._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> Polynomial:
        rhs = Polynomial._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial._of({})
            return Polynomial._of({m: _exact(c * other) for m, c in self._terms.items()})
        rhs = Polynomial._coerce(other)
        if rhs is None:
            return NotImplemented
        single, many = (self, rhs) if len(self._terms) == 1 else (rhs, self)
        if len(single._terms) == 1:  # distinct monomials times one stay distinct
            ((mono, coeff),) = single._terms.items()
            if coeff == 1:
                return Polynomial._of({mono * m: c for m, c in many._terms.items()})
            return Polynomial._of({mono * m: _exact(c * coeff) for m, c in many._terms.items()})
        out: dict[Monomial, ScalarLike] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in rhs._terms.items():
                _accumulate(out, mono_a * mono_b, coeff_a * coeff_b)
        return Polynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = Polynomial.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        rhs = Polynomial._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {MONOMIAL_ONE}:  # a constant hashes as its value
            return hash(self._terms.get(MONOMIAL_ONE, 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, ScalarLike]]:
        return iter(self._terms.items())

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, object]):
        """Substitute a value for every parameter and return the result.

        Values may be any scalars forming a commutative ring with Fraction
        (Fraction, int, QuadRat, float); with Fraction values the result is
        an exact Fraction.  Raises MissingParameterError if some parameter
        of the polynomial has no value.
        """
        total: object = Fraction(0)
        for mono, coeff in self._terms.items():
            term: object = coeff
            for name, exp in mono:
                if name not in assignment:
                    raise MissingParameterError(name)
                value = assignment[name]
                term = term * (value if exp == 1 else value ** exp)
            total = total + term
        return total

    # -- normal form -------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient, gcd 1."""
        if not self._terms:
            raise ZeroPolynomialError("zero polynomial has no content")
        coeffs = self._terms.values()
        return Fraction(gcd(*[c.numerator for c in coeffs]), lcm(*[c.denominator for c in coeffs]))

    def sign_normalized(self) -> Polynomial:
        """Scale by the unique positive rational giving content 1 and a
        positive leading coefficient (graded-lex order).  Idempotent."""
        if not self._terms:
            raise ZeroPolynomialError("cannot sign-normalize 0")
        _, lead = self.leading_term()
        scale = self.content() if lead > 0 else -self.content()
        if scale == 1:
            return self
        if scale.denominator == 1:  # every coefficient an int: exact division
            return Polynomial._of({m: c // scale.numerator for m, c in self._terms.items()})
        return self * (1 / scale)

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    @staticmethod
    def parse(text: str) -> Polynomial:
        """Parse a polynomial literal.

        Grammar: integers, rationals ``a/b``, parameter names, ``^`` with a
        non-negative integer exponent, ``*``, ``+``, binary and unary ``-``,
        and parentheses.  Everything printed by ``__str__`` parses back to
        an equal polynomial.
        """
        parser = _Parser(tokenize(text), text)
        poly = parser.parse_expression()
        parser.expect_end()
        return poly


# -- tokenizer and recursive-descent parser ----------------------------------

Token = tuple[str, str, int]  # (kind, text, position)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def tokenize(text: str) -> list[Token]:
    """Split text into (kind, text, position) tokens; kinds: int, name, op."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise PolynomialSyntaxError(
                f"unexpected character {text[pos:].strip()[0]!r} at column {pos + 1}"
            )
        kind = match.lastgroup or "op"
        tokens.append((kind, match.group(match.lastgroup), match.start(match.lastgroup)))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar."""

    def __init__(self, tokens: list[Token], text: str):
        self.tokens = tokens
        self.text = text
        self.index = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> Token:
        token = self.peek()
        if token is None:
            raise PolynomialSyntaxError(f"unexpected end of input in {self.text!r}")
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.take()
        if token[0] != "op" or token[1] != op:
            raise PolynomialSyntaxError(
                f"expected {op!r} at column {token[2] + 1} in {self.text!r}"
            )

    def expect_end(self) -> None:
        token = self.peek()
        if token is not None:
            raise PolynomialSyntaxError(
                f"trailing input at column {token[2] + 1} in {self.text!r}"
            )

    def parse_expression(self) -> Polynomial:
        token = self.peek()
        negate = False
        if token is not None and token[0] == "op" and token[1] in "+-":
            self.take()
            negate = token[1] == "-"
        poly = self.parse_term()
        if negate:
            poly = -poly
        while True:
            token = self.peek()
            if token is None or token[0] != "op" or token[1] not in "+-":
                return poly
            self.take()
            rhs = self.parse_term()
            poly = poly - rhs if token[1] == "-" else poly + rhs

    def parse_term(self) -> Polynomial:
        poly = self.parse_factor()
        while True:
            token = self.peek()
            if token is None or token[0] != "op" or token[1] != "*":
                return poly
            self.take()
            poly = poly * self.parse_factor()

    def parse_factor(self) -> Polynomial:
        base = self.parse_atom()
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] == "^":
            self.take()
            exp_token = self.take()
            if exp_token[0] != "int":
                raise PolynomialSyntaxError(
                    f"expected integer exponent at column {exp_token[2] + 1}"
                )
            base = base ** int(exp_token[1])
        return base

    def parse_atom(self) -> Polynomial:
        token = self.take()
        kind, text, pos = token
        if kind == "int":
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den = self.take()
                if den[0] != "int":
                    raise PolynomialSyntaxError(
                        f"expected integer denominator at column {den[2] + 1}"
                    )
                if int(den[1]) == 0:
                    raise PolynomialSyntaxError(f"zero denominator at column {den[2] + 1}")
                return Polynomial.constant(Fraction(int(text), int(den[1])))
            return Polynomial.constant(int(text))
        if kind == "name":
            return Polynomial.parameter(text)
        if kind == "op" and text == "(":
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        if kind == "op" and text == "-":
            return -self.parse_factor()
        raise PolynomialSyntaxError(f"unexpected {text!r} at column {pos + 1}")


def parse_rational(text: str) -> Fraction:
    """Parse 'a', '-a', 'a/b' or '-a/b' into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PolynomialSyntaxError(f"invalid rational literal {text!r}") from exc
