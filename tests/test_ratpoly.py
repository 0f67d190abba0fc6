"""Exact polynomial arithmetic: examples, ring axioms, normal form."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nilschouten.quadfield import QuadRat
from nilschouten.ratpoly import (
    MissingParameterError,
    Monomial,
    Polynomial,
    PolynomialSyntaxError,
    ZeroPolynomialError,
)

P = Polynomial.parameter
C = Polynomial.constant


# -- example-level behaviour ---------------------------------------------------


def test_add_cancellation():
    alpha, beta = P("alpha"), P("beta")
    assert alpha ** 2 + beta + (-(alpha ** 2)) == beta


def test_add_identity_and_like_terms():
    p = P("alpha") * 2 + P("beta")
    assert p + Polynomial.zero() == p
    assert C(2) * P("alpha") + C(3) * P("alpha") == C(5) * P("alpha")


def test_mul_difference_of_squares():
    alpha, beta = P("alpha"), P("beta")
    assert (alpha + beta) * (alpha - beta) == alpha ** 2 - beta ** 2


def test_mul_identity_and_annihilator():
    p = P("alpha") ** 3 - C(Fraction(7, 2))
    assert p * Polynomial.one() == p
    assert p * Polynomial.zero() == Polynomial.zero()


def test_eval_basic():
    p = P("alpha") ** 2 + P("beta") ** 2
    assert p.evaluate({"alpha": Fraction(1), "beta": Fraction(2)}) == 5
    assert C(Fraction(7, 2)).evaluate({}) == Fraction(7, 2)


def test_eval_missing_parameter():
    p = P("alpha") ** 2 + P("beta") ** 2
    with pytest.raises(MissingParameterError):
        p.evaluate({"alpha": Fraction(1)})


def _same(value, expected) -> bool:
    """Equal, of the same exact type, and for floats of the same sign of zero."""
    if type(value) is not type(expected) or value != expected:
        return False
    return not isinstance(value, float) or math.copysign(1, value) == math.copysign(1, expected)


def test_eval_result_values_and_types():
    alpha, beta = P("alpha"), P("beta")
    root2 = QuadRat.sqrt(2)
    cases = [
        # int values still give a Fraction, through the zero start
        (alpha, {"alpha": 3}, Fraction(3)),
        (alpha * beta, {"alpha": 2, "beta": -5}, Fraction(-10)),
        (alpha ** 3 * 2 + 1, {"alpha": 2}, Fraction(17)),
        (alpha * Fraction(1, 2), {"alpha": Fraction(2, 3)}, Fraction(1, 3)),
        (alpha ** 2 - beta, {"alpha": Fraction(3, 2), "beta": Fraction(1, 4)}, Fraction(2)),
        (alpha, {"alpha": root2}, root2),
        (alpha * 3, {"alpha": root2 + 1}, QuadRat(3, 3, 2)),
        (alpha ** 2, {"alpha": root2}, QuadRat(2, 0, 1)),
        (alpha ** 3 - alpha * beta, {"alpha": root2, "beta": 2}, QuadRat(0, 0, 1)),
        (alpha, {"alpha": 1.5}, 1.5),
        (alpha ** 2 * Fraction(1, 2), {"alpha": 3.0}, 4.5),
        # a term of -0.0 is added to Fraction(0), which gives +0.0
        (alpha, {"alpha": -0.0}, 0.0),
        (-alpha, {"alpha": 0.0}, 0.0),
        (C(Fraction(7, 2)), {"alpha": 1.5}, Fraction(7, 2)),
        (C(1), {}, Fraction(1)),
        (Polynomial.zero(), {"alpha": 1.5}, Fraction(0)),
        (Polynomial.zero(), {}, Fraction(0)),
    ]
    for p, assignment, expected in cases:
        assert _same(p.evaluate(assignment), expected), (str(p), assignment)


def test_sign_normalize_examples():
    alpha, beta, gamma = P("alpha"), P("beta"), P("gamma")
    assert (C(-2) * (alpha ** 2 + beta ** 2)).sign_normalized() == alpha ** 2 + beta ** 2
    assert (alpha ** 2 + beta ** 2).sign_normalized() == alpha ** 2 + beta ** 2
    assert (C(4) * alpha * gamma).sign_normalized() == alpha * gamma


def test_sign_normalize_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        Polynomial.zero().sign_normalized()


def test_sign_normalize_leading_sign_under_grlex():
    # leading monomial of 2*beta^2 - 2*alpha is beta^2 (higher degree)
    p = C(2) * P("beta") ** 2 - C(2) * P("alpha")
    assert p.sign_normalized() == P("beta") ** 2 - P("alpha")
    # flipped input lands on the same normal form
    assert (-p).sign_normalized() == p.sign_normalized()


def test_monomial_canonical_form():
    m = Monomial.from_exponents({"beta": 1, "alpha": 2, "gamma": 0})
    assert m.exps == (("alpha", 2), ("beta", 1))
    assert m.degree() == 3
    with pytest.raises(ValueError):
        Monomial.from_exponents({"alpha": -1})


def test_monomial_public_behaviour():
    m = Monomial((("alpha", 2), ("beta", 1)))
    assert m.exps == (("alpha", 2), ("beta", 1))
    assert m == (("alpha", 2), ("beta", 1))  # a monomial is its exps tuple
    same = Monomial.from_exponents({"beta": 1, "alpha": 2})
    assert same == m and hash(same) == hash(m)
    assert Monomial.from_exponents({}) == Monomial(()) != m
    with pytest.raises(ValueError, match="negative exponent for 'beta'"):
        Monomial.from_exponents({"alpha": 1, "beta": -2})
    assert (str(m), str(Monomial((("c", 1),))), str(Monomial(()))) == ("alpha^2*beta", "c", "1")
    assert m.variables() == ("alpha", "beta")
    assert m * Monomial((("beta", 2), ("c", 1))) == Monomial((("alpha", 2), ("beta", 3), ("c", 1)))
    p = Polynomial({m: 3, Monomial(()): Fraction(-1, 2)})
    assert p == Polynomial.parse("3*alpha^2*beta - 1/2")
    assert p.terms()[same] == 3 and str(p) == "3*alpha^2*beta - 1/2"


def test_str_and_parse_round_trip_examples():
    texts = [
        "0",
        "7/2",
        "-alpha",
        "alpha^2*beta - 3*c + 1/2",
        "-1/2*alpha^2 - 1/2*beta^2",
        "lambda0*alpha^3 - 2*alpha*c",
    ]
    for text in texts:
        p = Polynomial.parse(text)
        assert Polynomial.parse(str(p)) == p


def test_parse_rejects_garbage():
    for bad in ["alpha +", "(alpha", "alpha^-2", "alpha^beta", "3//2", "alpha/2"]:
        with pytest.raises(PolynomialSyntaxError):
            Polynomial.parse(bad)


# -- property tests -------------------------------------------------------------

_NAMES = ("alpha", "beta", "gamma")


@st.composite
def rationals(draw) -> Fraction:
    num = draw(st.integers(min_value=-30, max_value=30))
    den = draw(st.integers(min_value=1, max_value=12))
    return Fraction(num, den)


@st.composite
def polynomials(draw, names=_NAMES) -> Polynomial:
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = {
            name: draw(st.integers(min_value=0, max_value=3)) for name in names
        }
        mono = Monomial.from_exponents(exps)
        terms[mono] = terms.get(mono, Fraction(0)) + draw(rationals())
    return Polynomial(terms)


@st.composite
def assignments(draw) -> dict[str, Fraction]:
    return {name: draw(rationals()) for name in _NAMES}


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polynomials(), polynomials(), assignments())
def test_evaluation_is_ring_homomorphism(p, q, sigma):
    assert (p * q).evaluate(sigma) == p.evaluate(sigma) * q.evaluate(sigma)
    assert (p + q).evaluate(sigma) == p.evaluate(sigma) + q.evaluate(sigma)


@given(polynomials(), rationals())
def test_sign_normalize_scale_invariance(p, k):
    if p.is_zero() or k == 0:
        return
    assert (p * k).sign_normalized() == p.sign_normalized()


@given(polynomials())
def test_sign_normalize_idempotent_and_content(p):
    if p.is_zero():
        return
    normalized = p.sign_normalized()
    assert normalized.sign_normalized() == normalized
    assert normalized.content() == 1
    assert all(coeff.denominator == 1 for _, coeff in normalized.terms().items())
    assert normalized.leading_term()[1] > 0


@given(polynomials())
@settings(max_examples=60)
def test_print_parse_round_trip(p):
    assert Polynomial.parse(str(p)) == p


def test_constant_polynomials_hash_like_their_value():
    assert len({Polynomial.zero(), 0}) == 1
    assert len({Polynomial.constant(Fraction(3, 2)), Fraction(3, 2)}) == 1
    assert hash(Polynomial.one()) == hash(1)
    x = Polynomial.parameter("x")
    assert hash(x - x) == hash(0) and hash(x * 2) == hash(2 * x)


def _assert_canonical(p: Polynomial) -> None:
    # one representation per value: an int when integral, else a Fraction
    for mono, coeff in p:
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
        assert coeff != 0
        assert mono == Monomial.from_exponents(dict(mono.exps))
    rebuilt = Polynomial(p.terms())
    assert p == rebuilt and hash(p) == hash(rebuilt)


@given(polynomials(), polynomials(), polynomials(), st.integers(min_value=0, max_value=3))
def test_ring_op_results_are_canonical(p, q, r, k):
    # ring ops build their results without re-validating the coefficients
    assert not (p - p).terms()
    results = [p + q, p - q, p * q, -p, p ** k, (p + q) * r - p * r - q * r]
    if p:
        results.append(p.sign_normalized())
    for result in results:
        _assert_canonical(result)


# names that share prefixes or hold a digit or an underscore, whose ranks in
# variables() interleave
_ORDER_NAMES = ("a", "a1", "a_b", "aa", "alpha", "b", "c", "lambda0")
scalars = st.sampled_from((0, Fraction(0))) | st.integers(-5, 5) | rationals()


@given(polynomials(), scalars)
def test_scalar_products_match_constant_polynomial(p, k):
    for product in (p * k, k * p):
        assert product == p * C(k)
        _assert_canonical(product)


@given(polynomials(_ORDER_NAMES))
def test_leading_term_is_first_sorted_term(p):
    if p:
        assert p.leading_term() == p.sorted_terms()[0]


@given(polynomials(_ORDER_NAMES))
def test_sorted_terms_follow_dense_grlex(p):
    names = p.variables()

    def dense_key(mono: Monomial) -> tuple:
        exps = dict(mono.exps)
        vector = tuple(exps.get(name, 0) for name in names)
        return (sum(vector), vector)

    ordered = p.sorted_terms()
    assert dict(ordered) == p.terms()
    keys = [dense_key(mono) for mono, _ in ordered]
    assert keys == sorted(set(keys), reverse=True)


# -- differential check against sympy's graded-lex polynomials ------------------

_SYMPY_GENS = sp.symbols(_ORDER_NAMES)  # ascending, so the first is most significant


@st.composite
def sparse_polynomials(draw) -> Polynomial:
    """Polynomials over _ORDER_NAMES, single-term as often as not, with
    coefficients of +-1 as often as other rationals."""
    n_terms = draw(st.just(1) | st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        names = draw(st.lists(st.sampled_from(_ORDER_NAMES), max_size=3, unique=True))
        exps = {name: draw(st.integers(min_value=1, max_value=3)) for name in names}
        mono = Monomial.from_exponents(exps)
        coeff = draw(st.sampled_from((Fraction(1), Fraction(-1))) | rationals())
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(terms)


def _dense(mono: Monomial) -> tuple[int, ...]:
    exps = dict(mono.exps)
    return tuple(exps.get(name, 0) for name in _ORDER_NAMES)


def _to_sympy(p: Polynomial) -> sp.Poly:
    terms = {_dense(mono): sp.Rational(c.numerator, c.denominator) for mono, c in p}
    return sp.Poly.from_dict(terms, *_SYMPY_GENS, domain=sp.QQ)


def _sympy_sign_normalized(f: sp.Poly) -> sp.Poly:
    _, f = f.clear_denoms(convert=True)
    _, f = f.primitive()
    f = f if f.LC(order="grlex") > 0 else -f
    return f.set_domain(sp.QQ)


@given(sparse_polynomials(), sparse_polynomials())
def test_products_sums_and_grlex_order_match_sympy(p, q):
    f, g = _to_sympy(p), _to_sympy(q)
    assert _to_sympy(p * q) == f * g
    assert _to_sympy(p + q) == f + g
    assert _to_sympy(p - q) == f - g
    for r, h in ((p, f), (q, g), (p * q, f * g)):
        if not r:
            continue
        ordered = [(_dense(mono), c) for mono, c in r.sorted_terms()]
        assert ordered == h.terms(order="grlex")
        assert _to_sympy(r.sign_normalized()) == _sympy_sign_normalized(h)


@st.composite
def primitive_integer_polynomials(draw) -> Polynomial:
    """Nonzero polynomials over _ORDER_NAMES with int coefficients and
    content 1: the first coefficient is +-1."""
    terms = {}
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        names = draw(st.lists(st.sampled_from(_ORDER_NAMES), max_size=3, unique=True))
        mono = Monomial.from_exponents({name: draw(st.integers(1, 3)) for name in names})
        if mono not in terms:
            units = st.sampled_from((1, -1))
            terms[mono] = draw(units if index == 0 else units | st.integers(-30, 30).filter(bool))
    return Polynomial(terms)


# content 1 (the result is +-p), an int content > 1 (exact //) and a
# Fraction content (a scalar product)
contents = (
    st.sampled_from((1, -1))
    | st.integers(2, 60).flatmap(lambda k: st.sampled_from((k, -k)))
    | rationals().filter(lambda q: q.denominator > 1)
)


@given(primitive_integer_polynomials(), contents)
def test_sign_normalized_branches_match_sympy(p, k):
    scaled = p * k
    assert scaled.content() == abs(k)
    normalized = scaled.sign_normalized()
    _assert_canonical(normalized)
    assert all(type(coeff) is int for _, coeff in normalized)
    assert _to_sympy(normalized) == _sympy_sign_normalized(_to_sympy(scaled))
