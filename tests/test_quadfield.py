"""Quadratic-extension scalars used for the irrational solution families."""

from __future__ import annotations

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nilschouten.quadfield import QuadRat, scalar_sign, squarefree_decompose
from sympy_oracle import sympy_scalar


def test_squarefree_decompose():
    assert squarefree_decompose(12) == (3, 2)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(49) == (1, 7)
    assert squarefree_decompose(0) == (0, 1)


def test_sqrt_exactness():
    root2 = QuadRat.sqrt(2)
    assert root2 * root2 == 2
    assert QuadRat.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QuadRat.sqrt(Fraction(3, 4)) * 2 == QuadRat.sqrt(3)
    assert QuadRat.sqrt(0).is_zero()


def test_field_operations():
    x = QuadRat(Fraction(1), Fraction(2), 3)  # 1 + 2*sqrt(3)
    y = QuadRat(Fraction(-2), Fraction(1), 3)  # -2 + sqrt(3)
    assert x + y == QuadRat(Fraction(-1), Fraction(3), 3)
    assert x * y == QuadRat(Fraction(4), Fraction(-3), 3)  # (1+2r)(-2+r), r^2=3
    assert (x / y) * y == x
    assert x - x == 0
    assert (x ** 3) == x * x * x
    assert x ** 0 == 1
    assert (x ** -2) * (x ** 2) == 1


def test_mixing_radicands_rejected():
    with pytest.raises(ArithmeticError):
        _ = QuadRat.sqrt(2) + QuadRat.sqrt(3)
    # rationals combine with anything
    assert QuadRat.sqrt(2) + Fraction(1, 2) == QuadRat(Fraction(1, 2), Fraction(1), 2)


def test_sign_logic():
    assert QuadRat.sqrt(2).sign() == 1
    assert (-QuadRat.sqrt(2)).sign() == -1
    # 3 - 2*sqrt(2) > 0 since 9 > 8; 2*sqrt(2) - 3 < 0
    assert QuadRat(Fraction(3), Fraction(-2), 2).sign() == 1
    assert QuadRat(Fraction(-3), Fraction(2), 2).sign() == -1
    # 1 - sqrt(2) < 0
    assert QuadRat(Fraction(1), Fraction(-1), 2).sign() == -1
    assert QuadRat.from_rational(0).sign() == 0
    assert scalar_sign(Fraction(-5, 3)) == -1
    assert scalar_sign(QuadRat.sqrt(3)) == 1


def test_interop_with_fractions():
    x = Fraction(1, 2) + QuadRat.sqrt(2)  # radd
    assert x == QuadRat(Fraction(1, 2), Fraction(1), 2)
    assert Fraction(2) * QuadRat.sqrt(2) == QuadRat(0, Fraction(2), 2)
    assert float(QuadRat.sqrt(2)) == pytest.approx(2 ** 0.5)
    # equality against plain rationals collapses correctly
    assert QuadRat(Fraction(5), Fraction(0), 1) == Fraction(5)
    assert hash(QuadRat.from_rational(Fraction(5))) == hash(Fraction(5))


def test_squared_parameter_mode_values():
    # the family values used by the classification: sqrt(2)*q and (sqrt(3)/2)*q
    q = Fraction(3, 2)
    a = QuadRat.sqrt(2) * q
    assert a * a == 2 * q * q
    g = QuadRat.sqrt(3) * q / 2
    assert g * g == Fraction(3, 4) * q * q
    assert g.sign() == 1


def test_radicand_must_be_square_free():
    # 2 - sqrt(4) is 0 and sqrt(8) is 2*sqrt(2): neither may be stored as given
    for a, b, m in ((2, -1, 4), (0, 1, 8), (1, 1, 9), (0, 1, 1)):
        with pytest.raises(ValueError):
            QuadRat(Fraction(a), Fraction(b), m)
    assert QuadRat.sqrt(8) == QuadRat(Fraction(0), Fraction(2), 2)
    assert QuadRat(Fraction(7), Fraction(0), 4) == Fraction(7)  # b == 0 ignores m
    with pytest.raises(ZeroDivisionError):
        QuadRat.from_rational(0).inverse()


# -- field operations against sympy ---------------------------------------------

small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def quadrats(m: int):
    """a + b*sqrt(m), b == 0 included."""
    return st.builds(QuadRat, small_fractions, small_fractions | st.just(Fraction(0)), st.just(m))


def scalars(m: int):
    return quadrats(m) | st.integers(-6, 6) | small_fractions


def _assert_canonical(result, expected: sp.Expr) -> None:
    assert type(result) is QuadRat
    assert type(result.a) is Fraction and type(result.b) is Fraction
    assert (result.m == 1) == (result.b == 0)
    # the stored ints: (p + q*sqrt(m))/r with r > 0 and gcd(p, q, r) == 1
    p, q, r = result._p, result._q, result._r
    assert all(type(x) is int for x in (p, q, r)) and r > 0 and math.gcd(p, q, r) == 1
    assert (result.m == 1) == (q == 0)
    expected_float = float(result.a) + float(result.b) * math.sqrt(result.m)
    assert repr(float(result)) == repr(expected_float)
    rebuilt = QuadRat(result.a, result.b, result.m)
    assert result == rebuilt and hash(result) == hash(rebuilt)
    assert sp.expand(sp.radsimp(expected)) == sp.expand(sympy_scalar(result))
    assert (result == 0) == (not result) and (result != 0) == bool(result)
    assert (result == result.a) == (not result.b)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((2, 3)).flatmap(lambda m: st.tuples(quadrats(m), scalars(m))),
    st.booleans(),
    st.integers(-5, 5),
)
def test_field_op_results_are_canonical(operands, swap, k):
    # field ops build their results without re-validating a, b and m
    q, other = operands
    x, y = (other, q) if swap else (q, other)
    ops = [operator.add, operator.sub, operator.mul]
    if y != 0:
        ops.append(operator.truediv)
    for op in ops:
        _assert_canonical(op(x, y), op(sympy_scalar(x), sympy_scalar(y)))
    _assert_canonical(-q, -sympy_scalar(q))
    if q or k >= 0:
        _assert_canonical(q ** k, sympy_scalar(q) ** k)


@given(quadrats(2), quadrats(3))
def test_mixed_radicands_and_floats_rejected(x, y):
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    if x.b and y.b:
        for op in ops:
            with pytest.raises(ArithmeticError):
                op(x, y)
    else:
        # a rational combines with either radicand
        _assert_canonical(x * y - x, sympy_scalar(x) * sympy_scalar(y) - sympy_scalar(x))
    for op in ops:
        with pytest.raises(TypeError):
            op(x, 1.5)
        with pytest.raises(TypeError):
            op(1.5, x)


@given(st.sampled_from((2, 3)).flatmap(quadrats), st.integers(-3, 3))
def test_copies_and_pickles_are_equal_values(x, k):
    for value in (x, x * x + k, x / 3 if k else x - k):
        clones = [copy.copy(value), copy.deepcopy(value)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clones.append(pickle.loads(pickle.dumps(value, protocol)))
        for clone in clones:
            assert type(clone) is QuadRat
            assert clone == value and hash(clone) == hash(value) and str(clone) == str(value)
        assert copy.deepcopy([value, {"v": value}]) == [value, {"v": value}]
