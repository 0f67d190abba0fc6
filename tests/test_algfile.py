"""Algebra definition file format: parsing, rendering, round trips."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilschouten.algfile import (
    AlgebraFile,
    AlgebraSyntaxError,
    DuplicateBracketError,
    parse_algebra_file,
    render_algebra_file,
)
from nilschouten.catalog import ALGEBRA_IDS, get_algebra
from nilschouten.liealg import (
    RELATIONS,
    InvalidAlgebraError,
    MetricLieAlgebra,
    ParameterConstraint,
)
from nilschouten.quadfield import QuadRat
from nilschouten.ratpoly import Polynomial


A31_TEXT = """\
# single-bracket five-dimensional table
dim 5
param alpha positive
bracket 1 2 : alpha*e5
"""


def test_parse_matches_catalog_entry():
    parsed = parse_algebra_file(A31_TEXT)
    catalog = get_algebra("A3_1+2A1")
    assert parsed.algebra.dim == 5
    assert parsed.algebra.c == catalog.c
    assert parsed.algebra.constraints == catalog.constraints
    assert parsed.sample is None


def test_parse_abelian():
    parsed = parse_algebra_file("dim 5\n")
    assert parsed.algebra.is_abelian()


def test_parse_multi_term_brackets_and_samples():
    text = """\
dim 5
param alpha positive
param beta positive
param gamma free
bracket 1 2 : alpha*e3 + gamma*e5   # two targets
bracket 1 3 : beta*e5
sample alpha = 2
sample beta = 3/2
sample gamma = -1/2
"""
    parsed = parse_algebra_file(text)
    assert parsed.algebra.c == get_algebra("A4_1+A1_case1").c
    assert parsed.sample == {
        "alpha": Fraction(2),
        "beta": Fraction(3, 2),
        "gamma": Fraction(-1, 2),
    }


def test_parse_reads_coefficients_off_the_expanded_body():
    text = "dim 4\nbracket 1 2 : e3*2 - (t - 1)*e4 + t*e3 - e3\n"
    g = parse_algebra_file(text).algebra
    assert g.c[0][1][2] == Polynomial.parse("t + 1")
    assert g.c[0][1][3] == Polynomial.parse("1 - t")
    with pytest.raises(AlgebraSyntaxError) as err:
        parse_algebra_file("dim 4\nbracket 1 2 : t*e3 - t*e3\n")
    assert "no terms" in str(err.value)


def test_parse_polynomial_coefficients_and_signs():
    text = """\
dim 4
param t free
bracket 1 2 : (t^2 - 1/2)*e3 - 2*e4
"""
    parsed = parse_algebra_file(text)
    g = parsed.algebra
    assert g.c[0][1][2] == Polynomial.parse("t^2 - 1/2")
    assert g.c[0][1][3] == Polynomial.parse("-2")


def test_bad_pair_ordering_rejected():
    with pytest.raises(AlgebraSyntaxError) as err:
        parse_algebra_file("dim 5\nbracket 1 1 : e2\n")
    assert err.value.line == 2


def test_duplicate_bracket_rejected():
    text = "dim 3\nbracket 1 2 : e3\nbracket 1 2 : 2*e3\n"
    with pytest.raises(DuplicateBracketError) as err:
        parse_algebra_file(text)
    assert err.value.line == 3


def test_syntax_errors_carry_line_numbers():
    cases = [
        ("dim 5\nbracket 1 2\n", 2),          # missing colon
        ("dim 5\nparam alpha sometimes\n", 2),  # bad relation
        ("dim 0\n", 1),                        # bad dimension
        ("dim 5\nbracket 1 2 : alpha*e9\n", 2),  # basis index out of range
        ("dim 5\nbracket 1 2 : alpha\n", 2),   # no basis symbol
        ("dim 5\nparam alpha free\nbracket 1 2 : alphae5\n", 3),  # missing '*'
        ("dim 5\nfrobnicate 3\n", 2),          # unknown directive
        ("dim 5\nsample alpha = x\n", 2),      # non-rational sample
        ("dim 5\nsample alpha = 2*sqrt(x)\n", 2),  # bad radicand
        ("dim 5\nparam e2 free\n", 2),         # parameter shadows basis symbol
        ("dim 5\nparam 9x free\n", 2),         # not a polynomial name
        ("dim 5\nbracket 1 2 : e2*e3\n", 2),  # two basis symbols in a term
        ("dim 5\nparam alpha free\nbracket 1 2 : alpha*e3*e3\n", 3),  # e3 squared
        ("dim 5\nbracket 1 2 : e3^2\n", 2),   # basis symbol to a power
        ("dim 5\nbracket 1 2 : (e3\n", 2),    # unbalanced parenthesis
        ("dim 5\nbracket 1 2 :\n", 2),        # empty body
    ]
    for text, line in cases:
        with pytest.raises(AlgebraSyntaxError) as err:
            parse_algebra_file(text)
        assert err.value.line == line, text


def test_missing_dim_rejected():
    with pytest.raises(AlgebraSyntaxError):
        parse_algebra_file("param alpha free\n")


def test_jacobi_violations_surface_from_parser():
    text = "dim 3\nbracket 1 2 : e3\nbracket 1 3 : e1\n"
    with pytest.raises(InvalidAlgebraError) as err:
        parse_algebra_file(text)
    assert [v[0] for v in err.value.violations] == [(1, 2, 3)]


def test_round_trip_identity():
    for text in [
        A31_TEXT,
        "dim 5\n",
        "dim 5\nparam alpha positive\nparam beta free\n"
        "bracket 1 2 : alpha*e3 + beta*e4\nbracket 1 3 : (alpha+beta)*e5\n"
        "sample alpha = 1\nsample beta = -2/3\n",
    ]:
        parsed = parse_algebra_file(text)
        rendered = render_algebra_file(parsed)
        assert parse_algebra_file(rendered) == parsed
        # canonical form is a fixed point
        assert render_algebra_file(parse_algebra_file(rendered)) == rendered


def test_round_trip_all_builtins():
    for algebra_id in ALGEBRA_IDS:
        source = AlgebraFile(get_algebra(algebra_id), None)
        rendered = render_algebra_file(source)
        parsed = parse_algebra_file(rendered, label=algebra_id)
        assert parsed.algebra.c == source.algebra.c
        assert parsed.algebra.constraints == source.algebra.constraints


def test_duplicate_sample_rejected():
    text = "dim 3\nparam alpha free\nbracket 1 2 : alpha*e3\nsample alpha = 3\nsample alpha = -1\n"
    with pytest.raises(AlgebraSyntaxError) as err:
        parse_algebra_file(text)
    assert err.value.line == 5
    assert "alpha" in str(err.value)


_NAMES = ("alpha", "beta", "gamma")
_MONOMIALS = (
    Polynomial.one(),
    Polynomial.parameter("alpha"),
    Polynomial.parameter("beta") ** 2,
    Polynomial.parameter("alpha") * Polynomial.parameter("gamma"),
)
_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_quadratics = st.builds(QuadRat, _rationals, _rationals, st.sampled_from((2, 3)))
_coefficients = st.lists(
    st.tuples(_rationals, st.sampled_from(_MONOMIALS)), min_size=1, max_size=3
).map(lambda terms: sum((c * m for c, m in terms), Polynomial.zero()))


@st.composite
def algebra_files(draw) -> AlgebraFile:
    """Two-step tables ([V1, V1] in V2, V2 central, so Jacobi holds) with
    multi-term rational coefficients, sign constraints and samples."""
    n = draw(st.integers(3, 7))
    p = draw(st.integers(2, n - 1))
    brackets: dict = {}
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            targets = draw(st.lists(st.integers(p + 1, n), max_size=2, unique=True))
            if targets:
                brackets[(i, j)] = {k: draw(_coefficients) for k in targets}
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True))
    constraints = [ParameterConstraint(x, draw(st.sampled_from(RELATIONS))) for x in names]
    g = MetricLieAlgebra.from_brackets(n, brackets, constraints)
    values = _rationals | _quadratics
    sample = draw(st.none() | st.dictionaries(st.sampled_from(_NAMES), values, min_size=1))
    return AlgebraFile(g, sample)


@settings(max_examples=60, deadline=None)
@given(algebra_files())
def test_round_trip_generated_tables(parsed):
    rendered = render_algebra_file(parsed)
    assert parse_algebra_file(rendered) == parsed, rendered
