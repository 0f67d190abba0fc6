"""Structure-constant algebra: brackets, operators, structural checks."""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from nilschouten.catalog import ALGEBRA_IDS, get_algebra
from nilschouten.liealg import (
    ConstraintViolationError,
    DimensionMismatchError,
    InvalidAlgebraError,
    MetricLieAlgebra,
    ParameterConstraint,
    SignViolationError,
    basis_vector,
    mat_transpose,
    mat_column,
    nonzero_entries,
)
from nilschouten.quadfield import MixedRadicandError, QuadRat
from nilschouten.ratpoly import Polynomial

P = Polynomial.parameter


def e(i: int, n: int = 5) -> list:
    return basis_vector(n, i - 1)


@pytest.fixture(scope="module")
def a31():
    return get_algebra("A3_1+2A1")


@pytest.fixture(scope="module")
def a54():
    return get_algebra("A5_4")


@pytest.fixture(scope="module")
def abelian():
    return get_algebra("5A1")


# -- bracket -------------------------------------------------------------------


def test_bracket_table_values(a54, abelian):
    assert a54.bracket(e(1), e(4)) == [0, 0, 0, 0, P("beta")]
    assert abelian.bracket(e(1), e(2)) == [0] * 5


def test_bracket_antisymmetry_on_vectors(a54):
    rng = random.Random(11)
    u = [Polynomial.constant(Fraction(rng.randint(-4, 4))) for _ in range(5)]
    assert a54.bracket(u, u) == [Polynomial.zero()] * 5


def test_bracket_dimension_mismatch(a54):
    with pytest.raises(DimensionMismatchError):
        a54.bracket([Polynomial.one()] * 4, e(2))


# -- ad, ad*, J ------------------------------------------------------------------


def test_ad_matrix_single_entry(a31):
    ad1 = a31.ad_matrix(e(1))
    expected = [[Polynomial.zero()] * 5 for _ in range(5)]
    expected[4][1] = P("alpha")
    assert ad1 == expected


def test_ad_matrix_abelian_and_linearity(abelian, a54):
    assert abelian.ad_matrix(e(3)) == [[0] * 5] * 5
    rng = random.Random(3)
    u = [Polynomial.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(5)]
    w = [Polynomial.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(5)]
    left = a54.ad_matrix([x + y for x, y in zip(u, w)])
    right_u, right_w = a54.ad_matrix(u), a54.ad_matrix(w)
    assert left == [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(right_u, right_w)]


def test_ad_star_is_transpose(a31, a54):
    star = a31.ad_star_matrix(e(1))
    assert star[1][4] == P("alpha")
    assert sum(1 for row in star for x in row if x != 0) == 1
    rng = random.Random(5)
    v = [Polynomial.constant(Fraction(rng.randint(-4, 4))) for _ in range(5)]
    assert a54.ad_star_matrix(v) == mat_transpose(a54.ad_matrix(v))
    # involution
    assert mat_transpose(a54.ad_star_matrix(v)) == a54.ad_matrix(v)


def test_j_operator_column_identity(a31, a54, abelian):
    # J_{v5} v_1 = ad*_{v1} v5 = alpha*v2 for the single-bracket algebra
    j5 = a31.j_operator_matrix(e(5))
    assert mat_column(j5, 0) == [Polynomial.zero(), P("alpha")] + [Polynomial.zero()] * 3
    assert abelian.j_operator_matrix(e(2)) == [[0] * 5] * 5
    rng = random.Random(7)
    u = [Polynomial.constant(Fraction(rng.randint(-4, 4))) for _ in range(5)]
    w = [Polynomial.constant(Fraction(rng.randint(-4, 4))) for _ in range(5)]
    # linearity in u
    left = a54.j_operator_matrix([x + y for x, y in zip(u, w)])
    ju, jw = a54.j_operator_matrix(u), a54.j_operator_matrix(w)
    assert left == [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(ju, jw)]
    # column identity: J_u e_j = ad*_{v_j} u
    j = a54.j_operator_matrix(u)
    for col in range(5):
        star = a54.ad_star_matrix(e(col + 1))
        expected = [
            sum((star[k][l] * u[l] for l in range(5)), Polynomial.zero())
            for k in range(5)
        ]
        assert mat_column(j, col) == expected


# -- construction guards ----------------------------------------------------------


def test_jacobi_violation_reported():
    with pytest.raises(InvalidAlgebraError) as err:
        MetricLieAlgebra.from_brackets(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    ((triple, residual),) = err.value.violations
    assert triple == (1, 2, 3)
    assert residual == [0, 0, Polynomial.constant(-1)]


def test_all_jacobi_violations_reported_together():
    # two independent failing blocks: both triples must appear in one report
    with pytest.raises(InvalidAlgebraError) as err:
        MetricLieAlgebra.from_brackets(
            6,
            {(1, 2): {3: 1}, (1, 3): {1: 1}, (4, 5): {6: 1}, (4, 6): {4: 1}},
        )
    assert [v[0] for v in err.value.violations] == [(1, 2, 3), (4, 5, 6)]


def _unchecked_algebra(tensor: list) -> MetricLieAlgebra:
    """A MetricLieAlgebra over the tensor, built without the construction checks."""
    g = object.__new__(MetricLieAlgebra)
    fields = {"dim": len(tensor), "entries": tuple(nonzero_entries(tensor)),
              "constraints": (), "label": ""}
    for name, value in fields.items():
        object.__setattr__(g, name, value)
    return g


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_jacobi_check_matches_bracket_reference(n):
    rng = random.Random(100 + n)
    values = [Polynomial.zero()] * 4 + [Polynomial.constant(x) for x in (1, -1, 2)]
    values += [P("alpha"), -P("beta"), P("alpha") * 2 + Polynomial.one()]
    for _ in range(5):
        tensor = [[[Polynomial.zero()] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    tensor[i][j][k] = rng.choice(values)
                    tensor[j][i][k] = -tensor[i][j][k]
        g = _unchecked_algebra(tensor)
        expected = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    u, v, w = e(i, n), e(j, n), e(k, n)
                    residual = [
                        x + y + z
                        for x, y, z in zip(
                            g.bracket(g.bracket(u, v), w),
                            g.bracket(g.bracket(v, w), u),
                            g.bracket(g.bracket(w, u), v),
                        )
                    ]
                    if any(residual):
                        expected.append(((i, j, k), residual))
        assert expected, "the random table should violate Jacobi"
        assert g.jacobi_check() == expected


def test_catalog_passes_jacobi_symbolically():
    for algebra_id in ALGEBRA_IDS:
        assert get_algebra(algebra_id).jacobi_check() == []


def test_antisymmetry_enforced():
    one = Polynomial.one()
    bad_tables = [
        ((0, 1, 0, one),),  # c[1][2][1] set without the mirrored entry
        ((0, 1, 0, one), (1, 0, 0, one)),  # mirror not negated
        ((0, 0, 1, one),),  # c[1][1][2] is its own mirror
        ((0, 1, 2, one), (1, 0, 2, -one)),  # index out of range for dim 2
        ((-1, 1, 0, one), (1, -1, 0, -one)),  # negative index
        ((0, 1, 0, Polynomial.zero()), (1, 0, 0, Polynomial.zero())),  # zero entry
        ((0, 1, 0, one), (1, 0, 0, -one), (0, 1, 0, one)),  # duplicate key
        ((0, 1, 0, 1), (1, 0, 0, -1)),  # int entries, not Polynomials
    ]
    for entries in bad_tables:
        with pytest.raises(InvalidAlgebraError):
            MetricLieAlgebra(2, entries)


def test_entry_table_is_stored_sorted_and_dense_view_matches():
    alpha = P("alpha")
    entries = ((1, 0, 2, -alpha), (0, 1, 2, alpha))
    g = MetricLieAlgebra(3, entries)
    assert g.entries == ((0, 1, 2, alpha), (1, 0, 2, -alpha))
    assert g == MetricLieAlgebra.from_brackets(3, {(1, 2): {3: alpha}})
    assert nonzero_entries(g.c) == list(g.entries)
    assert g.c[0][1][2] == alpha and g.c[2][1][0] == Polynomial.zero()


def test_constraints_are_stored_sorted_by_name():
    a, b = P("a"), P("b")
    given = (ParameterConstraint("b", "positive"), ParameterConstraint("a", "positive"))
    g1 = MetricLieAlgebra.from_brackets(3, {(1, 2): {3: a * b}}, given)
    g2 = MetricLieAlgebra(3, g1.entries, given)
    assert g2.constraints == given[::-1] and g1 == g2 and hash(g1) == hash(g2)
    for g in (g1, g2):  # the first constraint by name decides which violation is named
        with pytest.raises(SignViolationError, match="^a = -1 violates 'positive'$"):
            g.check_sample({"a": -1, "b": -1})
    with pytest.raises(InvalidAlgebraError, match="duplicate constraint for parameter 'b'"):
        MetricLieAlgebra(3, g1.entries, given + (ParameterConstraint("b", "free"),))


def test_jacobi_random_vectors(a54):
    rng = random.Random(13)
    for _ in range(10):
        u, v, w = (
            [Polynomial.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(5)]
            for _ in range(3)
        )
        jac = [
            x + y + z
            for x, y, z in zip(
                a54.bracket(u, a54.bracket(v, w)),
                a54.bracket(v, a54.bracket(w, u)),
                a54.bracket(w, a54.bracket(u, v)),
            )
        ]
        assert all(t == 0 for t in jac)


# -- nilpotency -------------------------------------------------------------------


def test_parameters_computed_once_without_changing_equality():
    g, fresh = get_algebra("A5_6"), get_algebra("A5_6")
    assert g.parameters() is g.parameters()
    assert g.parameters() == ("alpha", "beta", "delta", "epsilon", "gamma", "sigma")
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)


def test_nilpotency_steps(a31, abelian):
    assert a31.nilpotency_step({"alpha": Fraction(1)}) == 2
    assert abelian.nilpotency_step({}) == 1
    a52 = get_algebra("A5_2")
    sample = {"alpha": Fraction(1), "beta": Fraction(0), "gamma": Fraction(1), "delta": Fraction(1)}
    assert a52.nilpotency_step(sample) == 4


def test_nilpotency_detects_non_nilpotent():
    # [v1, v2] = v2 is solvable non-nilpotent and passes Jacobi
    g = MetricLieAlgebra.from_brackets(2, {(1, 2): {2: 1}})
    assert g.nilpotency_step({}) is None


def test_nilpotency_constraint_violation(a31):
    with pytest.raises(ConstraintViolationError):
        a31.nilpotency_step({"alpha": Fraction(-1)})
    with pytest.raises(ConstraintViolationError):
        a31.nilpotency_step({})


def test_check_sample_names_a_value_that_is_not_a_number(a54):
    # a free parameter (alpha) and a sign-constrained one (beta) alike
    for name in ("alpha", "beta"):
        for bad in ("1", Decimal(1), None, 1j, math.nan):
            sample = {"alpha": 0, "beta": 1, "gamma": 1, name: bad}
            with pytest.raises(ConstraintViolationError, match=f"^{name} = "):
                a54.check_sample(sample)
            with pytest.raises(ConstraintViolationError, match=f"^{name} = "):
                a54.evaluate_entries(sample)


def test_check_sample_checks_names_values_radicands_then_signs(a54):
    r2, r3 = QuadRat(0, 1, 2), QuadRat(0, 1, 3)
    malformed = ConstraintViolationError
    cases = (
        # a stray or missing name comes first, whatever the values
        ({"alpha": r2, "beta": -1, "gamma": r3, "gama": "x"}, malformed, "parameters: gama$"),
        ({"alpha": r2, "beta": -1}, malformed, "^missing value for parameter 'gamma'$"),
        ({"alpha": r2, "beta": -1, "gamma": None}, malformed, "^gamma = None is not a"),
        ({"alpha": r2, "beta": -1, "gamma": r3}, MixedRadicandError, r"sqrt\(2\) and sqrt\(3\)$"),
        ({"alpha": r2, "beta": -1, "gamma": r2}, SignViolationError, "^beta = -1 violates"),
    )
    for sample, error, message in cases:
        with pytest.raises((malformed, MixedRadicandError), match=message) as raised:
            a54.check_sample(sample)
        assert raised.type is error
    assert a54.sample_names == ("alpha", "beta", "gamma")


def test_catalog_nilpotency_bounded():
    rng = random.Random(2)
    from nilschouten.catalog import draw_admissible_sample

    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        for _ in range(5):
            step = g.nilpotency_step(draw_admissible_sample(g, rng))
            assert step is not None and step <= 4


# -- Killing form and mean curvature ----------------------------------------------


def test_killing_and_mean_curvature_vanish_symbolically():
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        assert all(x == 0 for row in g.killing_form() for x in row)
        assert all(x == 0 for x in g.mean_curvature_vector())


def test_mean_curvature_of_a_non_unimodular_table():
    # [v1, v2] = alpha v2: tr(ad_{v1}) = alpha and tr(ad_{v2}) = 0
    h = MetricLieAlgebra.from_brackets(2, {(1, 2): {2: P("alpha")}}).mean_curvature_vector()
    assert h == [P("alpha"), 0]
    assert all(isinstance(x, Polynomial) for x in h)


def test_killing_symmetry_on_non_nilpotent_input():
    g = MetricLieAlgebra.from_brackets(2, {(1, 2): {2: 1}})
    killing = g.killing_form()
    assert killing == mat_transpose(killing)
    assert killing[0][0] == Polynomial.one()  # tr(ad_1 ad_1) = 1 for this table
