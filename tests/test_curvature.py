"""Ricci tensor/operator/scalar: reference matrices and invariances."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import reference_data
from nilschouten.catalog import ALGEBRA_IDS, draw_admissible_sample, get_algebra
from nilschouten.curvature import (
    ricci_operator,
    ricci_tensor_general,
    ricci_tensor_nilpotent,
    scalar_curvature,
)
from nilschouten.liealg import mat_transpose, mat_trace
from nilschouten.ratpoly import Polynomial
from sympy_oracle import oracle_ring, poly_to_ring, sympy_ricci


@pytest.mark.parametrize("algebra_id", ALGEBRA_IDS)
def test_ricci_matches_reference(algebra_id):
    got = ricci_operator(get_algebra(algebra_id))
    expected = reference_data.reference_ricci(algebra_id)
    assert got == expected


@pytest.mark.parametrize("algebra_id", ALGEBRA_IDS)
def test_ricci_matches_independent_cas(algebra_id):
    g = get_algebra(algebra_id)
    R = oracle_ring(g.parameters())
    ours = [[poly_to_ring(x, R) for x in row] for row in ricci_tensor_nilpotent(g)]
    assert sympy_ricci(g) == ours


def test_specific_entries():
    a31 = get_algebra("A3_1+2A1")
    alpha = Polynomial.parameter("alpha")
    half = Fraction(-1, 2)
    diag = [half * alpha ** 2, half * alpha ** 2, Polynomial.zero(), Polynomial.zero(),
            -half * alpha ** 2]
    ric = ricci_tensor_nilpotent(a31)
    assert [ric[i][i] for i in range(5)] == diag
    assert all(ric[i][j] == 0 for i in range(5) for j in range(5) if i != j)


def test_general_equals_nilpotent_on_catalog():
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        assert ricci_tensor_general(g) == ricci_tensor_nilpotent(g)


def test_general_formula_differs_off_catalog():
    # solvable non-nilpotent table [v1, v2] = v2: B and H do not vanish
    from nilschouten.liealg import MetricLieAlgebra

    g = MetricLieAlgebra.from_brackets(2, {(1, 2): {2: 1}})
    assert ricci_tensor_general(g) != ricci_tensor_nilpotent(g)


def test_symmetry():
    for algebra_id in ALGEBRA_IDS:
        ric = ricci_tensor_nilpotent(get_algebra(algebra_id))
        assert ric == mat_transpose(ric)


def test_scalar_curvature_examples():
    assert scalar_curvature(get_algebra("A3_1+2A1")) == Polynomial.parse("-1/2*alpha^2")
    assert scalar_curvature(get_algebra("A5_4")) == Polynomial.parse(
        "-1/2*(alpha^2+beta^2+gamma^2)"
    )
    assert scalar_curvature(get_algebra("5A1")) == Polynomial.zero()


def test_scalar_curvature_negative_at_admissible_samples():
    rng = random.Random(23)
    for algebra_id in ALGEBRA_IDS:
        if algebra_id == "5A1":
            continue
        g = get_algebra(algebra_id)
        scalar = scalar_curvature(g)
        for _ in range(10):
            sample = draw_admissible_sample(g, rng)
            # some bracket is nonzero at every admissible sample of these tables
            assert scalar.evaluate(sample) < 0


def test_scaling_covariance_at_samples():
    # p -> t*p multiplies the evaluated Ricci matrix by t^2
    rng = random.Random(29)
    for algebra_id in ("A5_4", "A5_6", "A5_2"):
        g = get_algebra(algebra_id)
        ric = ricci_tensor_nilpotent(g)
        for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
            sample = draw_admissible_sample(g, rng)
            scaled = {k: t * v for k, v in sample.items()}
            for i in range(5):
                for j in range(5):
                    assert ric[i][j].evaluate(scaled) == t ** 2 * ric[i][j].evaluate(sample)


def test_ricci_operator_invariants():
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        ric = ricci_tensor_nilpotent(g)
        assert ric == ricci_operator(g)
        assert scalar_curvature(g) == mat_trace(ricci_operator(g))
        assert ric == mat_transpose(ric)
