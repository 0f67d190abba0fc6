"""The pipeline on generated algebras of dimension 3..9 whose answer is known.

Random two-step tables: the basis splits as V1 + V2 with [V1, V1] in V2
and V2 central, so every double bracket vanishes and the Jacobi identity
holds by construction.  Each nonzero bracket coordinate is its own free
parameter times a small integer, so the symbolic Ricci matrix and the
candidate residuals can be compared with the sympy recomputation of
tests/sympy_oracle.py, and the oracle can be run at samples.

The Heisenberg algebras H_{2k+1}, [v_i, v_{k+i}] = a_i v_{2k+1}, have a
closed-form answer (Lauret, Math. Ann. 319, 2001): Ric - mu*Id is a
derivation exactly when all a_i^2 are equal, and then mu = -(k+2)/2 * a^2.

Sample values stay small (|numerator| <= 4, denominator <= 3) because the
float oracle compares against an absolute tolerance that is not
scale-aware; exact statuses do not depend on the scale.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nilschouten.curvature import ricci_tensor_nilpotent
from nilschouten.liealg import MetricLieAlgebra
from nilschouten.ratpoly import Polynomial
from nilschouten.soliton import (
    candidate_derivation,
    derivation_residual,
    numeric_soliton_oracle,
    schouten_like_check,
)
from sympy_oracle import poly_to_sympy, sympy_candidate_residuals, sympy_ricci

P = Polynomial.parameter

small_values = st.builds(
    Fraction,
    st.integers(1, 4) | st.integers(-4, -1),
    st.integers(1, 3),
)


@st.composite
def two_step_tables(draw) -> MetricLieAlgebra:
    n = draw(st.integers(3, 9))
    p = draw(st.integers(2, n - 1))  # V1 = v_1..v_p, V2 = v_{p+1}..v_n
    slots = [
        (i, j, k)
        for i in range(1, p + 1)
        for j in range(i + 1, p + 1)
        for k in range(p + 1, n + 1)
    ]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=6, unique=True))
    brackets: dict = {}
    for m, (i, j, k) in enumerate(sorted(chosen)):
        scale = draw(st.sampled_from((1, -1, 2, -2)))
        brackets.setdefault((i, j), {})[k] = scale * P(f"p{m}")
    return MetricLieAlgebra.from_brackets(n, brackets, label=f"two-step dim {n}")


@st.composite
def tables_with_samples(draw) -> tuple[MetricLieAlgebra, dict]:
    g = draw(two_step_tables())
    return g, {name: draw(small_values) for name in g.parameters()}


def heisenberg(k: int) -> MetricLieAlgebra:
    n = 2 * k + 1
    brackets = {(i, k + i): {n: P(f"a{i}")} for i in range(1, k + 1)}
    return MetricLieAlgebra.from_brackets(n, brackets, label=f"H{n}")


@settings(max_examples=15, deadline=None)
@given(two_step_tables())
def test_symbolic_pipeline_matches_sympy(g):
    ours = ricci_tensor_nilpotent(g)
    theirs = sympy_ricci(g)
    for i in range(g.dim):
        for j in range(g.dim):
            assert sp.expand(theirs[i, j] - poly_to_sympy(ours[i][j])) == 0, (i, j)
    residuals = sympy_candidate_residuals(g)
    for pair, vec in derivation_residual(g, candidate_derivation(g).matrix):
        for k in range(g.dim):
            assert sp.expand(residuals[pair][k] - poly_to_sympy(vec[k])) == 0, (pair, k)


@settings(max_examples=60, deadline=None)
@given(tables_with_samples(), st.sampled_from((Fraction(2), Fraction(-1, 3), Fraction(5, 2))))
def test_oracle_modes_agree_and_scale(table, t):
    g, sample = table
    exact = numeric_soliton_oracle(g, sample)
    assert numeric_soliton_oracle(g, sample, mode="float").status == exact.status
    scaled = numeric_soliton_oracle(g, {name: t * v for name, v in sample.items()})
    assert scaled.status == exact.status
    if exact.feasible:
        assert scaled.witness_mu == t * t * exact.witness_mu
        assert schouten_like_check(g, sample, exact.witness_mu)
        assert not schouten_like_check(g, sample, exact.witness_mu + 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), small_values)
def test_heisenberg_equal_coefficients_are_nilsolitons(k, a):
    g = heisenberg(k)
    sample = {f"a{i}": a for i in range(1, k + 1)}
    verdict = numeric_soliton_oracle(g, sample)
    assert verdict.feasible
    assert verdict.witness_mu == -Fraction(k + 2, 2) * a * a
    assert numeric_soliton_oracle(g, sample, mode="float").feasible


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4).flatmap(lambda k: st.lists(small_values, min_size=k, max_size=k)))
def test_heisenberg_unequal_coefficients_are_not(values):
    if len({v * v for v in values}) == 1:
        values[0] *= 2
    g = heisenberg(len(values))
    sample = {f"a{i}": v for i, v in enumerate(values, start=1)}
    assert numeric_soliton_oracle(g, sample).status == "infeasible"
    assert numeric_soliton_oracle(g, sample, mode="float").status == "infeasible"
