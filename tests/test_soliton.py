"""Candidate derivation, obstruction systems, and the feasibility oracle."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy as sp

import reference_data
from nilschouten.catalog import (
    ALGEBRA_IDS,
    GOLDEN_SYSTEM_IDS,
    draw_admissible_sample,
    draw_off_family_sample,
    draw_on_family_sample,
    classification_entry,
    get_algebra,
)
from nilschouten.liealg import (
    ConstraintViolationError,
    identity_matrix,
    InvalidAlgebraError,
    MetricLieAlgebra,
)
from nilschouten.quadfield import MixedRadicandError, QuadRat
from nilschouten.ratpoly import Polynomial
from nilschouten.soliton import (
    NotNilpotentAtSampleError,
    candidate_derivation,
    derivation_residual,
    nilsoliton_check,
    numeric_soliton_oracle,
    obstruction_system,
    schouten_like_check,
    symmetric_derivation_check,
)
from sympy_oracle import (
    at_sample,
    oracle_ring,
    poly_to_ring,
    sympy_candidate_residuals,
    sympy_nilsoliton_constant,
    sympy_ricci_at,
    sympy_scalar,
)

P = Polynomial.parameter
C = Polynomial.constant


def diag(entries) -> list:
    n = len(entries)
    return [
        [C(entries[i]) if i == j else Polynomial.zero() for j in range(n)]
        for i in range(n)
    ]


# -- derivation residual -----------------------------------------------------


def test_residual_zero_on_abelian():
    g = get_algebra("5A1")
    d = [[C(Fraction(i * j + 1, 3)) for j in range(5)] for i in range(5)]
    assert all(
        all(x == 0 for x in vec) for _, vec in derivation_residual(g, d)
    )


def test_grading_derivation_is_derivation():
    g = get_algebra("A3_1+2A1")
    d = diag([1, 1, 0, 0, 2])
    assert all(all(x == 0 for x in vec) for _, vec in derivation_residual(g, d))


def test_identity_is_not_a_derivation():
    g = get_algebra("A3_1+2A1")
    residuals = dict(derivation_residual(g, identity_matrix(5)))
    assert residuals[(1, 2)] == [0, 0, 0, 0, -P("alpha")]
    assert all(
        all(x == 0 for x in vec) for pair, vec in residuals.items() if pair != (1, 2)
    )


# -- candidate derivation -------------------------------------------------------


def test_candidate_derivation_diagonal_single_bracket():
    d = candidate_derivation(get_algebra("A3_1+2A1")).matrix
    expected_diag = [
        "-1/2*((1-lambda0)*alpha^2+2*c)",
        "-1/2*((1-lambda0)*alpha^2+2*c)",
        "-1/2*(-lambda0*alpha^2+2*c)",
        "-1/2*(-lambda0*alpha^2+2*c)",
        "1/2*((1+lambda0)*alpha^2-2*c)",
    ]
    for i in range(5):
        assert d[i][i] == Polynomial.parse(expected_diag[i])
        for j in range(5):
            if i != j:
                assert d[i][j] == 0


def test_candidate_derivation_off_diagonal_block():
    d = candidate_derivation(get_algebra("A5_4")).matrix
    assert d[0][0] == Polynomial.parse(
        "-1/2*((1-lambda0)*alpha^2+(1-lambda0)*beta^2-lambda0*gamma^2+2*c)"
    )
    assert d[0][1] == Polynomial.parse("-1/2*alpha*gamma")
    assert d[1][0] == d[0][1]


def test_candidate_derivation_abelian():
    d = candidate_derivation(get_algebra("5A1")).matrix
    assert d == [
        [-P("c") if i == j else Polynomial.zero() for j in range(5)] for i in range(5)
    ]


def test_candidate_derivation_is_symmetric_everywhere():
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        assert symmetric_derivation_check(g, candidate_derivation(g).matrix)


def test_candidate_residuals_match_independent_cas():
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        R = oracle_ring(g.parameters())
        theirs = sympy_candidate_residuals(g)
        for pair, vec in derivation_residual(g, candidate_derivation(g).matrix):
            assert theirs[pair] == [poly_to_ring(x, R) for x in vec], (algebra_id, pair)


def test_reserved_parameter_names_rejected():
    for name in ("c", "lambda0"):
        g = MetricLieAlgebra.from_brackets(3, {(1, 2): {3: P(name)}})
        with pytest.raises(InvalidAlgebraError):
            candidate_derivation(g)
        with pytest.raises(InvalidAlgebraError):
            obstruction_system(g)


# -- symmetric derivation check ---------------------------------------------------


def test_symmetric_derivation_check_examples():
    g = get_algebra("5A1")
    lopsided = [[Polynomial.zero()] * 5 for _ in range(5)]
    lopsided[0][1] = Polynomial.one()
    assert not symmetric_derivation_check(g, lopsided)
    assert symmetric_derivation_check(g, [[Polynomial.zero()] * 5 for _ in range(5)])
    with pytest.raises(ValueError):
        symmetric_derivation_check(get_algebra("A5_4"), [[0] * 5 + [7]] * 5)


# -- obstruction systems ------------------------------------------------------------


@pytest.mark.parametrize("algebra_id", GOLDEN_SYSTEM_IDS)
def test_obstruction_system_matches_reference(algebra_id):
    system = obstruction_system(get_algebra(algebra_id))
    assert set(system.generators) == reference_data.reference_system(algebra_id)
    assert len(system.generators) == len(reference_data.REFERENCE_SYSTEMS[algebra_id])


def test_obstruction_system_sizes():
    sizes = {aid: len(obstruction_system(get_algebra(aid))) for aid in ALGEBRA_IDS}
    assert sizes["5A1"] == 0
    assert sizes["A3_1+2A1"] == 1
    assert sizes["A5_4"] == 4
    assert sizes["A5_1"] == 4
    assert sizes["A5_2"] == 6
    assert sizes["A5_3"] == 10
    assert sizes["A5_5"] == 11


def test_obstruction_system_invariants():
    for algebra_id in ALGEBRA_IDS:
        system = obstruction_system(get_algebra(algebra_id))
        assert len(set(system.generators)) == len(system.generators)
        for poly in system.generators:
            assert not poly.is_zero()
            assert poly.sign_normalized() == poly
        for (i, j), k in system.provenance:
            assert 1 <= i < j <= 5 and 1 <= k <= 5


def test_a5_6_known_consequences_present():
    generators = set(obstruction_system(get_algebra("A5_6")).generators)
    for text in reference_data.A5_6_KNOWN_CONSEQUENCES:
        assert Polynomial.parse(text).sign_normalized() in generators


def test_obstruction_generators_vanish_at_oracle_witness():
    # at a feasible sample the generators vanish at lambda0 = 0, c = mu
    rng = random.Random(17)
    for algebra_id in ("A5_4", "A5_1", "A3_1+2A1"):
        g = get_algebra(algebra_id)
        system = obstruction_system(g)
        for _ in range(5):
            sample = dict(draw_on_family_sample(algebra_id, rng))
            verdict = numeric_soliton_oracle(g, sample)
            assert verdict.feasible
            extended = dict(sample)
            extended["lambda0"] = Fraction(0)
            extended["c"] = verdict.witness_mu
            for poly in system.generators:
                assert poly.evaluate(extended) == 0


def test_obstruction_generators_obstruct_infeasible_samples():
    # infeasible sample: no real (lambda0, c) zeroes the system; since the
    # generators depend on (lambda0, c) only through mu = lambda0*s + c, it
    # suffices that every pinned candidate mu fails
    rng = random.Random(19)
    g = get_algebra("A5_4")
    system = obstruction_system(g)
    for _ in range(5):
        sample = dict(draw_off_family_sample("A5_4", rng))
        assert not numeric_soliton_oracle(g, sample).feasible
        for mu_num in (0, 1, -1, -2, -3):
            extended = dict(sample)
            extended["lambda0"] = Fraction(0)
            extended["c"] = Fraction(mu_num)
            values = [poly.evaluate(extended) for poly in system.generators]
            assert any(v != 0 for v in values)


# -- numeric oracle -------------------------------------------------------------


def test_oracle_feasibility_examples():
    a54 = get_algebra("A5_4")
    feasible = numeric_soliton_oracle(
        a54, {"alpha": Fraction(0), "beta": Fraction(1), "gamma": Fraction(1)}
    )
    assert feasible.feasible and feasible.witness_mu == -2
    infeasible = numeric_soliton_oracle(
        a54, {"alpha": Fraction(0), "beta": Fraction(1), "gamma": Fraction(2)}
    )
    assert not infeasible.feasible and infeasible.residual_norm > 0.1

    abelian = numeric_soliton_oracle(get_algebra("5A1"), {})
    assert abelian.feasible and abelian.witness_mu == 0
    assert abelian.witness_d == [[Fraction(0)] * 5 for _ in range(5)]
    # a table whose free parameters all vanish at the sample is abelian there
    heisenberg = MetricLieAlgebra.from_brackets(3, {(1, 2): {3: P("a")}})
    vanishing = numeric_soliton_oracle(heisenberg, {"a": Fraction(0)})
    assert vanishing.feasible and vanishing.witness_mu == 0
    assert vanishing.witness_d == [[Fraction(0)] * 3 for _ in range(3)]

    a56 = get_algebra("A5_6")
    sample = {
        "alpha": Fraction(-1),
        "beta": Fraction(0),
        "delta": Fraction(0),
        "gamma": Fraction(1),
        "epsilon": Fraction(1),
        "sigma": Fraction(1),
    }
    assert not numeric_soliton_oracle(a56, sample).feasible


def test_oracle_witness_shape():
    from nilschouten.curvature import ricci_tensor_nilpotent

    g = get_algebra("A5_1")
    sample = {"alpha": Fraction(1), "beta": Fraction(0), "gamma": Fraction(1)}
    verdict = numeric_soliton_oracle(g, sample)
    assert verdict.feasible
    ric = [[p.evaluate(sample) for p in row] for row in ricci_tensor_nilpotent(g)]
    expected = [
        [ric[i][j] - (verdict.witness_mu if i == j else 0) for j in range(5)]
        for i in range(5)
    ]
    assert verdict.witness_d == expected
    assert verdict.residual_norm == 0.0


def test_oracle_modes_agree():
    rng = random.Random(31)
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        entry = classification_entry(algebra_id)
        samples = [draw_admissible_sample(g, rng) for _ in range(4)]
        if entry.verdict == "family":
            samples += [draw_on_family_sample(algebra_id, rng) for _ in range(3)]
            samples += [draw_off_family_sample(algebra_id, rng) for _ in range(3)]
        for sample in samples:
            exact = numeric_soliton_oracle(g, sample, mode="exact")
            floaty = numeric_soliton_oracle(g, sample, mode="float")
            assert exact.status == floaty.status
            if exact.feasible:
                assert floaty.witness_mu == pytest.approx(float(exact.witness_mu))
                assert floaty.residual_norm <= 1e-10


def test_oracle_guards():
    g = get_algebra("A5_4")
    with pytest.raises(Exception):
        numeric_soliton_oracle(g, {"alpha": Fraction(0), "beta": Fraction(-1), "gamma": Fraction(1)})
    solvable = MetricLieAlgebra.from_brackets(2, {(1, 2): {2: 1}})
    with pytest.raises(NotNilpotentAtSampleError):
        numeric_soliton_oracle(solvable, {})


def test_exact_residual_norm_past_float_range_is_inf():
    # the exact verdict stands; its float residual norm keeps every finite
    # digit, and reads inf where the float computation overflows (1e80
    # overflows inside the least-squares mu, 1e120 converting a residual).
    # Float mode computes Ricci and residuals in floats, so it overflows
    # sooner (1e60 in a square, 1e400 rounding the entry table); it reads
    # inf there too, and answers infeasible instead of raising
    # OverflowError or reading nan.
    g = get_algebra("A5_4")
    cases = [  # gamma, exact norm, float norm
        (Fraction(10**60), 1.0000000000000001e120, math.inf),
        (QuadRat.sqrt(2) * 10**60, 2.0000000000000002e120, 1.9999999999999997e120),
        (Fraction(10**80), math.inf, math.inf),
        (Fraction(10**120), math.inf, math.inf),
        (QuadRat.sqrt(2) * 10**120, math.inf, math.inf),
        (Fraction(10**400), math.inf, math.inf),
    ]
    for gamma, exact_norm, float_norm in cases:
        sample = {"alpha": Fraction(1), "beta": Fraction(1), "gamma": gamma}
        for mode, norm in (("exact", exact_norm), ("float", float_norm)):
            verdict = numeric_soliton_oracle(g, sample, mode=mode)
            assert (verdict.status, verdict.residual_norm) == ("infeasible", norm), (gamma, mode)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_mixed_radicand_samples_rejected(mode):
    # rejected where the sample is checked, before any arithmetic: float
    # mode used to round A5_4's sample and answer, and the direct sum of
    # two Heisenberg algebras multiplies no sqrt(2) by a sqrt(3)
    root2, root3 = QuadRat.sqrt(2), QuadRat.sqrt(3)
    a, b = Polynomial.parameter("a"), Polynomial.parameter("b")
    two_heisenbergs = MetricLieAlgebra.from_brackets(6, {(1, 2): {3: a}, (4, 5): {6: b}})
    cases = [
        (get_algebra("A5_4"), {"alpha": Fraction(0), "beta": root2, "gamma": root3}),
        (two_heisenbergs, {"a": root2, "b": 1 + root3}),
    ]
    for g, sample in cases:
        for decide in (
            lambda: numeric_soliton_oracle(g, sample, mode=mode),
            lambda: schouten_like_check(g, sample, Fraction(-3)),
        ):
            with pytest.raises(ArithmeticError, match=r"sqrt\(2\) and sqrt\(3\)") as err:
                decide()
            assert err.type is MixedRadicandError
    # one radicand, with rationals beside it, is decided as before
    assert numeric_soliton_oracle(two_heisenbergs, {"a": root2, "b": -root2}, mode=mode).feasible


def test_nilsoliton_quadratic_family_examples():
    # A5_3 on-family: beta = delta = 0, alpha = 2, gamma = epsilon = sqrt(3)
    a53 = get_algebra("A5_3")
    root3 = QuadRat.sqrt(3)
    sample = {
        "beta": Fraction(0),
        "delta": Fraction(0),
        "alpha": Fraction(2),
        "gamma": root3,
        "epsilon": root3,
    }
    verdict = nilsoliton_check(a53, sample)
    assert verdict.feasible
    assert verdict.witness_mu == -6  # -3*alpha^2/2 at alpha = 2

    a41 = get_algebra("A4_1+A1_case1")
    on = {"gamma": Fraction(0), "alpha": Fraction(1), "beta": Fraction(1)}
    off = {"gamma": Fraction(1), "alpha": Fraction(1), "beta": Fraction(1)}
    assert nilsoliton_check(a41, on).feasible
    assert not nilsoliton_check(a41, off).feasible


def test_quadratic_witness_is_the_nilsoliton_constant():
    # on-family draws in Q(sqrt 2), Q(sqrt 3) and Q(sqrt 6): mu == tr(Ric^2)/scal by sympy
    radicands = set()
    for seed in range(4):
        rng = random.Random(seed)
        for algebra_id in ALGEBRA_IDS:
            if classification_entry(algebra_id).verdict != "family":
                continue
            sample = draw_on_family_sample(algebra_id, rng)
            roots = {v.m for v in sample.values() if isinstance(v, QuadRat) and v.b}
            if not roots:
                continue
            radicands |= roots
            g = get_algebra(algebra_id)
            verdict = numeric_soliton_oracle(g, sample)
            assert verdict.feasible, (seed, algebra_id)
            expected = sympy_nilsoliton_constant(g, sample)
            assert sp.expand(expected - sympy_scalar(verdict.witness_mu)) == 0, (seed, algebra_id)
    assert radicands == {2, 3, 6}


# A5_6 at beta = delta = 0, alpha = -gamma, epsilon = sigma = sqrt(2/3)*gamma
# is a nilsoliton: there A5_6 is the algebra graded by diag(1, 2, 3, 4, 5).
A5_6_SOLITON_POINT = {
    "alpha": Fraction(-3),
    "beta": Fraction(0),
    "gamma": Fraction(3),
    "delta": Fraction(0),
    "epsilon": QuadRat.sqrt(6),
    "sigma": QuadRat.sqrt(6),
}


def test_a5_6_soliton_point_by_sympy_alone():
    g = get_algebra("A5_6")
    mu = sympy_nilsoliton_constant(g, A5_6_SOLITON_POINT)
    assert mu == sp.Rational(-33, 2)
    ric = sympy_ricci_at(g, A5_6_SOLITON_POINT)
    assert ric - mu * sp.eye(5) == sp.Rational(9, 2) * sp.diag(1, 2, 3, 4, 5)
    point = {**A5_6_SOLITON_POINT, "lambda0": 0, "c": mu}
    for pair, residual in sympy_candidate_residuals(g).items():
        assert [at_sample(x, point) for x in residual] == [0] * 5, pair


def test_a5_6_soliton_point_oracle_and_check_agree():
    g = get_algebra("A5_6")
    verdict = numeric_soliton_oracle(g, A5_6_SOLITON_POINT)
    assert verdict.feasible and verdict.witness_mu == Fraction(-33, 2)
    assert schouten_like_check(g, A5_6_SOLITON_POINT, Fraction(-33, 2))
    assert not schouten_like_check(g, A5_6_SOLITON_POINT, Fraction(-31, 2))


def test_a5_6_catalog_verdict_admits_the_soliton_point():
    entry = classification_entry("A5_6")
    assert entry.verdict != "never"
    assert entry.verdict == "always" or all(
        poly.evaluate(A5_6_SOLITON_POINT) == 0 for poly in entry.family_constraints
    )


def test_schouten_like_check_examples():
    a51 = get_algebra("A5_1")
    on = {"alpha": Fraction(1), "beta": Fraction(0), "gamma": Fraction(1)}
    verdict = numeric_soliton_oracle(a51, on)
    assert schouten_like_check(a51, on, verdict.witness_mu)
    off = {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(1)}
    for mu in (Fraction(0), Fraction(-2), Fraction(5, 2)):
        assert not schouten_like_check(a51, off, mu)
    assert schouten_like_check(get_algebra("5A1"), {}, Fraction(0))
    # large scales, where float rounding alone moves residuals past any
    # fixed absolute tolerance
    a3 = get_algebra("A3_1+2A1")
    large = {"alpha": Fraction(8000000, 7)}
    exact_mu = numeric_soliton_oracle(a3, large).witness_mu
    assert schouten_like_check(a3, large, exact_mu)
    a54 = get_algebra("A5_4")
    large = {"alpha": Fraction(0), "beta": Fraction(8000, 3), "gamma": Fraction(8000, 3)}
    exact_mu = numeric_soliton_oracle(a54, large).witness_mu
    assert exact_mu == Fraction(-128000000, 9)
    assert schouten_like_check(a54, large, exact_mu)
    assert not schouten_like_check(a54, large, exact_mu + 1)


def test_float_samples_and_mu_are_read_exactly():
    # a float holds an exact dyadic rational, and that is the value decided
    g = get_algebra("A5_4")
    sample = {"alpha": 0.0, "beta": 0.1, "gamma": 0.1}
    verdict = numeric_soliton_oracle(g, sample)
    exact = numeric_soliton_oracle(g, {name: Fraction(v) for name, v in sample.items()})
    assert verdict.feasible and type(verdict.witness_mu) is Fraction
    assert verdict == exact
    assert schouten_like_check(g, sample, verdict.witness_mu)
    # a dyadic float mu is the rational it holds: -2*beta^2 at beta = 1/2
    half = {"alpha": Fraction(0), "beta": Fraction(1, 2), "gamma": Fraction(1, 2)}
    for mu in (-0.5, -0.25, 0.0, -0.5 + 2.0**-40):
        assert schouten_like_check(g, half, mu) == schouten_like_check(g, half, Fraction(mu))
    assert schouten_like_check(g, half, -0.5)
    assert not schouten_like_check(g, half, -0.5 + 2.0**-40)
    # a non-finite float holds no rational, so no verdict is given; a sample
    # value is rejected by the name of its parameter
    for bad in (math.nan, -math.inf):
        for mode in ("exact", "float"):
            with pytest.raises(ConstraintViolationError, match="alpha"):
                numeric_soliton_oracle(g, {**sample, "alpha": bad}, mode=mode)
        with pytest.raises(ValueError, match="mu"):
            schouten_like_check(g, half, bad)
    for mode in ("exact", "float"):
        with pytest.raises(ConstraintViolationError, match="beta"):
            numeric_soliton_oracle(g, {**sample, "beta": math.inf}, mode=mode)
    with pytest.raises(ConstraintViolationError, match="beta"):
        schouten_like_check(g, {**sample, "beta": math.inf}, -0.5)


def test_stray_sample_name_is_rejected_by_every_entry_point():
    # a misspelt name is an error, never a different point silently decided
    g = get_algebra("A5_4")
    sample = {"alpha": 0, "beta": 1, "gamma": 1, "gama": 5}
    calls = (
        lambda: numeric_soliton_oracle(g, sample),
        lambda: numeric_soliton_oracle(g, sample, mode="float"),
        lambda: schouten_like_check(g, sample, -2),
        lambda: g.nilpotency_step(sample),
        lambda: g.evaluate_entries(sample),
    )
    for call in calls:
        with pytest.raises(ConstraintViolationError, match="undeclared parameters: gama$"):
            call()
    del sample["gama"]
    assert numeric_soliton_oracle(g, sample).feasible


def _table_samples():
    """Catalog samples with zero-valued free parameters, then Q(sqrt 2) and
    Q(sqrt 3) on-family samples."""
    rng = random.Random(41)
    a56 = get_algebra("A5_6")
    yield a56, {**draw_admissible_sample(a56, rng), "beta": Fraction(0), "delta": Fraction(0)}
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        for _ in range(8):
            sample = draw_admissible_sample(g, rng)
            if any(value == 0 for value in sample.values()):
                yield g, sample
    for algebra_id in ("A5_5", "A5_3", "A5_2"):
        for _ in range(3):
            yield get_algebra(algebra_id), draw_on_family_sample(algebra_id, rng)


def test_entry_table_matches_dense_tensor():
    """The oracle's evaluated entry table and its r1 agree with the dense
    tensor, exactly and in float mode (guards the pair -> offset map)."""
    from nilschouten.curvature import ricci_nilpotent_from_tensor
    from nilschouten.liealg import nonzero_entries
    from nilschouten.soliton import _residual_parts

    seen = {"zero": 0, 2: 0, 3: 0}
    for g, sample in _table_samples():
        n = g.dim
        tensor = g.evaluate_structure(sample)
        entries = g.evaluate_entries(sample)
        assert entries == nonzero_entries(tensor), (g.label, sample)
        seen["zero"] += any(value == 0 for value in sample.values())
        for value in sample.values():
            if isinstance(value, QuadRat) and value.m in seen:
                seen[value.m] += 1
        for mode in ("exact", "float"):
            if mode == "float":
                tensor = [[[float(x) for x in row] for row in plane] for plane in tensor]
                entries = [(i, j, k, float(x)) for i, j, k, x in entries]
            _, r1 = _residual_parts(entries, ricci_nilpotent_from_tensor(tensor))
            dense = [tensor[i][j][k] for i in range(n) for j in range(i + 1, n) for k in range(n)]
            assert r1 == dense, (g.label, sample, mode)
    assert all(count >= 3 for count in seen.values()), seen


# -- equivalence and invariance properties ---------------------------------------


def _pinned_candidates(g, sample):
    """All mu pinned by a nonzero bracket coordinate (complete candidate set)."""
    from nilschouten.curvature import ricci_nilpotent_from_entries
    from nilschouten.soliton import _residual_parts

    entries = g.evaluate_entries(sample)
    r0, r1 = _residual_parts(entries, ricci_nilpotent_from_entries(entries, g.dim, Fraction(0)))
    pinned = {-a / b for a, b in zip(r0, r1) if b != 0}
    return pinned or {Fraction(0)}


def test_lemma_equivalence_oracle_vs_definition():
    # feasibility of the operator condition == existence of mu passing the
    # direct tensor-definition check; the pinned candidates are exhaustive
    rng = random.Random(37)
    disagreements = 0
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        entry = classification_entry(algebra_id)
        samples = [draw_admissible_sample(g, rng) for _ in range(4)]
        if entry.verdict == "family":
            samples += [draw_on_family_sample(algebra_id, rng) for _ in range(3)]
            samples += [draw_off_family_sample(algebra_id, rng) for _ in range(3)]
        for sample in samples:
            oracle_says = numeric_soliton_oracle(g, sample).feasible
            definition_says = any(
                schouten_like_check(g, sample, mu) for mu in _pinned_candidates(g, sample)
            )
            if oracle_says != definition_says:
                disagreements += 1
    assert disagreements == 0


def test_lemma_equivalence_dense_per_algebra():
    # >= 100 samples per algebra: generic admissible points plus, for the
    # family verdicts, on- and off-family points in equal measure
    rng = random.Random(101)
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        entry = classification_entry(algebra_id)
        if entry.verdict == "family":
            samples = [draw_admissible_sample(g, rng) for _ in range(40)]
            samples += [draw_on_family_sample(algebra_id, rng) for _ in range(30)]
            samples += [draw_off_family_sample(algebra_id, rng) for _ in range(30)]
        else:
            samples = [draw_admissible_sample(g, rng) for _ in range(100)]
        for sample in samples:
            verdict = numeric_soliton_oracle(g, sample)
            if verdict.feasible:
                assert schouten_like_check(g, sample, verdict.witness_mu), (
                    algebra_id,
                    sample,
                )
            else:
                candidates = _pinned_candidates(g, sample)
                assert not any(
                    schouten_like_check(g, sample, mu) for mu in candidates
                ), (algebra_id, sample)


def test_lambda0_elimination_statuses_identical():
    rng = random.Random(41)
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        for _ in range(5):
            sample = draw_admissible_sample(g, rng)
            assert (
                nilsoliton_check(g, sample).status
                == numeric_soliton_oracle(g, sample).status
            )


def test_feasible_witness_is_symmetric():
    rng = random.Random(43)
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        entry = classification_entry(algebra_id)
        samples = [draw_admissible_sample(g, rng) for _ in range(3)]
        if entry.verdict == "family":
            samples += [draw_on_family_sample(algebra_id, rng) for _ in range(3)]
        for sample in samples:
            verdict = numeric_soliton_oracle(g, sample)
            if verdict.feasible:
                assert symmetric_derivation_check(g, verdict.witness_d)


def test_scaling_invariance_of_status_and_witness():
    rng = random.Random(47)
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        entry = classification_entry(algebra_id)
        samples = [draw_admissible_sample(g, rng) for _ in range(2)]
        if entry.verdict == "family":
            samples += [draw_on_family_sample(algebra_id, rng)]
            samples += [draw_off_family_sample(algebra_id, rng)]
        for sample in samples:
            base = numeric_soliton_oracle(g, sample)
            for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
                scaled_sample = {k: t * v for k, v in sample.items()}
                scaled = numeric_soliton_oracle(g, scaled_sample)
                assert scaled.status == base.status
                if base.feasible:
                    assert scaled.witness_mu == t ** 2 * base.witness_mu


# Float mode's absolute tolerance is not scale-aware (soliton docstring); these
# pin the two reproduced disagreements and flip once the tolerance is fixed.


@pytest.mark.xfail(strict=True, reason="absolute float tolerance passes tiny residuals")
def test_float_status_matches_exact_at_small_scale():
    g = get_algebra("A5_1")
    sample = {"alpha": Fraction(3, 10**4), "beta": Fraction(1, 10**13), "gamma": Fraction(3, 10**4)}
    exact = numeric_soliton_oracle(g, sample, mode="exact")
    assert numeric_soliton_oracle(g, sample, mode="float").status == exact.status


@pytest.mark.xfail(strict=True, reason="absolute float tolerance fails rounding at large scale")
def test_float_status_matches_exact_at_large_scale():
    g = get_algebra("A5_5")
    base = draw_on_family_sample("A5_5", random.Random(1))
    sample = {k: 1000 * v for k, v in base.items()}
    exact = numeric_soliton_oracle(g, sample, mode="exact")
    assert numeric_soliton_oracle(g, sample, mode="float").status == exact.status


@pytest.mark.parametrize("exponent", [200, 300])
def test_infeasible_norm_where_its_squares_underflow(exponent):
    # A5_4 at alpha = beta = 1: the residual's squares fall below the float
    # range, its norm, about sqrt(2)*gamma, does not
    gamma = Fraction(1, 10**exponent)
    verdict = numeric_soliton_oracle(get_algebra("A5_4"), {"alpha": 1, "beta": 1, "gamma": gamma})
    assert verdict.status == "infeasible"
    expected = math.sqrt(2) * float(gamma)
    assert verdict.residual_norm > 0
    assert abs(verdict.residual_norm - expected) <= 4 * math.ulp(expected)


def test_exactly_zero_float_residual_reads_its_norm_without_hypot(monkeypatch):
    # a feasible float verdict whose residual is exactly zero: sqrt(squares)
    # reads 0.0 for the true reason, so the hypot fallback is not run
    calls = []
    hypot = math.hypot
    monkeypatch.setattr(math, "hypot", lambda *xs: calls.append(xs) or hypot(*xs))
    heisenberg = MetricLieAlgebra.from_brackets(5, {(1, 3): {5: P("a")}, (2, 4): {5: P("a")}})
    verdict = numeric_soliton_oracle(heisenberg, {"a": Fraction(3, 2)}, mode="float")
    assert (verdict.status, verdict.residual_norm) == ("feasible", 0.0)
    assert calls == []
    # the fallback still runs where a nonzero residual's squares underflow
    sample = {"alpha": 1, "beta": 1, "gamma": Fraction(1, 10**200)}
    assert numeric_soliton_oracle(get_algebra("A5_4"), sample, mode="float").residual_norm > 0
    assert len(calls) == 1


# A5_4 at alpha = beta = 1 with gamma below the float range: exact mode is
# infeasible.  The float pin flips once float mode reads the exact value; the
# norm pin cannot while residual_norm is a float, because the true norm,
# about 1.4e-400, is itself below the float range.
TINY_GAMMA = {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(1, 10**400)}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the least-squares norm underflows to 0.0")
def test_infeasible_exact_verdict_reports_a_positive_norm():
    verdict = numeric_soliton_oracle(get_algebra("A5_4"), TINY_GAMMA)
    assert verdict.status == "infeasible"
    assert verdict.residual_norm > 0


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="float mode rounds gamma to 0.0 and decides another algebra"
)
def test_float_status_matches_exact_below_float_range():
    g = get_algebra("A5_4")
    exact = numeric_soliton_oracle(g, TINY_GAMMA, mode="exact")
    assert exact.status == "infeasible"
    assert numeric_soliton_oracle(g, TINY_GAMMA, mode="float").status == exact.status
