"""Catalog entries, classification table, and verdict replay."""

from __future__ import annotations

import random

import pytest

import reference_data
from nilschouten import catalog
from nilschouten.catalog import (
    ALGEBRA_IDS,
    classification_entry,
    classification_table,
    draw_admissible_sample,
    draw_off_family_sample,
    draw_on_family_sample,
    get_algebra,
    UnknownAlgebraError,
    verify_entry,
)
from nilschouten.quadfield import QuadRat, scalar_sign
from nilschouten.ratpoly import Polynomial
from nilschouten.soliton import numeric_soliton_oracle, schouten_like_check

P = Polynomial.parameter


def test_get_algebra_bracket_tables():
    a54 = get_algebra("A5_4")
    assert a54.nonzero_brackets() == [(1, 3), (1, 4), (2, 3)]
    assert (0, 2, 4, P("alpha")) in a54.entries
    assert (0, 3, 4, P("beta")) in a54.entries
    assert (1, 2, 4, P("gamma")) in a54.entries
    relations = {c.name: c.relation for c in a54.constraints}
    assert relations == {"alpha": "free", "beta": "positive", "gamma": "positive"}

    assert get_algebra("5A1").is_abelian()

    a56 = get_algebra("A5_6")
    relations = {c.name: c.relation for c in a56.constraints}
    assert relations == {
        "alpha": "negative",
        "beta": "free",
        "gamma": "positive",
        "delta": "free",
        "epsilon": "positive",
        "sigma": "positive",
    }


def test_get_algebra_unknown_id():
    message = f"unknown algebra 'A6_1'; valid ids: {', '.join(ALGEBRA_IDS)}"
    with pytest.raises(UnknownAlgebraError) as raised:
        get_algebra("A6_1")
    assert str(raised.value) == message
    with pytest.raises(UnknownAlgebraError) as raised:
        classification_entry("A6_1")
    assert str(raised.value) == message


def test_classification_table_contents():
    table = classification_table()
    assert [entry.algebra_id for entry in table] == list(ALGEBRA_IDS)
    for entry in table:
        assert entry.verdict == reference_data.EXPECTED_VERDICTS[entry.algebra_id]
        if entry.verdict != "family":
            assert entry.family_constraints == ()
        else:
            assert entry.family_constraints

    a55 = classification_entry("A5_5")
    expected = {
        P("beta"),
        P("delta"),
        Polynomial.parse("alpha^2 - 2*gamma^2"),
        Polynomial.parse("epsilon^2 - 2*gamma^2"),
    }
    assert set(a55.family_constraints) == expected
    assert classification_entry("A5_6").verdict == "family"
    assert classification_entry("5A1").verdict == "always"


# The family equations written out by hand from the README's classification
# table, squared where the relation is irrational; the catalog derives its
# equations from each family's parametrization.
STATED_FAMILIES = {
    "A5_4": ("alpha", "beta - gamma"),
    "A4_1+A1_case1": ("gamma", "alpha - beta"),
    "A4_1+A1_case2": ("gamma", "alpha - beta"),
    "A5_6": ("beta", "delta", "alpha + gamma", "3*epsilon^2 - 2*gamma^2", "3*sigma^2 - 2*gamma^2"),
    "A5_5": ("beta", "delta", "alpha^2 - 2*gamma^2", "epsilon^2 - 2*gamma^2"),
    "A5_3": ("beta", "delta", "4*gamma^2 - 3*alpha^2", "4*epsilon^2 - 3*alpha^2"),
    "A5_1": ("beta", "alpha - gamma"),
    "A5_2": ("beta", "4*alpha^2 - 3*gamma^2", "4*delta^2 - 3*gamma^2"),
}


def test_derived_family_constraints_match_stated_equations():
    for entry in classification_table():
        stated = STATED_FAMILIES.get(entry.algebra_id, ())
        expected = tuple(Polynomial.parse(text).sign_normalized() for text in stated)
        assert entry.family_constraints == expected, entry.algebra_id


def test_square_relations_rest_on_positive_parameters():
    # x^2 = t^2*r^2 pins x = t*r only where r and x are positive
    one = QuadRat.from_rational(1)
    for entry in classification_table():
        if entry.verdict != "family":
            continue
        constraints = get_algebra(entry.algebra_id).constraint_map()
        ref, ref_coeff = next((x, a) for x, a in entry.parametrization if a)
        irrational = [x for x, a in entry.parametrization if (one * a / ref_coeff).b]
        assert irrational or entry.algebra_id not in ("A5_5", "A5_3", "A5_2")
        for name in [ref, *irrational]:
            assert constraints[name].relation == "positive", (entry.algebra_id, name)


def test_family_constraints_vanish_on_family_and_fail_off():
    rng = random.Random(53)
    for entry in classification_table():
        if entry.verdict != "family":
            continue
        for _ in range(5):
            on = draw_on_family_sample(entry.algebra_id, rng)
            for poly in entry.family_constraints:
                assert poly.evaluate(on) == 0, (entry.algebra_id, str(poly))
            off = draw_off_family_sample(entry.algebra_id, rng)
            assert any(poly.evaluate(off) != 0 for poly in entry.family_constraints)


def test_samples_are_admissible():
    rng = random.Random(59)
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        entry = classification_entry(algebra_id)
        for _ in range(5):
            g.check_sample(draw_admissible_sample(g, rng))
            if entry.verdict == "family":
                g.check_sample(draw_on_family_sample(algebra_id, rng))
            if entry.verdict != "always":
                g.check_sample(draw_off_family_sample(algebra_id, rng))


def test_off_family_perturbation_has_visible_margin():
    rng = random.Random(61)
    for entry in classification_table():
        if entry.verdict != "family":
            continue
        for _ in range(5):
            off = draw_off_family_sample(entry.algebra_id, rng)
            residuals = [poly.evaluate(off) for poly in entry.family_constraints]
            assert any(
                scalar_sign(r) != 0 for r in residuals
            )


def _stream_draws(seed: int, algebra_id: str) -> tuple:
    """Admissible, on-family and off-family draws of one random.Random(seed),
    None where the verdict has no such draw."""
    verdict = classification_entry(algebra_id).verdict
    rng = random.Random(seed)
    return (
        draw_admissible_sample(get_algebra(algebra_id), rng),
        None if verdict == "never" else draw_on_family_sample(algebra_id, rng),
        None if verdict == "always" else draw_off_family_sample(algebra_id, rng),
    )


def test_sample_stream_is_pinned():
    def fmt(sample):
        return " ".join(f"{k}={v}" for k, v in sorted(sample.items()))

    for seed in range(5):
        for algebra_id in ALGEBRA_IDS:
            drawn = tuple(
                None if sample is None else fmt(sample)
                for sample in _stream_draws(seed, algebra_id)
            )
            assert drawn == reference_data.SAMPLE_STREAM[(seed, algebra_id)], (seed, algebra_id)


def _oracle_record(g, sample) -> tuple:
    """Everything the oracles answer at one sample, as strings and type names."""
    exact = numeric_soliton_oracle(g, sample)
    mu, d = exact.witness_mu, exact.witness_d
    return (
        exact.status,
        str(mu),
        type(mu).__name__,
        None if d is None else tuple(sorted({type(x).__name__ for row in d for x in row})),
        repr(exact.residual_norm),
        None if mu is None else (schouten_like_check(g, sample, mu), schouten_like_check(g, sample, mu + 1)),
        numeric_soliton_oracle(g, sample, mode="float").status,
        None if d is None else tuple(" ; ".join(str(x) for x in row) for row in d),
    )


def test_oracle_outputs_are_pinned():
    for seed in range(5):
        for algebra_id in ALGEBRA_IDS:
            g = get_algebra(algebra_id)
            answered = tuple(
                None if sample is None else _oracle_record(g, sample)
                for sample in _stream_draws(seed, algebra_id)
            )
            assert answered == reference_data.ORACLE_STREAM[(seed, algebra_id)], (seed, algebra_id)


def test_verify_entry_reports():
    report = verify_entry("A5_4", 20, 20, seed=1)
    assert report.passed
    assert report.feasible_checked == 20 and report.infeasible_checked == 20

    report = verify_entry("A5_6", 0, 40, seed=1)
    assert report.passed
    assert report.feasible_checked == 0 and report.infeasible_checked == 40

    report = verify_entry("A3_1+2A1", 40, 0, seed=1)
    assert report.passed
    assert report.feasible_checked == 40 and report.infeasible_checked == 0


def _recording_oracle(monkeypatch) -> list:
    """Patch verify_entry's oracle to record every sample it is given."""
    seen = []
    real = catalog.numeric_soliton_oracle

    def recording(g, sample):
        seen.append(dict(sample))
        return real(g, sample)

    monkeypatch.setattr(catalog, "numeric_soliton_oracle", recording)
    return seen


@pytest.mark.parametrize("seed", range(3))
def test_verify_entry_always_draws_the_admissible_stream(monkeypatch, seed):
    # both counts draw on-family, and an 'always' entry's on-family draw
    # is any admissible sample, from the one seeded stream
    seen = _recording_oracle(monkeypatch)
    report = verify_entry("A3_1+2A1", 3, 5, seed=seed)
    rng = random.Random(seed)
    g = get_algebra("A3_1+2A1")
    assert seen == [draw_admissible_sample(g, rng) for _ in range(8)]
    assert (report.feasible_checked, report.infeasible_checked, report.failures) == (8, 0, ())


@pytest.mark.parametrize("algebra_id", ["A5_6", "A3_1+2A1", "A5_4"])
def test_verify_entry_expects_every_never_draw_infeasible(monkeypatch, algebra_id):
    # a verdict patched to 'never' (A5_6's old, wrong verdict): every draw
    # is an admissible sample expected infeasible, so the failures are
    # exactly the draws the oracle finds feasible (every A3_1+2A1 draw)
    monkeypatch.setitem(
        catalog._ENTRIES, algebra_id, catalog.ClassificationEntry(algebra_id, "never")
    )
    seen = _recording_oracle(monkeypatch)
    report = verify_entry(algebra_id, 4, 6, seed=2)
    rng = random.Random(2)
    g = get_algebra(algebra_id)
    assert seen == [draw_admissible_sample(g, rng) for _ in range(10)]
    feasible = [sample for sample in seen if numeric_soliton_oracle(g, sample).feasible]
    assert report.failures == tuple(
        catalog.SampleFailure(catalog._freeze_sample(sample), "infeasible", "feasible")
        for sample in feasible
    )
    assert report.feasible_checked == len(feasible)
    assert report.infeasible_checked == 10 - len(feasible)
    if algebra_id == "A3_1+2A1":
        assert len(feasible) == 10


def test_verify_entry_deterministic():
    first = verify_entry("A5_5", 6, 6, seed=123)
    second = verify_entry("A5_5", 6, 6, seed=123)
    assert first == second
    third = verify_entry("A5_5", 6, 6, seed=124)
    # different seed draws different samples but must still pass
    assert third.passed


@pytest.mark.parametrize("algebra_id", ALGEBRA_IDS)
def test_every_entry_verifies(algebra_id):
    assert verify_entry(algebra_id, 8, 8, seed=7).passed


def test_verify_entry_float_mode():
    # the float oracle (least squares, 1e-10 residual tolerance) on the draws
    # verify_entry makes reaches the catalog verdicts, including on the
    # irrational families
    def float_oracle(g, sample):
        return numeric_soliton_oracle(g, sample, mode="float")

    for algebra_id in ("A5_4", "A5_5", "A5_2", "A5_6"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(catalog, "numeric_soliton_oracle", float_oracle)
            assert verify_entry(algebra_id, 5, 5, seed=11).passed


def test_readme_walkthrough():
    from fractions import Fraction

    from nilschouten import (
        QuadRat,
        get_algebra,
        numeric_soliton_oracle,
        obstruction_system,
        ricci_operator,
        scalar_curvature,
    )
    from nilschouten.ratpoly import Polynomial

    g = get_algebra("A5_4")
    assert len(ricci_operator(g)) == 5
    assert scalar_curvature(g) == Polynomial.parse(
        "-1/2*alpha^2 - 1/2*beta^2 - 1/2*gamma^2"
    )
    assert len(obstruction_system(g).generators) == 4
    verdict = numeric_soliton_oracle(
        g, {"alpha": Fraction(0), "beta": Fraction(1), "gamma": Fraction(1)}
    )
    assert verdict.status == "feasible"
    assert verdict.witness_mu == Fraction(-2)
    assert QuadRat.sqrt(2) * QuadRat.sqrt(2) == 2
