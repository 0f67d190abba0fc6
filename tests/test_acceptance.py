"""Acceptance gate: every shipped guarantee, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
criterion states its tolerance inline (exact equality unless noted).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import reference_data
from nilschouten.catalog import (
    ALGEBRA_IDS,
    GOLDEN_SYSTEM_IDS,
    classification_entry,
    draw_admissible_sample,
    draw_off_family_sample,
    draw_on_family_sample,
    get_algebra,
)
from nilschouten.cli import (
    generated_ricci_lines,
    generated_system_lines,
    golden_payload_lines,
    run_verify_paper,
    _golden_text,
)
from nilschouten.curvature import (
    ricci_nilpotent_from_entries,
    ricci_operator,
    ricci_tensor_general,
    ricci_tensor_nilpotent,
)
from nilschouten.soliton import (
    _residual_parts,
    nilsoliton_check,
    numeric_soliton_oracle,
    obstruction_system,
    schouten_like_check,
    symmetric_derivation_check,
)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _classification_samples(algebra_id: str, rng: random.Random, count: int):
    """A mix of generic, on-family and off-family samples for one algebra."""
    g = get_algebra(algebra_id)
    entry = classification_entry(algebra_id)
    samples = [draw_admissible_sample(g, rng) for _ in range(count)]
    if entry.verdict == "family":
        samples += [draw_on_family_sample(algebra_id, rng) for _ in range(count // 2)]
        samples += [draw_off_family_sample(algebra_id, rng) for _ in range(count // 2)]
    return samples


def test_criterion_1_ricci_golden_matrices():
    start = time.perf_counter()
    mismatches = []
    for algebra_id in ALGEBRA_IDS:
        got = ricci_operator(get_algebra(algebra_id))
        if got != reference_data.reference_ricci(algebra_id):
            mismatches.append(algebra_id)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "Ricci golden matrices (10 entries, exact equality)",
        not mismatches and elapsed < 1.0,
        f"{10 - len(mismatches)}/10 matched in {elapsed:.3f}s",
    )


def test_criterion_2_obstruction_system_goldens():
    start = time.perf_counter()
    bad = []
    for algebra_id in GOLDEN_SYSTEM_IDS:
        g = get_algebra(algebra_id)
        generated = set(obstruction_system(g).generators)
        if generated != reference_data.reference_system(algebra_id):
            bad.append(f"{algebra_id} (reference)")
        golden = golden_payload_lines(_golden_text("system", algebra_id))
        if generated_system_lines(g) != golden:
            bad.append(f"{algebra_id} (golden file)")
        ricci_golden = golden_payload_lines(_golden_text("ricci", algebra_id))
        if generated_ricci_lines(g) != ricci_golden:
            bad.append(f"{algebra_id} (ricci golden file)")
    elapsed = time.perf_counter() - start
    _report(
        2,
        "obstruction-system golden files (8 systems, exact after sign normalization)",
        not bad and elapsed < 1.0,
        f"{8 - sum(1 for b in bad if 'reference' in b)}/8 matched in {elapsed:.3f}s"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_3_classification_reproduction():
    start = time.perf_counter()
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exit_code = run_verify_paper(seed=7, samples=50, porcelain=True)
    elapsed = time.perf_counter() - start
    lines = buffer.getvalue().splitlines()
    failed = [line for line in lines if line.startswith("fail")]

    # exact-mode on-family witnesses have residual exactly zero
    rng = random.Random(70)
    residual_ok = True
    for algebra_id in ALGEBRA_IDS:
        entry = classification_entry(algebra_id)
        if entry.verdict == "never":
            continue
        g = get_algebra(algebra_id)
        for _ in range(3):
            sample = draw_on_family_sample(algebra_id, rng)
            verdict = numeric_soliton_oracle(g, sample)
            if not verdict.feasible or verdict.residual_norm != 0.0:
                residual_ok = False

    _report(
        3,
        "classification reproduction (verify-paper --seed 7 --samples 50, < 30 s)",
        exit_code == 0 and not failed and residual_ok and elapsed < 30.0,
        f"{sum(1 for l in lines if l.startswith('ok'))}/{len(lines)} assertions in {elapsed:.1f}s",
    )


def test_criterion_4_lemma_equivalence():
    rng = random.Random(71)
    pairs = 0
    disagreements = 0
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        for sample in _classification_samples(algebra_id, rng, 8):
            pairs += 1
            verdict = numeric_soliton_oracle(g, sample)
            if verdict.feasible:
                ok = schouten_like_check(g, sample, verdict.witness_mu)
            else:
                # the derivation condition pins mu from any nonzero bracket
                # coordinate, so checking every pinned candidate is exhaustive
                entries = g.evaluate_entries(sample)
                ric = ricci_nilpotent_from_entries(entries, g.dim, Fraction(0))
                r0, r1 = _residual_parts(entries, ric)
                candidates = {-a / b for a, b in zip(r0, r1) if b != 0} or {Fraction(0)}
                ok = not any(schouten_like_check(g, sample, mu) for mu in candidates)
            if not ok:
                disagreements += 1
    _report(
        4,
        "equivalence of oracle feasibility and the direct tensor-definition check",
        pairs >= 100 and disagreements == 0,
        f"{pairs} (algebra, sample) pairs, {disagreements} disagreements",
    )


def test_criterion_5_lambda0_elimination():
    rng = random.Random(72)
    checked = 0
    disagreements = 0
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        for sample in _classification_samples(algebra_id, rng, 6):
            checked += 1
            if nilsoliton_check(g, sample).status != numeric_soliton_oracle(g, sample).status:
                disagreements += 1
    _report(
        5,
        "nilsoliton check and soliton oracle return identical statuses",
        disagreements == 0,
        f"{checked} inputs, {disagreements} disagreements",
    )


def test_criterion_6_witness_symmetry():
    rng = random.Random(73)
    feasible_seen = 0
    violations = 0
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        for sample in _classification_samples(algebra_id, rng, 6):
            verdict = numeric_soliton_oracle(g, sample)
            if verdict.feasible:
                feasible_seen += 1
                if not symmetric_derivation_check(g, verdict.witness_d):
                    violations += 1
    _report(
        6,
        "every feasible witness D is exactly symmetric",
        feasible_seen > 0 and violations == 0,
        f"{feasible_seen} witnesses, {violations} violations",
    )


def test_criterion_7_scaling_invariance():
    rng = random.Random(74)
    checked = 0
    violations = 0
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        entry = classification_entry(algebra_id)
        samples = [draw_admissible_sample(g, rng) for _ in range(14)]
        if entry.verdict == "family":
            samples += [draw_on_family_sample(algebra_id, rng) for _ in range(3)]
            samples += [draw_off_family_sample(algebra_id, rng) for _ in range(3)]
        else:
            samples += [draw_admissible_sample(g, rng) for _ in range(6)]
        for sample in samples:  # 20 samples per algebra
            base = numeric_soliton_oracle(g, sample)
            for t in (Fraction(1, 2), Fraction(2), Fraction(3)):
                checked += 1
                scaled = numeric_soliton_oracle(g, {k: t * v for k, v in sample.items()})
                if scaled.status != base.status:
                    violations += 1
                elif base.feasible and scaled.witness_mu != t ** 2 * base.witness_mu:
                    violations += 1
    _report(
        7,
        "oracle status invariant under p -> t*p and witness mu scales by t^2 (exact)",
        violations == 0,
        f"{checked} scaled comparisons, {violations} violations",
    )


def test_criterion_8_structural_sanity():
    problems = []
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        if g.jacobi_check():
            problems.append(f"{algebra_id}: jacobi")
        if any(x != 0 for row in g.killing_form() for x in row):
            problems.append(f"{algebra_id}: killing")
        if any(x != 0 for x in g.mean_curvature_vector()):
            problems.append(f"{algebra_id}: mean curvature")
        if ricci_tensor_general(g) != ricci_tensor_nilpotent(g):
            problems.append(f"{algebra_id}: formulas disagree")
    _report(
        8,
        "structural sanity (Jacobi, Killing = 0, H = 0, general = nilpotent Ricci; exact)",
        not problems,
        "all 10 entries" if not problems else str(problems),
    )


# -- criterion 9: independent brute-force mu-grid oracle --------------------------


def _a54_float_structure(sample: dict) -> list:
    c = [[[0.0] * 5 for _ in range(5)] for _ in range(5)]
    table = (
        (0, 2, 4, float(sample["alpha"])),
        (0, 3, 4, float(sample["beta"])),
        (1, 2, 4, float(sample["gamma"])),
    )
    for i, j, k, value in table:
        c[i][j][k] = value
        c[j][i][k] = -value
    return c


def _float_ricci(c: list) -> list:
    n = 5
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            frob = sum(c[i][k][l] * c[j][k][l] for k in range(n) for l in range(n))
            jtr = sum(c[l][k][i] * c[k][l][j] for k in range(n) for l in range(n))
            out[i][j] = -0.5 * frob - 0.25 * jtr
    return out


def _float_residual_norm(c: list, ric: list, mu: float) -> float:
    n = 5
    d = [[ric[i][j] - (mu if i == j else 0.0) for j in range(n)] for i in range(n)]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                value = (
                    sum(d[k][l] * c[i][j][l] for l in range(n))
                    - sum(d[l][i] * c[l][j][k] for l in range(n))
                    - sum(d[l][j] * c[i][l][k] for l in range(n))
                )
                total += value * value
    return math.sqrt(total)


def test_criterion_9_brute_force_grid_confirms_solver():
    # on-family samples chosen so the witness mu = -2*beta^2 lies on the grid
    feasible_samples = [
        {"alpha": Fraction(0), "beta": q, "gamma": q}
        for q in (Fraction(1), Fraction(1, 2), Fraction(3, 10), Fraction(7, 10), Fraction(13, 10))
    ]
    infeasible_samples = [
        {"alpha": Fraction(0), "beta": Fraction(1), "gamma": Fraction(2)},
        {"alpha": Fraction(1), "beta": Fraction(1), "gamma": Fraction(1)},
        {"alpha": Fraction(1, 2), "beta": Fraction(1), "gamma": Fraction(1)},
        {"alpha": Fraction(0), "beta": Fraction(2), "gamma": Fraction(1)},
        {"alpha": Fraction(-1), "beta": Fraction(1), "gamma": Fraction(3)},
    ]
    g = get_algebra("A5_4")
    grid = [k / 100 for k in range(-500, 501)]
    disagreements = []
    for sample in feasible_samples + infeasible_samples:
        solver_feasible = numeric_soliton_oracle(g, sample).feasible
        c = _a54_float_structure(sample)
        ric = _float_ricci(c)
        best = min(_float_residual_norm(c, ric, mu) for mu in grid)
        grid_feasible = best < 1e-8
        if grid_feasible != solver_feasible:
            disagreements.append((sample, best, solver_feasible))
    _report(
        9,
        "brute-force mu grid (step 1/100, residual < 1e-8) confirms the affine solver",
        not disagreements,
        f"10 samples, grid and solver agree on all"
        if not disagreements
        else str(disagreements),
    )
