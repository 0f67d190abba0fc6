"""Seeded inputs, operations and answer checks of the three workloads.

A workload's inputs are a list of rounds.  Each round holds one case of
every stratum, so any whole number of rounds has the same mix however fast
the code under test is.  Operations reach the
package only through its public functions and wrap each call in a span of
the tracer they are given; untraced runs pass a tracer whose spans do
nothing.  Expected answers come from sources that share no code with the
operation they check: the classification table, closed forms, the golden
files and identities computed from the benchmark's own bracket tables.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from nilschouten import (
    MetricLieAlgebra,
    ParameterConstraint,
    Polynomial,
    QuadRat,
    candidate_derivation,
    classification_table,
    derivation_residual,
    get_algebra,
    numeric_soliton_oracle,
    obstruction_system,
    parse_algebra_file,
    ricci_operator,
    scalar_curvature,
    schouten_like_check,
)
from nilschouten.catalog import (
    draw_admissible_sample,
    draw_off_family_sample,
    draw_on_family_sample,
)
from nilschouten.cli import run_verify_paper
from nilschouten.curvature import ricci_nilpotent_from_tensor

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "src" / "nilschouten" / "golden"

# The ten five-dimensional normal forms, written out again here so that
# definition texts and the trace identity do not depend on the catalog
# module under test: id -> (bracket table {(i, j): {k: parameter}}, signs).
CATALOG = {
    "5A1": ({}, {}),
    "A5_4": (
        {(1, 3): {5: "alpha"}, (1, 4): {5: "beta"}, (2, 3): {5: "gamma"}},
        {"alpha": "free", "beta": "positive", "gamma": "positive"},
    ),
    "A3_1+2A1": ({(1, 2): {5: "alpha"}}, {"alpha": "positive"}),
    "A4_1+A1_case1": (
        {(1, 2): {3: "alpha", 5: "gamma"}, (1, 3): {5: "beta"}},
        {"alpha": "positive", "beta": "positive", "gamma": "free"},
    ),
    "A4_1+A1_case2": (
        {(1, 2): {3: "alpha", 4: "gamma"}, (1, 3): {5: "beta"}},
        {"alpha": "positive", "beta": "positive", "gamma": "free"},
    ),
    "A5_6": (
        {
            (1, 2): {3: "alpha", 4: "beta"},
            (1, 3): {4: "gamma", 5: "delta"},
            (1, 4): {5: "epsilon"},
            (2, 3): {5: "sigma"},
        },
        {"alpha": "negative", "beta": "free", "gamma": "positive",
         "delta": "free", "epsilon": "positive", "sigma": "positive"},
    ),
    "A5_5": (
        {
            (1, 2): {4: "alpha", 5: "beta"},
            (1, 3): {5: "gamma"},
            (2, 3): {5: "delta"},
            (2, 4): {5: "epsilon"},
        },
        {"alpha": "positive", "beta": "free", "gamma": "positive",
         "delta": "free", "epsilon": "positive"},
    ),
    "A5_3": (
        {
            (1, 2): {3: "alpha", 4: "beta"},
            (1, 3): {4: "gamma", 5: "delta"},
            (2, 3): {5: "epsilon"},
        },
        {"alpha": "positive", "beta": "free", "gamma": "positive",
         "delta": "free", "epsilon": "positive"},
    ),
    "A5_1": (
        {(1, 2): {4: "alpha", 5: "beta"}, (1, 3): {5: "gamma"}},
        {"alpha": "positive", "beta": "free", "gamma": "positive"},
    ),
    "A5_2": (
        {(1, 2): {3: "alpha", 4: "beta"}, (1, 3): {4: "gamma"}, (1, 4): {5: "delta"}},
        {"alpha": "positive", "beta": "free", "gamma": "positive", "delta": "positive"},
    ),
}

GOLDEN_STRATUM = "cli/golden"
# verify-paper --samples 0 prints one line per Ricci golden file and one per
# obstruction-system golden file.
GOLDEN_LINES = len(list(GOLDEN_DIR.glob("ricci/*.txt"))) + len(list(GOLDEN_DIR.glob("system/*.txt")))

REPLAY_ROUNDS = 40
SYMBOLIC_ROUNDS = 8
QUERY_ROUNDS = 8


@dataclass
class Case:
    """One input: an algebra (as a bracket table and its definition text),
    optionally a sample, and the expected answer."""

    stratum: str
    dim: int
    table: dict  # {(i, j): {k: parameter name}}, 1-based, i < j
    relations: dict  # parameter name -> sign relation
    text: str
    sample: dict | None = None
    algebra: MetricLieAlgebra | None = None
    expect: object = None
    seed: int = 0


# -- input generation ----------------------------------------------------------


def definition_text(dim: int, table: dict, relations: dict) -> str:
    lines = [f"dim {dim}"]
    lines += [f"param {name} {rel}" for name, rel in sorted(relations.items())]
    for (i, j), coords in sorted(table.items()):
        terms = " + ".join(f"{name}*e{k}" for k, name in sorted(coords.items()))
        lines.append(f"bracket {i} {j} : {terms}")
    return "\n".join(lines) + "\n"


def _positive(rng: random.Random) -> Fraction:
    # the catalog samplers' coefficient range
    return Fraction(rng.randint(1, 24), rng.randint(1, 8))


def _free(rng: random.Random) -> Fraction:
    if rng.random() < 0.25:
        return Fraction(0)
    value = _positive(rng)
    return -value if rng.random() < 0.5 else value


def _draw_value(relation: str, rng: random.Random) -> Fraction:
    if relation == "positive":
        return _positive(rng)
    if relation == "negative":
        return -_positive(rng)
    return _free(rng)


def _draw(relations: dict, rng: random.Random) -> dict:
    return {name: _draw_value(rel, rng) for name, rel in sorted(relations.items())}


def _case(stratum: str, dim: int, table: dict, relations: dict, **fields) -> Case:
    return Case(stratum, dim, table, relations, definition_text(dim, table, relations), **fields)


def heisenberg(k: int) -> Case:
    """H_{2k+1}: [v_i, v_{k+i}] = a_i v_{2k+1}, one positive parameter a_i each."""
    n = 2 * k + 1
    table = {(i, k + i): {n: f"a{i}"} for i in range(1, k + 1)}
    return _case(f"H{n}", n, table, {f"a{i}": "positive" for i in range(1, k + 1)})


def two_step(n: int, rng: random.Random) -> Case:
    """Random [V1, V1] in V2 with V2 central, one parameter per coefficient.

    Jacobi holds by construction: every double bracket lands in [V2, V] = 0.
    """
    p = n - n // 3  # V1 = span(v_1 .. v_p), V2 = span(v_{p+1} .. v_n)
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    # sizes are fixed by n, positions are random: inputs of one dimension
    # then cost about the same whatever the seed
    chosen = sorted(rng.sample(pairs, (len(pairs) + 1) // 2))
    table: dict = {}
    relations: dict = {}
    for pair in chosen:
        targets = rng.sample(range(p + 1, n + 1), min(2, n - p))
        coords = {}
        for k in sorted(targets):
            name = f"c{len(relations) + 1}"
            relations[name] = rng.choice(("positive", "free"))
            coords[k] = name
        table[pair] = coords
    return _case(f"2step{n}", n, table, relations)


def _catalog_case(algebra_id: str, stratum: str = "", **fields) -> Case:
    table, relations = CATALOG[algebra_id]
    return _case(stratum or algebra_id, 5, table, relations, **fields)


def _golden_lines(kind: str, algebra_id: str) -> list[str] | None:
    path = GOLDEN_DIR / kind / f"{algebra_id}.txt"
    if not path.is_file():
        return None
    lines = (raw.split("#", 1)[0].rstrip() for raw in path.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line]


def build_replay(seed: int, tr) -> list[list[Case]]:
    """Catalog samples drawn as verify-paper draws them: per algebra one
    on-family and one off-family sample a round ('always' and 'never'
    entries draw two admissible samples)."""
    rng = random.Random(seed)
    entries = {entry.algebra_id: entry for entry in classification_table()}
    algebras = {}
    for algebra_id in CATALOG:
        with tr.span("catalog.get_algebra"):
            algebras[algebra_id] = get_algebra(algebra_id)
    rounds = []
    for _ in range(REPLAY_ROUNDS):
        cases = []
        for algebra_id, g in algebras.items():
            entry = entries[algebra_id]
            for kind in ("on", "off"):
                with tr.span("catalog.draw"):
                    if entry.verdict != "family":
                        sample = draw_admissible_sample(g, rng)
                    elif kind == "on":
                        sample = draw_on_family_sample(algebra_id, rng)
                    else:
                        sample = draw_off_family_sample(algebra_id, rng)
                if entry.verdict == "family":
                    expect = all(p.evaluate(sample) == 0 for p in entry.family_constraints)
                else:
                    expect = entry.verdict == "always"
                cases.append(_catalog_case(
                    algebra_id, stratum=f"{algebra_id}/{kind}", sample=sample,
                    algebra=g, expect=expect,
                ))
        rounds.append(cases)
    return rounds


def build_symbolic(seed: int, tr) -> list[list[Case]]:
    """Definition texts: the ten catalog forms (expecting the golden output),
    H_7 and H_9, fresh two-step tables of dimension 6..9, and one golden-only
    verify-paper replay a round."""
    rng = random.Random(seed)
    fixed = [
        _catalog_case(
            algebra_id,
            expect=(_golden_lines("ricci", algebra_id), _golden_lines("system", algebra_id)),
        )
        for algebra_id in CATALOG
    ] + [heisenberg(3), heisenberg(4)]
    golden = Case(GOLDEN_STRATUM, 0, {}, {}, "", expect=GOLDEN_LINES, seed=seed)
    rounds = []
    for _ in range(SYMBOLIC_ROUNDS):
        fresh = [two_step(n, rng) for n in range(6, 10)]
        cases = [replace(case, sample=_draw(case.relations, rng)) for case in fixed + fresh]
        rounds.append(cases + [golden])
    return rounds


def build_queries(seed: int, tr) -> list[list[Case]]:
    """Heisenberg algebras H_3..H_9 with equal coefficients (rational and
    sqrt(2)-scaled; a nilsoliton with mu = -(k+2)/2 * a^2, Lauret 2001) and
    unequal ones (infeasible), plus fresh two-step algebras of dimension 3..9."""
    rng = random.Random(seed)
    root2 = QuadRat.sqrt(2)
    heis = {}
    for k in range(1, 5):
        case = heisenberg(k)
        with tr.span("algfile.parse"):
            heis[k] = replace(case, algebra=parse_algebra_file(case.text).algebra)
    rounds = []
    for _ in range(QUERY_ROUNDS):
        cases = []
        for k, case in heis.items():
            q = _positive(rng)
            cases.append(replace(
                case, stratum=f"{case.stratum}/equal", sample=dict.fromkeys(case.relations, q),
                expect=-Fraction(k + 2, 2) * q * q,
            ))
        for k, case in heis.items():
            q = _positive(rng)
            cases.append(replace(
                case, stratum=f"{case.stratum}/sqrt2", sample=dict.fromkeys(case.relations, root2 * q),
                expect=-Fraction(k + 2, 2) * 2 * q * q,
            ))
        for k, case in heis.items():
            if k == 1:
                continue
            values = [_positive(rng) for _ in range(k)]
            while len(set(values)) == 1:
                values = [_positive(rng) for _ in range(k)]
            cases.append(replace(
                case, stratum=f"{case.stratum}/unequal",
                sample=dict(zip(sorted(case.relations), values)), expect=False,
            ))
        for n in range(3, 10):
            case = two_step(n, rng)
            with tr.span("algfile.parse"):
                g = parse_algebra_file(case.text).algebra
            cases.append(replace(case, algebra=g, sample=_draw(case.relations, rng)))
        rounds.append(cases)
    return rounds


# -- operations ----------------------------------------------------------------


def _is_quadratic(sample: dict) -> bool:
    return any(isinstance(v, QuadRat) for v in sample.values())


def _exact_span(sample: dict) -> str:
    kind = "quadratic" if _is_quadratic(sample) else "rational"
    return f"soliton.oracle_exact_{kind}"


def run_replay(case: Case, tr):
    with tr.span(_exact_span(case.sample)):
        return numeric_soliton_oracle(case.algebra, case.sample)


def check_replay(case: Case, verdict) -> str | None:
    if verdict.feasible == case.expect:
        return None
    want = "feasible" if case.expect else "infeasible"
    return f"{case.stratum} at {case.sample}: classification says {want}, oracle says {verdict.status}"


def run_query(case: Case, tr):
    g, sample = case.algebra, case.sample
    with tr.span(_exact_span(sample)):
        exact = numeric_soliton_oracle(g, sample)
    with tr.span("soliton.oracle_float"):
        approx = numeric_soliton_oracle(g, sample, mode="float")
    witness_ok = None
    if exact.feasible:
        with tr.span("soliton.schouten_check"):
            witness_ok = schouten_like_check(g, sample, exact.witness_mu)
    return exact, approx, witness_ok


def check_query(case: Case, out) -> str | None:
    exact, approx, witness_ok = out
    where = f"{case.stratum} at {case.sample}"
    if case.expect is False and exact.feasible:
        return f"{where}: unequal Heisenberg coefficients must be infeasible"
    if isinstance(case.expect, Fraction) and not (exact.feasible and exact.witness_mu == case.expect):
        return f"{where}: expected mu = {case.expect}, got {exact.status} {exact.witness_mu}"
    if exact.feasible != approx.feasible:
        return f"{where}: exact says {exact.status}, float says {approx.status}"
    if exact.feasible:
        if not witness_ok:
            return f"{where}: witness mu = {exact.witness_mu} fails schouten_like_check"
        mu = float(exact.witness_mu)
        if abs(mu - approx.witness_mu) > 1e-9 * max(1.0, abs(mu)):
            return f"{where}: exact mu {mu!r} and float mu {approx.witness_mu!r} differ"
    return None


class SymbolicOutput(NamedTuple):
    algebra: MetricLieAlgebra
    ricci: list
    scalar: Polynomial
    system: object  # ObstructionSystem
    ricci_lines: list[str]
    scalar_text: str
    system_lines: list[str]


def run_symbolic(case: Case, tr):
    if case.stratum == GOLDEN_STRATUM:
        buffer = io.StringIO()
        with tr.span("cli.golden_replay"), contextlib.redirect_stdout(buffer):
            code = run_verify_paper(case.seed, 0, porcelain=True)
        return code, buffer.getvalue().splitlines()
    with tr.span("algfile.parse"):
        g = parse_algebra_file(case.text).algebra
    with tr.span("curvature.ricci_symbolic"):
        ric = ricci_operator(g)
    with tr.span("curvature.scalar"):
        scal = scalar_curvature(g)
    with tr.span("soliton.system"):
        system = obstruction_system(g)
    with tr.span("ratpoly.render"):
        ricci_lines = [" ; ".join(str(entry) for entry in row) for row in ric]
        scal_text = str(scal)
        system_lines = [
            f"{i} {j} {k} : {poly}"
            for poly, ((i, j), k) in zip(system.generators, system.provenance)
        ]
    return SymbolicOutput(g, ric, scal, system, ricci_lines, scal_text, system_lines)


def check_symbolic(case: Case, out) -> str | None:
    if case.stratum == GOLDEN_STRATUM:
        code, lines = out
        if code != 0 or len(lines) != case.expect or not all(line.startswith("ok\t") for line in lines):
            return f"golden-only verify-paper: exit {code}, output {lines}"
        return None
    ric, n = out.ricci, case.dim
    if any(ric[i][j] != ric[j][i] for i in range(n) for j in range(i + 1, n)):
        return f"{case.stratum}: Ricci matrix is not symmetric"
    # scal = -1/2 * sum_{i<j} |[v_i, v_j]|^2; each coefficient is one parameter
    expected: dict = {}
    for coords in case.table.values():
        for name in coords.values():
            key = ((name, 2),)
            expected[key] = expected.get(key, Fraction(0)) - Fraction(1, 2)
    if {mono.exps: coeff for mono, coeff in out.scalar.terms().items()} != expected:
        return f"{case.stratum}: scalar curvature {out.scalar_text} breaks the trace identity"
    if case.expect is not None:
        golden_ricci, golden_system = case.expect
        if out.ricci_lines != golden_ricci:
            return f"{case.stratum}: Ricci output differs from the golden file"
        if golden_system is not None and out.system_lines != golden_system:
            return f"{case.stratum}: obstruction system differs from the golden file"
    return None


# -- traced-only extras ----------------------------------------------------------
#
# Separate calls on the same input, made after the operation so that its
# latency stays comparable with the untraced run.


def _count_nonzero(tr, tensor: list, is_zero: Callable) -> None:
    n = len(tensor)
    nonzero = sum(
        1 for i in range(n) for j in range(i + 1, n) for x in tensor[i][j] if not is_zero(x)
    )
    tr.count("liealg.nonzero_entries", nonzero)
    tr.count("liealg.density", nonzero / (n * n * (n - 1) / 2))


def decompose(case: Case, tr) -> None:
    """Time the oracle's stages by separate calls: nilpotency, evaluation
    and numeric Ricci (their sum is subtracted from the oracle's time to
    estimate its own share)."""
    g, sample = case.algebra, case.sample
    with tr.span("liealg.nilpotency"):
        g.nilpotency_step(sample)
    with tr.span("liealg.evaluate"):
        tensor = g.evaluate_structure(sample)
    with tr.span("curvature.ricci_numeric"):
        ricci_nilpotent_from_tensor(tensor)
    _count_nonzero(tr, tensor, lambda x: x == 0)
    tr.count("quadfield.sample_share", 1 if _is_quadratic(sample) else 0)


def _count_verdict(tr, verdict) -> None:
    tr.count("soliton.verdicts_feasible", 1 if verdict.feasible else 0)
    tr.count("soliton.verdicts_infeasible", 0 if verdict.feasible else 1)


def extras_replay(case: Case, verdict, tr) -> None:
    decompose(case, tr)
    _count_verdict(tr, verdict)


def extras_query(case: Case, out, tr) -> None:
    decompose(case, tr)
    _count_verdict(tr, out[0])


def extras_symbolic(case: Case, out, tr) -> None:
    if case.stratum == GOLDEN_STRATUM:
        return
    g = out.algebra
    brackets = {
        pair: {k: Polynomial.parameter(name) for k, name in coords.items()}
        for pair, coords in case.table.items()
    }
    constraints = [ParameterConstraint(name, rel) for name, rel in case.relations.items()]
    with tr.span("liealg.construct"):
        MetricLieAlgebra.from_brackets(case.dim, brackets, constraints)
    with tr.span("soliton.residual"):
        residual = derivation_residual(g, candidate_derivation(g).matrix)
    tr.count("soliton.residual_coords", sum(1 for _, vec in residual for x in vec if not x.is_zero()))
    tr.count("soliton.generators", len(out.system))
    polys = [entry for row in out.ricci for entry in row] + [out.scalar, *out.system.generators]
    tr.count("ratpoly.terms", sum(len(p.terms()) for p in polys))
    _count_nonzero(tr, g.c, lambda p: p.is_zero())


def probe(cases: list[Case], tr, seed: int) -> None:
    """Call every layer once per case of one round, and the golden-only
    replay once, so that layers the workload's own operations leave idle
    are still timed on its inputs.  Numeric calls use the case's sample
    and, when that is rational, the same sample scaled by sqrt(2)."""
    root2 = QuadRat.sqrt(2)
    tr.op = op = 0
    run_symbolic(Case(GOLDEN_STRATUM, 0, {}, {}, "", seed=seed), tr)
    for case in cases:
        if case.stratum == GOLDEN_STRATUM:
            continue
        tr.op = op = op + 1
        out = run_symbolic(case, tr)
        extras_symbolic(case, out, tr)
        g = case.algebra or out.algebra
        with tr.span("catalog.draw"):
            draw_admissible_sample(g, random.Random(seed))
        samples = [case.sample]
        if not _is_quadratic(case.sample):
            samples.append({name: root2 * v for name, v in case.sample.items()})
        for sample in samples:
            tr.op = op = op + 1
            numeric = replace(case, algebra=g, sample=sample)
            extras_query(numeric, run_query(numeric, tr), tr)


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, tracer) -> rounds, each a list of Case
    run: Callable  # (case, tracer) -> output
    check: Callable  # (case, output) -> problem description or None
    extras: Callable  # (case, output, tracer) -> None, traced runs only


WORKLOADS = {
    "replay": Workload(build_replay, run_replay, check_replay, extras_replay),
    "symbolic": Workload(build_symbolic, run_symbolic, check_symbolic, extras_symbolic),
    "queries": Workload(build_queries, run_query, check_query, extras_query),
}
