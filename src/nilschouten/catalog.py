"""The ten five-dimensional nilpotent normal forms and their classification.

Each algebra is stated once, in one table: its _CATALOG record holds the
bracket table, the sign relation of every parameter, the verdict (always,
never, or a solution family) and, for a family, its parametrization and
the coordinates it pins.  ALGEBRA_IDS is the table's order; get_algebra
builds the normal form from the record on first use, and the
ClassificationEntry of each id is built from it once, at import.

A family is stated by its parametrization; sampling reads it from the
record, and its equations are derived from it.  Irrational family
relations become polynomial equations on squares (alpha^2 = 2*gamma^2,
4*gamma^2 = 3*alpha^2, ...) that, with the sign constraints the algebra
already carries, decide membership in exact rational arithmetic; on-family
sample generation draws one positive rational q and scales it by the
record's coefficients, exact in Q(sqrt(2)), Q(sqrt(3)) or Q(sqrt(6)).

verify_entry executes a verdict against the numeric feasibility oracle on
seeded random samples.  The two samplers, draw_on_family_sample and
draw_off_family_sample, hold the rule for what each verdict draws: an
'always' entry's on-family draw and a 'never' entry's off-family draw are
any admissible sample.  verify_entry states no sampling rule of its own;
it expects on-family draws feasible and off-family draws infeasible.
Off-family samples of a family are produced by perturbing one
family-pinned coordinate by at least 1/10, away from zero where the
coordinate has a sign (a negative one moves by -delta): infinitesimally
small perturbations would still be infeasible mathematically, but a
visible margin keeps the draws far from the family for the float oracle,
which the tests and the benchmark run on the same draws.  Reports are
reproducible bit for bit given (seed, counts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Literal, Mapping, NamedTuple

from .liealg import MetricLieAlgebra, ParameterConstraint
from .quadfield import QuadRat
from .ratpoly import Polynomial
from .soliton import numeric_soliton_oracle

Verdict = Literal["always", "never", "family"]


class _Record(NamedTuple):
    """One catalog algebra.  brackets maps (i, j) to {k: name}, read
    [v_i, v_j] = sum of name*v_k; signs gives every parameter's relation;
    family and pinned are ClassificationEntry's parametrization (as
    name: coefficient of q) and pinned coordinates."""

    brackets: Mapping[tuple[int, int], Mapping[int, str]]
    signs: Mapping[str, str]
    verdict: Verdict
    family: Mapping[str, object] = {}
    pinned: tuple[str, ...] = ()


_SQRT2 = QuadRat.sqrt(2)
_HALF_SQRT3 = QuadRat.sqrt(3) / 2
_THIRD_SQRT6 = QuadRat.sqrt(6) / 3

_CATALOG: dict[str, _Record] = {
    "5A1": _Record({}, {}, "always"),
    "A5_4": _Record(
        {(1, 3): {5: "alpha"}, (1, 4): {5: "beta"}, (2, 3): {5: "gamma"}},
        dict(alpha="free", beta="positive", gamma="positive"),
        "family", dict(alpha=0, beta=1, gamma=1), ("alpha", "beta"),
    ),
    "A3_1+2A1": _Record({(1, 2): {5: "alpha"}}, dict(alpha="positive"), "always"),
    "A4_1+A1_case1": _Record(
        {(1, 2): {3: "alpha", 5: "gamma"}, (1, 3): {5: "beta"}},
        dict(alpha="positive", beta="positive", gamma="free"),
        "family", dict(gamma=0, alpha=1, beta=1), ("gamma", "alpha"),
    ),
    "A4_1+A1_case2": _Record(
        {(1, 2): {3: "alpha", 4: "gamma"}, (1, 3): {5: "beta"}},
        dict(alpha="positive", beta="positive", gamma="free"),
        "family", dict(gamma=0, alpha=1, beta=1), ("gamma", "alpha"),
    ),
    "A5_6": _Record(
        {
            (1, 2): {3: "alpha", 4: "beta"},
            (1, 3): {4: "gamma", 5: "delta"},
            (1, 4): {5: "epsilon"},
            (2, 3): {5: "sigma"},
        },
        dict(alpha="negative", beta="free", gamma="positive", delta="free",
             epsilon="positive", sigma="positive"),
        "family",
        dict(beta=0, delta=0, gamma=1, alpha=-1, epsilon=_THIRD_SQRT6, sigma=_THIRD_SQRT6),
        ("beta", "delta", "alpha", "epsilon", "sigma"),
    ),
    "A5_5": _Record(
        {
            (1, 2): {4: "alpha", 5: "beta"},
            (1, 3): {5: "gamma"},
            (2, 3): {5: "delta"},
            (2, 4): {5: "epsilon"},
        },
        dict(alpha="positive", beta="free", gamma="positive", delta="free", epsilon="positive"),
        "family", dict(beta=0, delta=0, gamma=1, alpha=_SQRT2, epsilon=_SQRT2),
        ("beta", "delta", "alpha", "epsilon", "gamma"),
    ),
    "A5_3": _Record(
        {
            (1, 2): {3: "alpha", 4: "beta"},
            (1, 3): {4: "gamma", 5: "delta"},
            (2, 3): {5: "epsilon"},
        },
        dict(alpha="positive", beta="free", gamma="positive", delta="free", epsilon="positive"),
        "family", dict(beta=0, delta=0, alpha=1, gamma=_HALF_SQRT3, epsilon=_HALF_SQRT3),
        ("beta", "delta", "gamma", "epsilon"),
    ),
    "A5_1": _Record(
        {(1, 2): {4: "alpha", 5: "beta"}, (1, 3): {5: "gamma"}},
        dict(alpha="positive", beta="free", gamma="positive"),
        "family", dict(beta=0, alpha=1, gamma=1), ("beta", "alpha"),
    ),
    "A5_2": _Record(
        {(1, 2): {3: "alpha", 4: "beta"}, (1, 3): {4: "gamma"}, (1, 4): {5: "delta"}},
        dict(alpha="positive", beta="free", gamma="positive", delta="positive"),
        "family", dict(beta=0, gamma=1, alpha=_HALF_SQRT3, delta=_HALF_SQRT3),
        ("beta", "alpha", "delta"),
    ),
}

ALGEBRA_IDS = tuple(_CATALOG)

GOLDEN_SYSTEM_IDS = (
    "A5_4",
    "A3_1+2A1",
    "A4_1+A1_case1",
    "A4_1+A1_case2",
    "A5_5",
    "A5_3",
    "A5_1",
    "A5_2",
)


class UnknownAlgebraError(KeyError):
    """No catalog entry with the requested identifier."""

    def __init__(self, algebra_id: str):
        super().__init__(f"unknown algebra {algebra_id!r}; valid ids: {', '.join(ALGEBRA_IDS)}")

    def __str__(self) -> str:
        return self.args[0]


@lru_cache(maxsize=None)
def get_algebra(algebra_id: str) -> MetricLieAlgebra:
    """The catalog normal form with the given identifier (see _CATALOG)."""
    if algebra_id not in _CATALOG:
        raise UnknownAlgebraError(algebra_id)
    record = _CATALOG[algebra_id]
    brackets = {
        pair: {k: Polynomial.parameter(name) for k, name in coords.items()}
        for pair, coords in record.brackets.items()
    }
    constraints = [ParameterConstraint(name, rel) for name, rel in record.signs.items()]
    return MetricLieAlgebra.from_brackets(5, brackets, constraints, algebra_id)


@dataclass(frozen=True)
class ClassificationEntry:
    """One classification verdict: always / never / family.

    A family is given by the parametrization q -> {name: coeff*q} over a
    positive rational q, and the coordinates the family pins, in the order
    off-family sampling draws from them (moving any one by a visible delta
    keeps the sample admissible but leaves the family).
    """

    algebra_id: str
    verdict: Verdict
    parametrization: tuple[tuple[str, object], ...] = ()
    pinned: tuple[str, ...] = ()

    @cached_property
    def family_constraints(self) -> tuple[Polynomial, ...]:
        """The sign-normalized equations cutting the family out, read off the
        parametrization against its first nonzero coefficient (the reference
        r): a zero coefficient gives the name x itself, a rational ratio
        x/r = t the relation x - t*r, and an irrational one the relation
        x^2 - t^2*r^2 between the squares (t^2 must be rational); that pins
        the family because r and every such x are positive in the algebra."""
        p = Polynomial.parameter
        ref, ref_coeff = next(((x, a) for x, a in self.parametrization if a), ("", 1))
        out = []
        for name, coeff in self.parametrization:
            if not coeff:
                out.append(p(name))
            elif name != ref:
                x, r, ratio = p(name), p(ref), QuadRat.from_rational(1) * coeff / ref_coeff
                square = ratio * ratio
                if square.b:
                    raise ValueError(f"{name}/{ref} has no rational square")
                relation = x - ratio.a * r if not ratio.b else x**2 - square.a * r**2
                out.append(relation.sign_normalized())
        return tuple(out)


_ENTRIES = {
    algebra_id: ClassificationEntry(
        algebra_id, record.verdict, tuple(record.family.items()), record.pinned
    )
    for algebra_id, record in _CATALOG.items()
}


def classification_table() -> tuple[ClassificationEntry, ...]:
    """All ten verdicts, in catalog order."""
    return tuple(_ENTRIES.values())


def classification_entry(algebra_id: str) -> ClassificationEntry:
    if algebra_id not in _ENTRIES:
        raise UnknownAlgebraError(algebra_id)
    return _ENTRIES[algebra_id]


# -- sampling ----------------------------------------------------------------


def _random_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 24), rng.randint(1, 8))


def _signed(relation: str, value: Fraction, rng: random.Random) -> Fraction:
    """The positive value with the relation's sign; a relation without one
    (free, nonzero) takes a random sign."""
    if relation == "positive":
        return value
    if relation == "negative":
        return -value
    return -value if rng.random() < 0.5 else value


def _random_value(relation: str, rng: random.Random) -> Fraction:
    """A random rational obeying the relation; a free one is 0 a quarter
    of the time."""
    if relation == "free" and rng.random() < 0.25:
        return Fraction(0)
    return _signed(relation, _random_positive(rng), rng)


def draw_admissible_sample(
    g: MetricLieAlgebra, rng: random.Random
) -> dict[str, Fraction]:
    """A random rational sample satisfying every sign constraint."""
    constraints = g.constraint_map()
    return {
        name: _random_value(constraints[name].relation if name in constraints else "free", rng)
        for name in g.sample_names
    }


def draw_on_family_sample(algebra_id: str, rng: random.Random) -> dict[str, object]:
    """An admissible sample lying exactly on the solution family.

    For 'always' entries any admissible sample qualifies.  For the
    irrational families the constrained values live in Q(sqrt(2)),
    Q(sqrt(3)) or Q(sqrt(6)); every other coordinate is rational.
    """
    entry = classification_entry(algebra_id)
    if entry.verdict == "never":
        raise ValueError(f"{algebra_id} has no solution family")
    if entry.verdict == "always":
        return draw_admissible_sample(get_algebra(algebra_id), rng)
    q = _random_positive(rng)
    return {name: coeff * q for name, coeff in entry.parametrization}


def draw_off_family_sample(algebra_id: str, rng: random.Random) -> dict[str, object]:
    """An admissible sample strictly off the family.

    For 'never' entries any admissible sample qualifies.  For 'family'
    entries an on-family sample is perturbed by delta >= 1/10 in one pinned
    coordinate, moved away from zero where the coordinate has a sign, so
    the sample stays admissible: free coordinates pinned to 0 get
    +/-delta, positive ones +delta and negative ones -delta.
    """
    entry = classification_entry(algebra_id)
    if entry.verdict == "always":
        raise ValueError(f"{algebra_id} is always feasible; no off-family samples")
    if entry.verdict == "never":
        return draw_admissible_sample(get_algebra(algebra_id), rng)
    sample = dict(draw_on_family_sample(algebra_id, rng))
    name = rng.choice(entry.pinned)
    delta = Fraction(rng.randint(1, 20), 10)
    sample[name] = sample[name] + _signed(_CATALOG[algebra_id].signs[name], delta, rng)
    return sample


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class SampleFailure:
    sample: tuple[tuple[str, str], ...]
    expected: str
    got: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of replaying one classification verdict against the oracle."""

    algebra_id: str
    verdict: Verdict
    feasible_checked: int
    infeasible_checked: int
    failures: tuple[SampleFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        """One line of counts; a failing report also names its first
        counterexample: the sample, the expected and the oracle's status."""
        status = "ok"
        if self.failures:
            first = self.failures[0]
            status = (
                f"FAIL ({len(self.failures)} counterexamples); first: "
                + ", ".join(f"{name}={value}" for name, value in first.sample)
                + f" expected {first.expected}, got {first.got}"
            )
        return (
            f"{self.algebra_id}: verdict={self.verdict} "
            f"feasible={self.feasible_checked} infeasible={self.infeasible_checked} {status}"
        )


def _freeze_sample(sample: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in sorted(sample.items()))


def verify_entry(
    algebra_id: str,
    on_family_samples: int,
    off_family_samples: int,
    seed: int,
) -> VerificationReport:
    """Replay one verdict on seeded random samples.

    On-family draws are expected feasible and off-family draws infeasible;
    the samplers hold the verdict rule (an 'always' entry's on-family draw
    and a 'never' entry's off-family draw are any admissible sample).  An
    'always' entry makes all its draws on-family and a 'never' entry all
    off-family, so both counts contribute.
    """
    entry = classification_entry(algebra_id)
    rng = random.Random(seed)
    if entry.verdict != "family":
        total = on_family_samples + off_family_samples
        on_family_samples = total if entry.verdict == "always" else 0
        off_family_samples = total - on_family_samples
    samples = [draw_on_family_sample(algebra_id, rng) for _ in range(on_family_samples)]
    samples += [draw_off_family_sample(algebra_id, rng) for _ in range(off_family_samples)]
    expected = ["feasible"] * on_family_samples + ["infeasible"] * off_family_samples
    g = get_algebra(algebra_id)
    statuses = [numeric_soliton_oracle(g, sample).status for sample in samples]
    failures = tuple(
        SampleFailure(_freeze_sample(sample), want, got)
        for sample, want, got in zip(samples, expected, statuses)
        if got != want
    )
    feasible = statuses.count("feasible")
    return VerificationReport(
        algebra_id, entry.verdict, feasible, len(statuses) - feasible, failures
    )
