"""The ten five-dimensional nilpotent normal forms and their classification.

Bracket tables and sign constraints:

    5A1            none
    A5_4           [v1,v3]=a v5  [v1,v4]=b v5  [v2,v3]=g v5      (b, g > 0; a free)
    A3_1+2A1       [v1,v2]=a v5                                  (a > 0)
    A4_1+A1 (i)    [v1,v2]=a v3 + g v5  [v1,v3]=b v5             (a, b > 0; g free)
    A4_1+A1 (ii)   [v1,v2]=a v3 + g v4  [v1,v3]=b v5             (a, b > 0; g free)
    A5_6           [v1,v2]=a v3+b v4  [v1,v3]=g v4+d v5
                   [v1,v4]=e v5  [v2,v3]=s v5          (a < 0; g, e, s > 0; b, d free)
    A5_5           [v1,v2]=a v4+b v5  [v1,v3]=g v5
                   [v2,v3]=d v5  [v2,v4]=e v5          (a, g, e > 0; b, d free)
    A5_3           [v1,v2]=a v3+b v4  [v1,v3]=g v4+d v5
                   [v2,v3]=e v5                        (a, g, e > 0; b, d free)
    A5_1           [v1,v2]=a v4+b v5  [v1,v3]=g v5               (a, g > 0; b free)
    A5_2           [v1,v2]=a v3+b v4  [v1,v3]=g v4  [v1,v4]=d v5 (a, g, d > 0; b free)

Each verdict (always, never, or a solution family) is stated once, in its
ClassificationEntry record of classification_table, a family by its
parametrization; sampling reads the family from that record, and its
equations are derived from it.  Irrational family relations become
polynomial equations on squares (alpha^2 = 2*gamma^2, 4*gamma^2 =
3*alpha^2, ...) that, with the sign constraints the algebra already
carries, decide membership in exact rational arithmetic; on-family sample
generation draws one positive rational q and scales it by the record's
coefficients, exact in Q(sqrt(2)) or Q(sqrt(3)).

verify_entry executes a verdict against the numeric feasibility oracle on
seeded random samples.  Off-family samples are produced by perturbing one
family-pinned coordinate by at least 1/10: infinitesimally small
perturbations would still be infeasible mathematically, but a visible
margin keeps the draws far from the family for the float oracle, which
the tests and the benchmark run on the same draws.  Reports are
reproducible bit for bit given (seed, counts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Literal, Mapping

from .liealg import MetricLieAlgebra, ParameterConstraint
from .quadfield import QuadRat
from .ratpoly import Polynomial
from .soliton import numeric_soliton_oracle

Verdict = Literal["always", "never", "family"]

ALGEBRA_IDS = (
    "5A1",
    "A5_4",
    "A3_1+2A1",
    "A4_1+A1_case1",
    "A4_1+A1_case2",
    "A5_6",
    "A5_5",
    "A5_3",
    "A5_1",
    "A5_2",
)

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


def _p(name: str) -> Polynomial:
    return Polynomial.parameter(name)


def _constraints(**relations: str) -> list[ParameterConstraint]:
    return [ParameterConstraint(name, rel) for name, rel in relations.items()]


_BRACKET_TABLE: dict[str, tuple[dict, list[ParameterConstraint]]] = {
    "5A1": ({}, []),
    "A5_4": (
        {(1, 3): {5: _p("alpha")}, (1, 4): {5: _p("beta")}, (2, 3): {5: _p("gamma")}},
        _constraints(alpha="free", beta="positive", gamma="positive"),
    ),
    "A3_1+2A1": (
        {(1, 2): {5: _p("alpha")}},
        _constraints(alpha="positive"),
    ),
    "A4_1+A1_case1": (
        {(1, 2): {3: _p("alpha"), 5: _p("gamma")}, (1, 3): {5: _p("beta")}},
        _constraints(alpha="positive", beta="positive", gamma="free"),
    ),
    "A4_1+A1_case2": (
        {(1, 2): {3: _p("alpha"), 4: _p("gamma")}, (1, 3): {5: _p("beta")}},
        _constraints(alpha="positive", beta="positive", gamma="free"),
    ),
    "A5_6": (
        {
            (1, 2): {3: _p("alpha"), 4: _p("beta")},
            (1, 3): {4: _p("gamma"), 5: _p("delta")},
            (1, 4): {5: _p("epsilon")},
            (2, 3): {5: _p("sigma")},
        },
        _constraints(
            alpha="negative",
            beta="free",
            gamma="positive",
            delta="free",
            epsilon="positive",
            sigma="positive",
        ),
    ),
    "A5_5": (
        {
            (1, 2): {4: _p("alpha"), 5: _p("beta")},
            (1, 3): {5: _p("gamma")},
            (2, 3): {5: _p("delta")},
            (2, 4): {5: _p("epsilon")},
        },
        _constraints(
            alpha="positive", beta="free", gamma="positive", delta="free", epsilon="positive"
        ),
    ),
    "A5_3": (
        {
            (1, 2): {3: _p("alpha"), 4: _p("beta")},
            (1, 3): {4: _p("gamma"), 5: _p("delta")},
            (2, 3): {5: _p("epsilon")},
        },
        _constraints(
            alpha="positive", beta="free", gamma="positive", delta="free", epsilon="positive"
        ),
    ),
    "A5_1": (
        {(1, 2): {4: _p("alpha"), 5: _p("beta")}, (1, 3): {5: _p("gamma")}},
        _constraints(alpha="positive", beta="free", gamma="positive"),
    ),
    "A5_2": (
        {
            (1, 2): {3: _p("alpha"), 4: _p("beta")},
            (1, 3): {4: _p("gamma")},
            (1, 4): {5: _p("delta")},
        },
        _constraints(alpha="positive", beta="free", gamma="positive", delta="positive"),
    ),
}


@lru_cache(maxsize=None)
def get_algebra(algebra_id: str) -> MetricLieAlgebra:
    """The catalog normal form with the given identifier (see module docstring)."""
    try:
        brackets, constraints = _BRACKET_TABLE[algebra_id]
    except KeyError:
        raise UnknownAlgebraError(algebra_id) from None
    return MetricLieAlgebra.from_brackets(5, brackets, constraints, algebra_id)


@dataclass(frozen=True)
class ClassificationEntry:
    """One classification verdict: always / never / family.

    A family is stated once, here: the parametrization q -> {name: coeff*q}
    over a positive rational q, and the coordinates the family pins, in
    the order off-family sampling draws from them (moving any one by a
    visible delta keeps the sample admissible but leaves the family).
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
        ref, ref_coeff = next(((x, a) for x, a in self.parametrization if a), ("", 1))
        out = []
        for name, coeff in self.parametrization:
            if not coeff:
                out.append(_p(name))
            elif name != ref:
                x, r, ratio = _p(name), _p(ref), _ONE * coeff / ref_coeff
                square = ratio * ratio
                if square.b:
                    raise ValueError(f"{name}/{ref} has no rational square")
                relation = x - ratio.a * r if not ratio.b else x**2 - square.a * r**2
                out.append(relation.sign_normalized())
        return tuple(out)


def _scaled(**coeffs) -> tuple[tuple[str, object], ...]:
    return tuple(coeffs.items())


_ONE = QuadRat.from_rational(1)
_SQRT2 = QuadRat.sqrt(2)
_HALF_SQRT3 = QuadRat.sqrt(3) / 2


@lru_cache(maxsize=None)
def classification_table() -> tuple[ClassificationEntry, ...]:
    """All ten verdicts, in catalog order."""
    return (
        ClassificationEntry("5A1", "always"),
        ClassificationEntry(
            "A5_4",
            "family",
            _scaled(alpha=0, beta=1, gamma=1),
            ("alpha", "beta"),
        ),
        ClassificationEntry("A3_1+2A1", "always"),
        ClassificationEntry(
            "A4_1+A1_case1",
            "family",
            _scaled(gamma=0, alpha=1, beta=1),
            ("gamma", "alpha"),
        ),
        ClassificationEntry(
            "A4_1+A1_case2",
            "family",
            _scaled(gamma=0, alpha=1, beta=1),
            ("gamma", "alpha"),
        ),
        ClassificationEntry("A5_6", "never"),
        ClassificationEntry(
            "A5_5",
            "family",
            _scaled(beta=0, delta=0, gamma=1, alpha=_SQRT2, epsilon=_SQRT2),
            ("beta", "delta", "alpha", "epsilon", "gamma"),
        ),
        ClassificationEntry(
            "A5_3",
            "family",
            _scaled(beta=0, delta=0, alpha=1, gamma=_HALF_SQRT3, epsilon=_HALF_SQRT3),
            ("beta", "delta", "gamma", "epsilon"),
        ),
        ClassificationEntry(
            "A5_1",
            "family",
            _scaled(beta=0, alpha=1, gamma=1),
            ("beta", "alpha"),
        ),
        ClassificationEntry(
            "A5_2",
            "family",
            _scaled(beta=0, gamma=1, alpha=_HALF_SQRT3, delta=_HALF_SQRT3),
            ("beta", "alpha", "delta"),
        ),
    )


def classification_entry(algebra_id: str) -> ClassificationEntry:
    for entry in classification_table():
        if entry.algebra_id == algebra_id:
            return entry
    raise UnknownAlgebraError(algebra_id)


# -- sampling ----------------------------------------------------------------


def _random_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 24), rng.randint(1, 8))


def _random_signed(rng: random.Random, allow_zero: bool) -> Fraction:
    if allow_zero and rng.random() < 0.25:
        return Fraction(0)
    value = _random_positive(rng)
    return -value if rng.random() < 0.5 else value


def draw_admissible_sample(
    g: MetricLieAlgebra, rng: random.Random
) -> dict[str, Fraction]:
    """A random rational sample satisfying every sign constraint."""
    sample: dict[str, Fraction] = {}
    constraints = g.constraint_map()
    for name in sorted(set(g.parameters()) | set(constraints)):
        relation = constraints[name].relation if name in constraints else "free"
        if relation == "positive":
            sample[name] = _random_positive(rng)
        elif relation == "negative":
            sample[name] = -_random_positive(rng)
        elif relation == "nonzero":
            value = _random_positive(rng)
            sample[name] = -value if rng.random() < 0.5 else value
        else:
            sample[name] = _random_signed(rng, allow_zero=True)
    return sample


def _delta(rng: random.Random) -> Fraction:
    # off-family perturbation magnitude: fixed policy of at least 1/10
    return Fraction(rng.randint(1, 20), 10)


def draw_on_family_sample(algebra_id: str, rng: random.Random) -> dict[str, object]:
    """An admissible sample lying exactly on the solution family.

    For the irrational families the constrained values live in Q(sqrt(2))
    or Q(sqrt(3)); every other coordinate is rational.
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
    coordinate (free coordinates pinned to 0 get +/-delta; positively
    constrained ones get +delta, preserving their sign).
    """
    entry = classification_entry(algebra_id)
    if entry.verdict == "always":
        raise ValueError(f"{algebra_id} is always feasible; no off-family samples")
    if entry.verdict == "never":
        return draw_admissible_sample(get_algebra(algebra_id), rng)
    sample = dict(draw_on_family_sample(algebra_id, rng))
    name = rng.choice(entry.pinned)
    delta = _delta(rng)
    constraints = get_algebra(algebra_id).constraint_map()
    relation = constraints[name].relation if name in constraints else "free"
    if relation == "free":
        sample[name] = sample[name] + (-delta if rng.random() < 0.5 else delta)
    else:
        sample[name] = sample[name] + delta
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
        status = "ok" if self.passed else f"FAIL ({len(self.failures)} counterexamples)"
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

    'always' entries expect every drawn admissible sample feasible (both
    counts contribute); 'never' entries expect every admissible sample
    infeasible; 'family' entries expect on-family samples feasible and
    perturbed off-family samples infeasible.
    """
    entry = classification_entry(algebra_id)
    g = get_algebra(algebra_id)
    rng = random.Random(seed)
    expectations: list[tuple[Mapping[str, object], bool]] = []
    if entry.verdict != "family":
        feasible = entry.verdict == "always"
        for _ in range(on_family_samples + off_family_samples):
            expectations.append((draw_admissible_sample(g, rng), feasible))
    else:
        for _ in range(on_family_samples):
            expectations.append((draw_on_family_sample(algebra_id, rng), True))
        for _ in range(off_family_samples):
            expectations.append((draw_off_family_sample(algebra_id, rng), False))

    failures: list[SampleFailure] = []
    feasible_checked = 0
    infeasible_checked = 0
    for sample, expect_feasible in expectations:
        verdict = numeric_soliton_oracle(g, sample)
        if verdict.feasible:
            feasible_checked += 1
        else:
            infeasible_checked += 1
        if verdict.feasible != expect_feasible:
            failures.append(
                SampleFailure(
                    _freeze_sample(sample),
                    "feasible" if expect_feasible else "infeasible",
                    verdict.status,
                )
            )
    return VerificationReport(
        algebra_id,
        entry.verdict,
        feasible_checked,
        infeasible_checked,
        tuple(failures),
    )
