"""The pipeline on generated algebras of dimension 3..9 whose answer is known.

Random two-step tables: the basis splits as V1 + V2 with [V1, V1] in V2
and V2 central, so every double bracket vanishes and the Jacobi identity
holds by construction.  Each nonzero bracket coordinate is its own free
parameter times a small integer (a small fraction in
fractional_two_step_tables), so the symbolic Ricci matrix and the
candidate residuals can be compared with the sympy recomputation of
tests/sympy_oracle.py, which runs over a sparse polynomial ring read from
the entry table, and the oracle can be run at samples.

The Heisenberg algebras H_{2k+1}, [v_i, v_{k+i}] = a_i v_{2k+1}, have a
closed-form answer (Lauret, Math. Ann. 319, 2001): Ric - mu*Id is a
derivation exactly when all a_i^2 are equal, and then mu = -(k+2)/2 * a^2.

The filiform tables [v1, vi] = a_i v_{i+1} have an irrational family: on
the ray of filiform_ray the oracle must find the nilsoliton in Q(sqrt 3)
(n = 5) or Q(sqrt 6) (n = 6), and off it none.  For n = 7, 8, 9 the ray
needs several radicands, and the sympy ring shows it is the only solution.

Every table above is strictly triangular ([v_i, v_j] in span(v_k : k >
max(i, j))), the shape on which liealg.entries_are_nilpotent, and so the
oracle, skips the lower central series; the sympy series confirms those
tables nilpotent, and conjugated tables check that the series still runs,
and still rejects, everywhere else.

Sample values stay small (|numerator| <= 4, denominator <= 3) because the
float oracle compares against an absolute tolerance that is not
scale-aware; exact statuses do not depend on the scale.  The tests of the
integer routes, which never run float mode, also draw values with large
coprime denominators and float values, at scales 10^-6 .. 10^6.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

import reference_data
from nilschouten import liealg
from nilschouten.catalog import (
    ALGEBRA_IDS,
    classification_entry,
    draw_admissible_sample,
    draw_off_family_sample,
    draw_on_family_sample,
    get_algebra,
)
from nilschouten.curvature import (
    ricci_nilpotent_from_entries,
    ricci_operator,
    ricci_tensor_nilpotent,
    scalar_curvature,
    scaled_ricci,
)
from nilschouten.liealg import (
    MetricLieAlgebra,
    entries_are_nilpotent,
    entries_nilpotency_step,
    mat_trace,
)
from nilschouten.quadfield import QuadRat
from nilschouten.ratpoly import Polynomial
from nilschouten.soliton import (
    NotNilpotentAtSampleError,
    _minus_mu,
    _nilpotent_entries,
    candidate_derivation,
    derivation_residual,
    numeric_soliton_oracle,
    obstruction_system,
    schouten_like_check,
)
from sympy_oracle import (
    at_sample,
    oracle_ring,
    poly_to_ring,
    sympy_candidate_residuals,
    sympy_nilsoliton_constant,
    sympy_ricci,
    sympy_scalar,
)

P = Polynomial.parameter
C = Polynomial.constant

small_values = st.builds(
    Fraction,
    st.integers(1, 4) | st.integers(-4, -1),
    st.integers(1, 3),
)


@st.composite
def two_step_tables(draw, scales=(1, -1, 2, -2)) -> MetricLieAlgebra:
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
        scale = draw(st.sampled_from(scales))
        brackets.setdefault((i, j), {})[k] = scale * P(f"p{m}")
    return MetricLieAlgebra.from_brackets(n, brackets, label=f"two-step dim {n}")


@st.composite
def tables_with_samples(draw) -> tuple[MetricLieAlgebra, dict]:
    g = draw(two_step_tables())
    return g, {name: draw(small_values) for name in g.parameters()}


def assert_nilsoliton_constant(g: MetricLieAlgebra, sample: dict, mu) -> None:
    """A feasible exact witness mu is tr(Ric^2)/scal, computed by sympy."""
    assert sp.expand(sympy_nilsoliton_constant(g, sample) - sympy_scalar(mu)) == 0


def heisenberg(k: int) -> MetricLieAlgebra:
    n = 2 * k + 1
    brackets = {(i, k + i): {n: P(f"a{i}")} for i in range(1, k + 1)}
    return MetricLieAlgebra.from_brackets(n, brackets, label=f"H{n}")


# structure constants whose 4*Ric and system coefficients are not all integers
fractional_two_step_tables = two_step_tables(
    scales=(Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(3))
)


def assert_ricci_matches_sympy(g: MetricLieAlgebra) -> None:
    R = oracle_ring(g.parameters())
    assert sympy_ricci(g) == [[poly_to_ring(x, R) for x in row] for row in ricci_tensor_nilpotent(g)]


@settings(max_examples=15, deadline=None)
@given(two_step_tables())
def test_symbolic_pipeline_matches_sympy(g):
    assert_ricci_matches_sympy(g)
    R = oracle_ring(g.parameters())
    residuals = sympy_candidate_residuals(g)
    for pair, vec in derivation_residual(g, candidate_derivation(g).matrix):
        assert residuals[pair] == [poly_to_ring(x, R) for x in vec], pair


@settings(max_examples=60, deadline=None)
@given(tables_with_samples(), st.sampled_from((Fraction(2), Fraction(-1, 3), Fraction(5, 2))))
def test_oracle_modes_agree_and_scale(table, t):
    g, sample = table
    exact = numeric_soliton_oracle(g, sample)
    assert numeric_soliton_oracle(g, sample, mode="float").status == exact.status
    scaled_sample = {name: t * v for name, v in sample.items()}
    scaled = numeric_soliton_oracle(g, scaled_sample)
    assert scaled.status == exact.status
    if exact.feasible:
        assert_nilsoliton_constant(g, sample, exact.witness_mu)
        assert_nilsoliton_constant(g, scaled_sample, scaled.witness_mu)
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
    assert_nilsoliton_constant(g, sample, verdict.witness_mu)
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


# -- bitwise symmetry of the evaluated Ricci matrix ---------------------------------


def _small_value(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, 2, 3, 4, -1, -2, -3, -4)), rng.randint(1, 3))


def _two_step(n: int, rng: random.Random) -> tuple[MetricLieAlgebra, dict]:
    """A random two-step table of dimension n, drawn as two_step_tables
    draws it, with a small sample."""
    p = rng.randint(2, n - 1)
    slots = [
        (i, j, k)
        for i in range(1, p + 1)
        for j in range(i + 1, p + 1)
        for k in range(p + 1, n + 1)
    ]
    brackets: dict = {}
    for m, (i, j, k) in enumerate(sorted(rng.sample(slots, rng.randint(1, min(6, len(slots)))))):
        brackets.setdefault((i, j), {})[k] = rng.choice((1, -1, 2, -2)) * P(f"p{m}")
    g = MetricLieAlgebra.from_brackets(n, brackets, label=f"two-step dim {n}")
    return g, {name: _small_value(rng) for name in g.parameters()}


def _symmetry_cases():
    """Catalog draws (admissible, on- and off-family, in Q, Q(sqrt 2),
    Q(sqrt 3) and Q(sqrt 6)), H_3..H_9 and random two-step tables of
    dimension 3..9."""
    rng = random.Random(5)
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        samples = [draw_admissible_sample(g, rng) for _ in range(3)]
        if classification_entry(algebra_id).verdict == "family":
            samples += [draw_on_family_sample(algebra_id, rng) for _ in range(3)]
            samples += [draw_off_family_sample(algebra_id, rng) for _ in range(3)]
        yield from ((g, sample) for sample in samples)
    for k in range(1, 5):
        yield heisenberg(k), {f"a{i}": _small_value(rng) for i in range(1, k + 1)}
    for n in range(3, 10):
        yield _two_step(n, rng)


def _float_ricci(entries: list, n: int) -> list:
    """-1/2 sum c_ilk c_jlk + 1/4 sum c_abi c_abj in floats, each pair of
    entries sharing their last (first) two indices added in the order the
    package's kernel adds it, the upper triangle mirrored."""
    ric = [[0.0] * n for _ in range(n)]
    for weight, key, index in ((-0.5, slice(1, 3), 0), (0.25, slice(0, 2), 2)):
        groups: dict = {}
        for entry in entries:
            groups.setdefault(entry[key], []).append((entry[index], entry[3]))
        for group in groups.values():
            for p, (i, x) in enumerate(group):
                for j, y in group[p:]:
                    ric[i][j] = ric[i][j] + weight * (x * y)
    return [[ric[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def test_evaluated_ricci_is_bitwise_symmetric():
    # The Ricci kernel adds the same terms in the same order to ric[i][j] and
    # ric[j][i], so Ric and D = Ric - mu*Id are symmetric bit for bit (repr
    # tells every float and every exact value apart), which is why
    # schouten_like_check does not re-test the symmetry of D.  The float
    # matrix, summed as 4*Ric with the weights -2 and 1 and divided by 4, is
    # bit for bit the sum with the weights -1/2 and 1/4.
    radicands = set()
    for g, sample in _symmetry_cases():
        radicands |= {v.m for v in sample.values() if isinstance(v, QuadRat) and v.b}
        for t in (Fraction(1, 10**6), Fraction(1, 10**3), Fraction(1), Fraction(10**3), Fraction(10**6)):
            scaled = {name: t * v for name, v in sample.items()}
            entries = _nilpotent_entries(g, scaled)
            exact = ricci_nilpotent_from_entries(entries, g.dim, Fraction(0))
            table = [(i, j, k, float(x)) for i, j, k, x in entries]
            rounded = ricci_nilpotent_from_entries(table, g.dim, 0.0)
            assert [list(map(repr, row)) for row in rounded] == [
                list(map(repr, row)) for row in _float_ricci(table, g.dim)
            ], (g.label, scaled)
            for mode, ric in (("exact", exact), ("float", rounded)):
                for m in (ric, _minus_mu(ric, mat_trace(ric))):
                    assert all(
                        repr(m[i][j]) == repr(m[j][i]) for i in range(g.dim) for j in range(i)
                    ), (g.label, scaled, mode)
    assert radicands == {2, 3, 6}


# -- the integer routes on rational tables -----------------------------------------

SCALES = tuple(Fraction(10) ** e for e in (-6, -3, 0, 3, 6))
# pairwise coprime, so a table's common denominator is a product of several
large_coprime_values = st.builds(
    Fraction,
    st.integers(-(10**12), 10**12).filter(bool),
    st.sampled_from((10**9 + 7, 10**9 + 9, 998244353, 2**61 - 1)),
)
# read as the exact rational each holds, whose denominator is a power of two
float_values = st.floats(min_value=-4.0, max_value=4.0).filter(lambda x: abs(x) > 1e-3)
generated_tables = two_step_tables() | st.integers(1, 4).map(heisenberg)


def _with_sample(values):
    return generated_tables.flatmap(
        lambda g: st.tuples(st.just(g), st.fixed_dictionaries(dict.fromkeys(g.parameters(), values)))
    )


def _scaled(sample: dict, t: Fraction) -> dict:
    """t times every value, a float value staying a float."""
    return {name: v * float(t) if isinstance(v, float) else v * t for name, v in sample.items()}


@settings(max_examples=60, deadline=None)
@given(_with_sample(small_values | large_coprime_values | float_values), st.sampled_from(SCALES))
def test_integer_ricci_matches_symbolic_ricci(table, t):
    # the evaluated table holds Fractions, so Ricci takes the integer route
    g, sample = table
    sample = _scaled(sample, t)
    entries = g.evaluate_entries(sample)
    assert all(type(x) is int for *_, x in scaled_ricci(entries, g.dim, Fraction(0))[1])
    exact = {name: Fraction(v) for name, v in sample.items()}
    expected = [[entry.evaluate(exact) for entry in row] for row in ricci_operator(g)]
    ric = ricci_nilpotent_from_entries(entries, g.dim, Fraction(0))
    assert ric == expected
    assert all(type(x) is Fraction for row in ric for x in row)


def _assert_witness_checks(g: MetricLieAlgebra, sample: dict, seen: dict) -> None:
    """schouten_like_check is True at the oracle's witness mu and False at
    mu + 1/7, mu given as a Fraction, a rational QuadRat, an int (where mu
    is one) and a float (where the float is mu exactly); at a rational
    sample it also runs scaled by mu's denominator, where the witness is an
    integer, and by sqrt(2), where the table holds QuadRats and is summed
    in their ring.  An empty evaluated table admits every mu and is
    skipped."""
    if not g.evaluate_entries(sample):
        return
    mu = numeric_soliton_oracle(g, sample).witness_mu
    if isinstance(mu, QuadRat):
        seen["quadratic"] += 1
        assert schouten_like_check(g, sample, mu)
        assert not schouten_like_check(g, sample, mu + Fraction(1, 7))
        return
    seen["rational"] += 1
    off = mu + Fraction(1, 7)
    givens = [mu, QuadRat.from_rational(mu)]
    if mu.denominator == 1:
        givens.append(int(mu))
        seen["int"] += 1
    if float(mu) == mu:
        givens.append(float(mu))
        seen["float"] += 1
    for given in givens:
        assert schouten_like_check(g, sample, given), (g.label, sample, given)
    for given in (off, float(off), QuadRat.from_rational(off)):
        assert not schouten_like_check(g, sample, given), (g.label, sample, given)
    if mu.denominator != 1:
        _assert_witness_checks(g, _scaled(sample, Fraction(mu.denominator)), seen)
    elif not any(isinstance(v, float) for v in sample.values()):
        root2 = {name: QuadRat.sqrt(2) * v for name, v in sample.items()}
        assert numeric_soliton_oracle(g, root2).witness_mu == 2 * mu
        assert schouten_like_check(g, root2, 2 * mu)
        assert not schouten_like_check(g, root2, 2 * mu + Fraction(1, 7))
        _assert_witness_checks(g, root2, seen)


def test_integer_schouten_check_at_catalog_witnesses():
    seen = dict.fromkeys(("rational", "quadratic", "int", "float"), 0)
    rng = random.Random(16)
    for algebra_id in ALGEBRA_IDS:
        g = get_algebra(algebra_id)
        samples = [draw_admissible_sample(g, rng) for _ in range(4)]
        if classification_entry(algebra_id).verdict == "family":
            samples += [draw_on_family_sample(algebra_id, rng) for _ in range(4)]
        for sample in samples:
            if numeric_soliton_oracle(g, sample).feasible:
                _assert_witness_checks(g, sample, seen)
    assert min(seen.values()) >= 10, seen


@settings(max_examples=60, deadline=None)
@given(_with_sample(small_values | float_values))
def test_integer_schouten_check_at_generated_witnesses(table):
    g, sample = table
    seen = dict.fromkeys(("rational", "quadratic", "int", "float"), 0)
    if numeric_soliton_oracle(g, sample).feasible:
        _assert_witness_checks(g, sample, seen)


# -- nilpotency against a sympy lower central series ------------------------------


def _sympy_tensor(n: int, brackets: dict, sample: dict) -> list:
    """Dense sympy c[i][j][k] of a 1-based bracket table evaluated at the sample."""
    R = oracle_ring(sample)
    c = [[[sp.Integer(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), coords in brackets.items():
        for k, poly in coords.items():
            value = at_sample(poly_to_ring(poly, R), sample)
            c[i - 1][j - 1][k - 1] = value
            c[j - 1][i - 1][k - 1] = -value
    return c


def sympy_nilpotency_step(c: list) -> int | None:
    """Lower central series g^(s+1) = [g, g^s] by sympy ranks of dense brackets.

    The columns of ad_i * W are the brackets [v_i, w] with the columns w
    of W spanning g^s.
    """
    n = len(c)
    ads = [sp.Matrix(n, n, lambda k, j, i=i: c[i][j][k]) for i in range(n)]
    current = sp.eye(n)
    step = 0
    while True:
        step += 1
        spanning = sp.Matrix.hstack(*[ad * current for ad in ads]).columnspace()
        if not spanning:
            return step
        if len(spanning) >= current.cols:
            return None
        current = sp.Matrix.hstack(*spanning)


def _conjugated(n: int, brackets: dict, rng: random.Random) -> dict:
    """The table in the basis f_a = sum_i P[i][a] v_i of a random invertible P."""
    c = _sympy_tensor(n, brackets, {})
    while True:
        p = sp.Matrix(n, n, lambda i, a: rng.randint(-3, 3))
        if p.det() != 0:
            break
    inverse = p.inv()
    out: dict = {}
    for a in range(n):
        for b in range(a + 1, n):
            image = sp.Matrix([
                sum(p[i, a] * p[j, b] * c[i][j][k] for i in range(n) for j in range(n))
                for k in range(n)
            ])
            coords = inverse * image
            for d in range(n):
                if coords[d] != 0:
                    value = Fraction(int(sp.numer(coords[d])), int(sp.denom(coords[d])))
                    out.setdefault((a + 1, b + 1), {})[d + 1] = C(value)
    return out


def filiform(n: int, coefficients) -> dict:
    """[v1, vi] = c_i v_{i+1} for i = 2 .. n-1: step n - 1 when every c_i != 0."""
    return {(1, i): {i + 1: coeff} for i, coeff in zip(range(2, n), coefficients)}


def _certified(g: MetricLieAlgebra, sample: dict) -> bool:
    """entries_are_nilpotent decides the table at the sample without
    running the lower central series."""
    calls = []

    def counted(entries, n):
        calls.append(n)
        return entries_nilpotency_step(entries, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liealg, "entries_nilpotency_step", counted)
        nilpotent = entries_are_nilpotent(g.evaluate_entries(sample), g.dim)
    assert nilpotent == (g.nilpotency_step(sample) is not None)
    return not calls


def _assert_step(n: int, brackets: dict, sample: dict, expected) -> MetricLieAlgebra:
    """The step against sympy, and the oracle's two entry points on the table:
    a verdict when it is nilpotent, NotNilpotentAtSampleError when not."""
    g = MetricLieAlgebra.from_brackets(n, brackets)
    assert sympy_nilpotency_step(_sympy_tensor(n, brackets, sample)) == expected
    assert g.nilpotency_step(sample) == expected
    if expected is None:
        for mode in ("exact", "float"):
            with pytest.raises(NotNilpotentAtSampleError):
                numeric_soliton_oracle(g, sample, mode=mode)
        with pytest.raises(NotNilpotentAtSampleError):
            schouten_like_check(g, sample, Fraction(0))
        return g
    exact = numeric_soliton_oracle(g, sample)
    assert numeric_soliton_oracle(g, sample, mode="float").status == exact.status
    mu = exact.witness_mu if exact.feasible else Fraction(0)
    assert schouten_like_check(g, sample, mu) == exact.feasible
    return g


_RNG = random.Random(5)
FILIFORM = [
    filiform(n, [C(Fraction(_RNG.choice((1, -1)) * _RNG.randint(1, 5), _RNG.randint(1, 3)))
                 for _ in range(n - 2)])
    for n in range(3, 10)
]
SL2 = {(1, 2): {2: C(2)}, (1, 3): {3: C(-2)}, (2, 3): {1: C(1)}}
SOLVABLE_PLUS_CENTER = {(1, 2): {2: C(1)}}


@pytest.mark.parametrize("brackets", FILIFORM, ids=lambda b: f"n{len(b) + 2}")
def test_nilpotency_step_filiform_matches_sympy(brackets):
    n = len(brackets) + 2
    assert _certified(_assert_step(n, brackets, {}, n - 1), {})


@pytest.mark.parametrize("brackets", FILIFORM, ids=lambda b: f"n{len(b) + 2}")
def test_nilpotency_step_conjugated_filiform_matches_sympy(brackets):
    # not triangular: the oracle runs the lower central series
    n = len(brackets) + 2
    conjugated = _conjugated(n, brackets, random.Random(n))
    assert any(len(coords) > 1 for coords in conjugated.values())
    assert not _certified(_assert_step(n, conjugated, {}, n - 1), {})


def test_nilpotency_step_quadratic_sample_matches_sympy():
    # c_3 = alpha^2 - 2 vanishes at alpha = sqrt(2), which cuts [v1, v3] = c_3 v4
    alpha, gamma = P("alpha"), P("gamma")
    brackets = filiform(6, [gamma, alpha * alpha - 2, alpha, gamma + alpha])
    root2 = QuadRat.sqrt(2)
    _assert_step(6, brackets, {"alpha": root2 + 1, "gamma": root2}, 5)
    _assert_step(6, brackets, {"alpha": root2, "gamma": root2 * 3}, 3)


def test_nilpotency_step_conjugated_split_filiform_matches_sympy():
    brackets = filiform(6, [C(x) for x in (1, 2, 0, 1)])
    g = _assert_step(6, _conjugated(6, brackets, random.Random(9)), {}, 3)
    assert not _certified(g, {})


@pytest.mark.parametrize("brackets, n", [(SL2, 3), (SOLVABLE_PLUS_CENTER, 3)], ids=["sl2", "solvable+center"])
def test_nilpotency_step_stabilizing_series_matches_sympy(brackets, n):
    # sl2 = [sl2, sl2]; [v1, v2] = v2 stabilizes at span(v2) != 0
    _assert_step(n, brackets, {}, None)
    _assert_step(n, _conjugated(n, brackets, random.Random(3)), {}, None)


# -- irrational filiform families, known by construction ---------------------------


def filiform_ray_squares(n: int) -> list:
    """a_i^2 / a_2^2 = (i-1)(n-i)/(n-2) for i = 2 .. n-1.

    Ric of the filiform table [v1, vi] = a_i v_{i+1} is diagonal, and
    Ric - mu*Id is a derivation exactly when a_i^2 = (i-1)(n-i)/(n-2) * a_2^2
    (solved in sympy for n = 4, 5, 6 and, by the test below, n = 7, 8, 9;
    not checked against the literature).
    """
    return [Fraction((i - 1) * (n - i), n - 2) for i in range(2, n)]


def filiform_ray(n: int) -> list:
    """a_i / a_2 on the ray: in Q(sqrt 3) for n = 5 and in Q(sqrt 6) for n = 6."""
    return [QuadRat.sqrt(square) for square in filiform_ray_squares(n)]


def _filiform_oracle(n: int, values: list) -> tuple[MetricLieAlgebra, dict, object]:
    coefficients = [P(f"a{i}") for i in range(2, n)]
    g = MetricLieAlgebra.from_brackets(n, filiform(n, coefficients), label=f"filiform dim {n}")
    sample = {f"a{i}": v for i, v in zip(range(2, n), values)}
    return g, sample, numeric_soliton_oracle(g, sample)


sign_lists = st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((5, 6)), small_values, sign_lists)
@example(5, Fraction(3), [1, 1, 1, 1])  # (3, 2*sqrt(3), 3), mu = -18
@example(6, Fraction(2), [1, 1, 1, 1])  # (2, sqrt(6), sqrt(6), 2), mu = -11
def test_filiform_ray_in_quadratic_fields_is_a_nilsoliton(n, scale, signs):
    values = [sign * scale * root for sign, root in zip(signs, filiform_ray(n))]
    assert {v.m for v in values if v.b} == {3 if n == 5 else 6}
    g, sample, verdict = _filiform_oracle(n, values)
    assert verdict.feasible
    assert_nilsoliton_constant(g, sample, verdict.witness_mu)
    values[1] += Fraction(1, 1000)  # a_3 off the ray
    assert _filiform_oracle(n, values)[2].status == "infeasible"


@pytest.mark.parametrize(
    "n, mu", [(7, Fraction(-37, 10)), (8, Fraction(-29, 6)), (9, Fraction(-43, 7))], ids=["n7", "n8", "n9"]
)
def test_filiform_ray_is_the_only_solution_by_sympy(n, mu):
    # For n >= 7 the a_i need two or more radicands, beyond QuadRat, so the
    # ray is solved in the sympy ring.  At lambda0 = 0, c = mu the residual of
    # [v1, vi] = a_i v_{i+1} is a_i times a form linear in the a_j^2 and mu
    # (Ric is diagonal); at a_2 = 1 the n - 2 forms pin (a_3^2 .. a_{n-1}^2, mu).
    g = MetricLieAlgebra.from_brackets(n, filiform(n, [P(f"a{i}") for i in range(2, n)]))
    R = oracle_ring(g.parameters())
    gens = dict(zip(map(str, R.symbols), R.gens))
    unknowns = [gens[f"a{i}"] ** 2 for i in range(3, n)] + [gens["c"]]
    rows = []
    for pair, residual in sympy_candidate_residuals(g).items():
        for k, coordinate in enumerate(residual, start=1):
            coordinate = coordinate.subs(gens["lambda0"], 0)
            if coordinate:
                assert pair == (1, k - 1)
                form = coordinate.exquo(gens[f"a{k - 1}"]).subs(gens["a2"], 1)
                row = [form.coeff(u) for u in unknowns] + [form.coeff(1)]
                assert form == sum(x * u for x, u in zip(row, unknowns)) + row[-1]
                rows.append([QQ.to_sympy(x) for x in row])
    system = sp.Matrix(rows)
    matrix, constants = system[:, :-1], -system[:, -1]
    assert matrix.shape == (n - 2, n - 2) and matrix.det() != 0
    expected = filiform_ray_squares(n)[1:] + [mu]
    assert list(matrix.LUsolve(constants)) == [sympy_scalar(x) for x in expected]


# -- triangular tables, whose nilpotency the oracle does not re-prove ------------


def _brackets_of(g: MetricLieAlgebra) -> dict:
    """1-based bracket data {(i, j): {k: c[i][j][k]}}, i < j, of an algebra."""
    out: dict = {}
    for i, j, k, entry in g.entries:
        if i < j:
            out.setdefault((i + 1, j + 1), {})[k + 1] = entry
    return out


def _assert_certified_step(g: MetricLieAlgebra, sample: dict) -> None:
    assert _certified(g, sample)
    step = g.nilpotency_step(sample)
    assert step is not None
    assert step == sympy_nilpotency_step(_sympy_tensor(g.dim, _brackets_of(g), sample))


@pytest.mark.parametrize("algebra_id", ALGEBRA_IDS)
def test_triangular_catalog_tables_are_nilpotent(algebra_id):
    # admissible samples, and the same samples with every free parameter at 0
    g = get_algebra(algebra_id)
    free = {c.name: Fraction(0) for c in g.constraints if c.relation == "free"}
    for seed in range(3):
        sample = draw_admissible_sample(g, random.Random(seed))
        _assert_certified_step(g, sample)
        _assert_certified_step(g, {**sample, **free})


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.lists(small_values, min_size=4, max_size=4))
def test_triangular_heisenberg_tables_are_nilpotent(k, values):
    _assert_certified_step(heisenberg(k), {f"a{i}": values[i - 1] for i in range(1, k + 1)})


@settings(max_examples=20, deadline=None)
@given(tables_with_samples())
def test_triangular_two_step_tables_are_nilpotent(table):
    _assert_certified_step(*table)


# -- the symbolic output stream ----------------------------------------------------


def symbolic_stream_algebras():
    """H_3..H_9, then for each dimension 6..9 three random two-step tables and
    one filiform table with a signed parameter per coefficient."""
    rng = random.Random(11)
    algebras = [heisenberg(k) for k in range(1, 5)]
    for n in range(6, 10):
        algebras += [_two_step(n, rng)[0] for _ in range(3)]
        coefficients = [rng.choice((1, -1, 2, -2)) * P(f"f{i}") for i in range(2, n)]
        algebras.append(
            MetricLieAlgebra.from_brackets(n, filiform(n, coefficients), label=f"filiform dim {n}")
        )
    return algebras


def symbolic_record(g: MetricLieAlgebra) -> tuple:
    """Label, Ricci rows, scalar curvature and system lines, as rendered text."""
    system = obstruction_system(g)
    return (
        g.label,
        tuple(" ; ".join(str(x) for x in row) for row in ricci_operator(g)),
        str(scalar_curvature(g)),
        tuple(
            f"{i} {j} {k} : {poly}"
            for poly, ((i, j), k) in zip(system.generators, system.provenance)
        ),
    )


def test_symbolic_outputs_are_pinned():
    records = [symbolic_record(g) for g in symbolic_stream_algebras()]
    assert len(records) == len(reference_data.SYMBOLIC_STREAM)
    for record, expected in zip(records, reference_data.SYMBOLIC_STREAM):
        assert record == expected, record[0]


# -- the one-triangle Ricci kernel and the affine-split system, by other routes ----


def system_by_public_route(g: MetricLieAlgebra) -> tuple:
    """Generators and provenance collected from derivation_residual on the
    explicit candidate D = Ric - (lambda0*s + c)*Id, deduplicated by a list scan."""
    generators: list = []
    provenance: list = []
    for pair, residual in derivation_residual(g, candidate_derivation(g).matrix):
        for k, coordinate in enumerate(residual, start=1):
            if coordinate:
                normalized = coordinate.sign_normalized()
                if normalized not in generators:
                    generators.append(normalized)
                    provenance.append((pair, k))
    return tuple(generators), tuple(provenance)


def assert_symbolic_kernels_agree(g: MetricLieAlgebra) -> None:
    scal = scalar_curvature(g)
    assert scal == mat_trace(ricci_operator(g))
    assert poly_to_ring(scal, oracle_ring(g.parameters())) == sum(r[i] for i, r in enumerate(sympy_ricci(g)))
    system = obstruction_system(g)
    assert (system.generators, system.provenance) == system_by_public_route(g)


@settings(max_examples=15, deadline=None)
@given(two_step_tables())
def test_scalar_curvature_and_system_match_public_routes(g):
    assert_symbolic_kernels_agree(g)


@settings(max_examples=15, deadline=None)
@given(fractional_two_step_tables)
def test_fractional_tables_match_sympy_and_public_routes(g):
    assert_ricci_matches_sympy(g)
    assert_symbolic_kernels_agree(g)


def test_stream_scalar_curvature_and_system_match_public_routes():
    for g in symbolic_stream_algebras():
        assert_symbolic_kernels_agree(g)
