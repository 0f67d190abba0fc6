"""Schouten-like metrics, algebraic Schouten solitons and nilsolitons.

The candidate endomorphism is D = Ric - (lambda0*s + c)*Id with s the
scalar curvature and lambda0, c treated as fresh polynomial parameters
(serialized "lambda0" and "c").  The metric is Schouten-like exactly when
D is a derivation, i.e. every residual

    D[v_i, v_j] - [D v_i, v_j] - [v_i, D v_j]

vanishes.  Collecting the nonzero residual coordinates, sign-normalized
and deduplicated, yields the obstruction system: a finite set of
polynomials in the structure parameters together with lambda0 and c whose
common real vanishing (at admissible parameter values) characterizes the
algebraic Schouten solitons.

The numeric oracle is deliberately independent of any per-algebra case
analysis.  At a sample, lambda0 and c enter only through mu = lambda0*s + c,
and for fixed real s that combination ranges over all reals; so existence
of (lambda0, c) is equivalent to existence of a single real mu with
Ric - mu*Id a derivation (nilsolitons are the same question, being the
lambda0 = 0 special case).  With D = Ric - mu*Id the residual of the pair
(i, j) is affine in mu:

    residual_ij(mu) = residual_ij(Ric) + mu * [v_i, v_j]

because Id[X, Y] - [Id X, Y] - [X, Id Y] = -[X, Y].  Stacking all
coordinates gives an overdetermined linear problem r0 + mu*r1 = 0: any
nonzero coordinate of r1 pins the unique candidate mu, and checking the
remaining coordinates decides feasibility exactly.  The oracle's float
mode instead takes the least-squares mu and compares the residual norm
against an absolute tolerance of 1e-10, which is not scale-aware: the
residual has degree 3 in the structure constants, so small constants can
pass it while exact mode says infeasible (A5_1 at alpha = gamma =
3/10^4, beta = 10^-13), and large ones can fail it on rounding alone.
Past the float range the norm reads math.inf, and float mode answers
infeasible there, as it does where an entry does not fit a float.  It is
the one place where float arithmetic decides anything: everything else,
schouten_like_check included, decides exactly, and a float sample value
is read as the exact rational it holds (MetricLieAlgebra.evaluate_entries).

One ring-generic residual kernel serves all three uses.  Over Polynomials
the obstruction system takes the oracle's affine split of 4*D, with
4*(lambda0*s + c) in place of mu, r0 being the residual of 4*Ric rather
than of D's many-term diagonal; over the evaluated entry table it yields r0 for
the oracle; and schouten_like_check runs it on its own explicit
D = Ric - mu*Id, not on the oracle's affine split r0 + mu*r1, which their
agreement therefore tests.  That is the check's only test: Ric = mu*Id + D
is how D is formed, and Ric and D are symmetric because the Ricci kernel
computes one triangle and mirrors it.  The oracle sees only the evaluated
entry table (the nonzero structure constants at the sample,
MetricLieAlgebra.evaluate_entries), never the symbolic system;
sympy and the brute-force mu grid in the tests remain the independent
routes, and the tests also collect the system from derivation_residual on
the explicit candidate D.  r1 is nonzero only at the table's entries, so
the exact check multiplies mu only into those coordinates.

Where the arithmetic runs in ints: curvature.scaled_ricci alone knows how
a table's scalar ring is summed, and returns (t, X, t*Ric).  The system is
built from it, as 4*Ric over Polynomials, integral on an integer table,
and sign normalization removes the factor 4.  On a table of Fractions (a
rational or float sample) X and t*Ric are ints: the oracle's Ricci
operator divides them once, and schouten_like_check runs the residual
kernel on X and on an integer multiple of D for every rational mu (its
docstring).  QuadRat and float tables are summed in their own ring by the
same call.  The exact oracle's own residual, decision and Ric - mu*Id stay
in Fraction arithmetic for now: the benchmark estimates the oracle's own
time as its total minus separately timed stages, only a few hundredths of
a millisecond above zero on catalog samples, so a speed-up confined to the
oracle would drive it negative and fail the benchmark's self-test.

Every oracle call first confirms, with liealg.entries_are_nilpotent, that
the evaluated algebra is nilpotent, and raises NotNilpotentAtSampleError
when it is not; the catalog forms are written in a basis whose table
certifies it by its shape, without the lower central series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping

from .curvature import ricci_nilpotent_from_entries, ricci_operator, scaled_ricci
from .liealg import (
    InvalidAlgebraError,
    Matrix,
    MetricLieAlgebra,
    Vector,
    entries_are_nilpotent,
    mat_is_symmetric,
    mat_trace,
)
from .quadfield import QuadRat
from .ratpoly import Polynomial

LAMBDA0 = "lambda0"
SOLITON_CONSTANT = "c"

FLOAT_TOLERANCE = 1e-10


class NotNilpotentAtSampleError(ValueError):
    """The evaluated algebra is not nilpotent, so the two-term Ricci formula
    (and with it the soliton analysis) does not apply."""


@dataclass(frozen=True)
class CandidateDerivation:
    """Matrix of X -> (Ric - (lambda0*s + c) Id) X over the extended ring."""

    matrix: Matrix


@dataclass(frozen=True)
class ObstructionSystem:
    """Sign-normalized generators whose common vanishing is the soliton condition.

    ``provenance[k]`` records the 1-based bracket pair (i, j) and coordinate
    index of the residual the k-th generator was first collected from.
    """

    generators: tuple[Polynomial, ...]
    provenance: tuple[tuple[tuple[int, int], int], ...]

    def __len__(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class SolitonVerdict:
    """Outcome of the numeric feasibility decision at one sample.

    In exact mode ``witness_mu`` is a Fraction (or QuadRat for samples in a
    quadratic extension); in float mode it is a float.  ``residual_norm``
    is the Euclidean norm of the stacked residual at the best mu, reported
    as a float even when the decision itself was exact, and math.inf
    where that float computation overflows.
    """

    status: Literal["feasible", "infeasible"]
    witness_mu: object | None
    witness_d: Matrix | None
    residual_norm: float

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


# -- symbolic side -----------------------------------------------------------


def _shift(g: MetricLieAlgebra, ric: Matrix, scale: int) -> Polynomial:
    """scale*(lambda0*s + c) from ric = scale*Ric; neither name may be a parameter."""
    reserved = {LAMBDA0, SOLITON_CONSTANT}.intersection(g.parameters())
    if reserved:
        raise InvalidAlgebraError(
            f"algebra parameters collide with soliton constants: {sorted(reserved)}"
        )
    lambda0_s = Polynomial.parameter(LAMBDA0) * mat_trace(ric)
    return lambda0_s + Polynomial.parameter(SOLITON_CONSTANT) * scale


def _minus_mu(ric: Matrix, mu) -> Matrix:
    """Ric - mu*Id, mu a number or lambda0*s + c; off the diagonal
    ric[i][j] - (mu - mu) keeps mu's scalar type."""
    n = len(ric)
    zero = mu - mu
    return [[ric[i][j] - (mu if i == j else zero) for j in range(n)] for i in range(n)]


def candidate_derivation(g: MetricLieAlgebra) -> CandidateDerivation:
    """D = Ric - (lambda0*s + c) Id as a matrix over params + {lambda0, c}."""
    ric = ricci_operator(g)
    return CandidateDerivation(_minus_mu(ric, _shift(g, ric, 1)))


def derivation_residual(
    g: MetricLieAlgebra, d: Matrix
) -> list[tuple[tuple[int, int], Vector]]:
    """Residuals D[v_i,v_j] - [Dv_i,v_j] - [v_i,Dv_j] for every pair i < j.

    D is a derivation exactly when every residual vector vanishes.  Works
    for any square matrix over the algebra's polynomial ring, possibly
    extended by lambda0 and c.
    """
    _require_square(g, d)
    return _residuals(g.entries, d)


def _require_square(g: MetricLieAlgebra, d: Matrix) -> None:
    """Raise ValueError unless d is dim x dim."""
    n = g.dim
    if len(d) != n or any(len(row) != n for row in d):
        raise ValueError(f"derivation candidate must be {n}x{n}")


def _residuals(entries, d: Matrix) -> list[tuple[tuple[int, int], Vector]]:
    """The derivation residual of every pair i < j, from an entry table.

    Coordinate k of the (i, j) residual, in tensor indices:

        sum_l D[k][l]*c[i][j][l] - D[l][i]*c[l][j][k] - D[l][j]*c[i][l][k]

    Each nonzero entry x = c[a][b][m] adds its three terms: D[t][m]*x to
    coordinate t of pair (a, b), -D[a][t]*x to coordinate m of pair (t, b)
    and -D[b][t]*x to coordinate m of pair (a, t).  Zero factors of D are
    skipped by truthiness; the ring zero is d[0][0] - d[0][0].
    """
    n = len(d)
    zero = d[0][0] - d[0][0]
    out = {(i, j): [zero] * n for i in range(n) for j in range(i + 1, n)}
    for a, b, m, x in entries:
        for t in range(n):
            if a < b and d[t][m]:
                out[a, b][t] = out[a, b][t] + d[t][m] * x
            if t < b and d[a][t]:
                out[t, b][m] = out[t, b][m] - d[a][t] * x
            if a < t and d[b][t]:
                out[a, t][m] = out[a, t][m] - d[b][t] * x
    return [((i + 1, j + 1), residual) for (i, j), residual in out.items()]


def obstruction_system(g: MetricLieAlgebra) -> ObstructionSystem:
    """Collect, normalize and deduplicate the residuals of the candidate D.

    With (4, X, 4*Ric) from curvature.scaled_ricci on the Polynomial
    table, coordinate k of the residual of 4*D = 4*Ric - shift*Id, shift =
    4*(lambda0*s + c), is r0_k + shift*r1_k (the oracle's affine split), so
    the residual kernel runs on 4*Ric rather than on D's many-term diagonal;
    4 times D's coordinate, it sign-normalizes to the same generator.
    Generators keep the parameter prefactors of the raw residual
    coordinates (products like ``alpha*beta*gamma`` stay prefactored rather
    than being split), because that is what sign normalization of the
    residual coordinates produces.
    """
    scale, entries, ric = scaled_ricci(g.entries, g.dim, Polynomial.zero())
    shift = _shift(g, ric, scale)
    r0, r1 = _residual_parts(entries, ric)
    n = g.dim
    pairs = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)]
    found: dict[Polynomial, tuple[tuple[int, int], int]] = {}
    for index, (a, b) in enumerate(zip(r0, r1)):
        coordinate = a + shift * b if b else a
        if coordinate:
            found.setdefault(coordinate.sign_normalized(), (pairs[index // n], index % n + 1))
    return ObstructionSystem(tuple(found), tuple(found.values()))


def symmetric_derivation_check(g: MetricLieAlgebra, d: Matrix) -> bool:
    """Whether D is symmetric with respect to the metric, i.e. D == D^T
    entrywise (the basis is orthonormal)."""
    _require_square(g, d)
    return mat_is_symmetric(d)


# -- numeric oracle ----------------------------------------------------------


def _residual_parts(entries: list, ric: Matrix) -> tuple[list, list]:
    """r0 and r1 from an evaluated entry table, stacked pair by pair (i < j).

    Coordinate k of pair (i, j) sits at offset n*p + k, p being the pair's
    position in lexicographic order; r1 is c[i][j][k] there and 0 elsewhere
    (read only by truthiness and float()).
    """
    n = len(ric)
    r0 = [x for _, residual in _residuals(entries, ric) for x in residual]
    r1 = [0] * len(r0)
    for i, j, k, x in entries:
        if i < j:
            r1[n * (i * (2 * n - i - 1) // 2 + j - i - 1) + k] = x
    return r0, r1


def _least_squares_norm(r0: list, r1: list) -> tuple[float, float]:
    """Float least-squares mu and resulting residual norm for r0 + mu*r1,
    summed left to right (sum() compensates float rounding since 3.12).
    Where the sum of squares of a nonzero residual underflows to 0.0 or
    overflows to inf, the norm is math.hypot over the same float residual,
    which scales before squaring; a residual that is exactly zero reads 0.0
    without it.  Reads (nan, inf) where the computation overflows, raising
    or reading nan."""
    try:
        f0 = [float(x) for x in r0]
        f1 = [float(x) for x in r1]
        denom = dot = 0.0
        for a, b in zip(f0, f1):
            denom += b * b
            dot += a * b
        mu = 0.0 if denom == 0.0 else -dot / denom
        residual = [a + mu * b for a, b in zip(f0, f1)]
        squares = 0.0
        for r in residual:
            squares += r ** 2
    except OverflowError:
        return math.nan, math.inf
    norm = math.sqrt(squares)
    if norm in (0.0, math.inf) and any(residual):
        norm = math.hypot(*residual)
    return mu, math.inf if math.isnan(norm) else norm


def _nilpotent_entries(g: MetricLieAlgebra, sample: Mapping[str, object]) -> list:
    """The evaluated entry table at an admissible sample, after confirming
    that the algebra is nilpotent there."""
    entries = g.evaluate_entries(sample)
    if not entries_are_nilpotent(entries, g.dim):
        raise NotNilpotentAtSampleError(
            f"{g.label or 'algebra'} is not nilpotent at {dict(sample)}"
        )
    return entries


def numeric_soliton_oracle(
    g: MetricLieAlgebra,
    sample: Mapping[str, object],
    mode: Literal["exact", "float"] = "exact",
) -> SolitonVerdict:
    """Decide whether some real mu makes Ric - mu*Id a derivation at the sample.

    Exact mode pins mu from any nonzero bracket coordinate (mu = 0 if none:
    the table is then empty, and Ric and r0 vanish) and verifies the
    remaining linear conditions in rational (or quadratic-extension)
    arithmetic, with no tolerance.  Float mode solves the least-squares
    problem and accepts residual norms up to FLOAT_TOLERANCE.
    """
    exact = mode == "exact"
    if not exact and mode != "float":
        raise ValueError(f"unknown mode {mode!r}")
    entries = _nilpotent_entries(g, sample)
    zero = Fraction(0)
    if not exact:
        try:
            entries = [(i, j, k, float(x)) for i, j, k, x in entries]
        except OverflowError:
            return SolitonVerdict("infeasible", None, None, math.inf)
        zero = 0.0
    ric = ricci_nilpotent_from_entries(entries, g.dim, zero)
    r0, r1 = _residual_parts(entries, ric)
    if exact:
        mu = next((-a / b for a, b in zip(r0, r1) if b), zero)
        feasible = all(not (a + mu * b) if b else not a for a, b in zip(r0, r1))
        norm = 0.0 if feasible else _least_squares_norm(r0, r1)[1]
    else:
        mu, norm = _least_squares_norm(r0, r1)
        feasible = norm <= FLOAT_TOLERANCE
    if feasible:
        return SolitonVerdict("feasible", mu, _minus_mu(ric, mu), norm)
    return SolitonVerdict("infeasible", None, None, norm)


def schouten_like_check(g: MetricLieAlgebra, sample: Mapping[str, object], mu) -> bool:
    """Whether D := Ric - mu*Id is a derivation at the sample, decided exactly.

    Every residual D[v_i,v_j] - [Dv_i,v_j] - [v_i,Dv_j], from the oracle's
    kernel _residuals, must be zero.  One route serves every sample and
    every mu: with (t, X, t*Ric) from curvature.scaled_ricci, X being the
    table times a positive d (its common denominator, or 1), the kernel
    runs on X and on D' = q*(t*Ric) - t*p*Id = t*q*D for a rational
    mu = p/q (a float mu read as the exact rational it holds; a nan or inf
    mu holds none and raises ValueError first), or on
    D' = t*Ric - t*mu*Id = t*D for a QuadRat mu.  The residual is bilinear
    in the table and D, so it is a nonzero multiple of the unscaled one and
    vanishes exactly when that does; on a rational or float sample with a
    rational mu it runs in ints.  The decomposition Ric = mu*Id + D and
    the symmetry of D hold by construction (module docstring) and are not
    re-tested.  By the
    equivalence between Schouten-like metrics and algebraic Schouten
    solitons the answer must agree with the oracle's feasibility at the
    same mu; the acceptance suite checks exactly that.
    """
    if isinstance(mu, float) and not math.isfinite(mu):
        raise ValueError(f"mu = {mu} is not a finite number")
    scale, entries, ric = scaled_ricci(_nilpotent_entries(g, sample), g.dim, Fraction(0))
    if isinstance(mu, QuadRat):
        d_matrix = _minus_mu(ric, scale * mu)
    else:
        mu = Fraction(mu)
        ric = [[mu.denominator * x for x in row] for row in ric]
        d_matrix = _minus_mu(ric, scale * mu.numerator)
    return not any(any(residual) for _, residual in _residuals(entries, d_matrix))


# Ric in R*Id + Der(g): mu = lambda0*s + c sweeps all reals as c does, for
# any fixed lambda0, so the nilsoliton question (lambda0 = 0) has the
# oracle's answer; the name stays because the classification corollaries
# are stated for nilsolitons.
nilsoliton_check = numeric_soliton_oracle
