"""Metric Lie algebras presented by structure constants.

An algebra is the data ``[v_i, v_j] = sum_k c[i][j][k] v_k`` in a basis
``v_1 .. v_n`` that is declared orthonormal once and for all; the inner
product is never stored as a matrix, every formula downstream is written in
this normal form.
Structure constants are Polynomials, so a single value represents a whole
parameterized family; numeric instances arise by evaluating at a sample.

Indexing convention: the public surface (bracket pairs, Jacobi violations,
provenance) is 1-based to match the v_1..v_n naming; internal storage is
0-based.

The structure tensors are sparse (12 of 125 entries are nonzero for
A5_6), so an algebra stores only its entry table ``entries``, the
``(i, j, k, c[i][j][k])`` of the nonzero entries, 0-based, in
lexicographic order, and every kernel reads it.  Construction checks the
table in one pass (indices in range, every entry a Polynomial, no zero
or repeated entry, each mirror ``(j, i, k)`` holding the negated value);
``c`` builds the dense tensor from it on request.  Construction also
stores the constraints sorted by name, so an algebra's value does not
depend on the order they were given in.

The bracket is contracted in one place per data shape.  Dense vectors go
through ``ad_matrix``: ``bracket(u, v)`` is ``ad_u v`` and the mean
curvature coordinate ``H_i`` is ``tr(ad_{v_i})``.  Sparse rows, dicts
``{column: value}`` holding only nonzero coordinates, go through
``_sparse_bracket``, which brackets a basis vector with a row; both
structure checks read ``_bracket_index``, the entries grouped by their
first index and the table's bracket rows ``[v_i, v_j]``, i < j.  The Jacobi
check sums ``[v_j, [v_i, v_k]] - [v_k, [v_i, v_j]] - [v_i, [v_j, v_k]]``
for each triple i < j < k, skipping a term whose group or row is empty,
and builds the residual vector only for a failing triple.

A sample is a mapping from names to numbers, and ``check_sample`` is the
one rule that decides whether it is well formed and admissible: it assigns
exactly ``sample_names`` (the parameters and the constrained names), each
value is an int, Fraction, finite float or QuadRat, the values hold one
radicand, and every sign is admissible.  Every numeric entry point runs
it, and so does the command line.

At a sample, ``evaluate_entries`` evaluates that table alone, each entry
with i < j once and its mirror as the negated value, reading a float
sample value as the exact rational it holds, and drops the entries that
vanish there; the numeric side (the lower central series
here, the soliton oracle downstream) reads this evaluated entry table and
never a dense tensor (``evaluate_structure`` builds one, from the table,
for callers that index it).  ``entries_nilpotency_step`` runs the lower
central series on sparse rows, starting from the table's bracket rows.
It always runs the series, since it returns the step;
``entries_are_nilpotent``, which only answers whether the algebra is
nilpotent, certifies a strictly triangular table by its shape and runs the
series on any other.

Vectors are plain lists and matrices lists of rows.  The helpers at the
bottom (basis vectors, transpose, traces, columns, identity, symmetry
test) are generic over the scalar ring: they work unchanged for
Polynomial, Fraction, QuadRat and float entries.  A scalar is zero exactly
when it is falsy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

from .quadfield import MixedRadicandError, QuadRat, scalar_sign
from .ratpoly import Polynomial

Vector = list
Matrix = list

RELATIONS = ("positive", "negative", "nonzero", "free")


class DimensionMismatchError(ValueError):
    """A vector or matrix has the wrong size for this algebra."""


class InvalidAlgebraError(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = violations or []


class ConstraintViolationError(ValueError):
    """A sample assignment is malformed or violates a declared sign constraint."""


class SignViolationError(ConstraintViolationError):
    """A well-formed sample violates a declared sign constraint."""


@dataclass(frozen=True)
class ParameterConstraint:
    """Sign constraint on one parameter: positive, negative, nonzero or free."""

    name: str
    relation: str

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def admits(self, sign: int) -> bool:
        tests = {"positive": sign > 0, "negative": sign < 0, "nonzero": sign != 0}
        return tests.get(self.relation, True)


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A Lie algebra with polynomial structure constants in an orthonormal basis.

    Construction checks the entry table (see the module docstring) and
    runs the Jacobi check symbolically; an algebra value that exists is a
    Lie algebra for every parameter assignment.
    """

    dim: int
    entries: tuple  # (i, j, k, c[i][j][k]) for the nonzero entries, 0-based
    constraints: tuple[ParameterConstraint, ...] = ()
    label: str = ""

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise InvalidAlgebraError("dimension must be positive")
        table: dict = {}
        for i, j, k, entry in self.entries:
            where = f"c[{i + 1}][{j + 1}][{k + 1}]"
            if not (0 <= min(i, j, k) and max(i, j, k) < n):
                raise InvalidAlgebraError(f"entry {where} out of range")
            if not isinstance(entry, Polynomial):
                raise InvalidAlgebraError(f"entry {where} is not a Polynomial")
            if not entry or (i, j, k) in table:
                raise InvalidAlgebraError(f"zero or repeated entry {where}")
            table[i, j, k] = entry
        for (i, j, k), entry in table.items():
            if -entry != table.get((j, i, k)):
                raise InvalidAlgebraError(f"antisymmetry fails at c[{i + 1}][{j + 1}][{k + 1}]")
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        seen = set()
        for constraint in self.constraints:
            if constraint.name in seen:
                raise InvalidAlgebraError(
                    f"duplicate constraint for parameter {constraint.name!r}"
                )
            seen.add(constraint.name)
        ordered = tuple(sorted(self.constraints, key=lambda c: c.name))
        object.__setattr__(self, "constraints", ordered)
        violations = self.jacobi_check()
        if violations:
            triples = ", ".join(str(v[0]) for v in violations)
            raise InvalidAlgebraError(
                f"Jacobi identity fails at triples {triples}", violations
            )

    @staticmethod
    def from_brackets(
        dim: int,
        brackets: Mapping[tuple[int, int], Mapping[int, Polynomial | int | Fraction]],
        constraints: Sequence[ParameterConstraint] = (),
        label: str = "",
    ) -> MetricLieAlgebra:
        """Build from 1-based bracket data {(i, j): {k: coeff}} with i < j."""
        entries = []
        for (i, j), coords in brackets.items():
            if not (1 <= i < j <= dim):
                raise InvalidAlgebraError(f"bracket pair ({i}, {j}) needs 1 <= i < j <= dim")
            for k, coeff in coords.items():
                if not 1 <= k <= dim:
                    raise InvalidAlgebraError(f"bracket target e{k} out of range")
                poly = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(coeff)
                if poly:
                    entries += [(i - 1, j - 1, k - 1, poly), (j - 1, i - 1, k - 1, -poly)]
        return MetricLieAlgebra(dim, tuple(entries), tuple(constraints), label)

    @property
    def c(self) -> list:
        """The dense structure tensor c[i][j][k], 0-based, built from the entry table."""
        return _dense(self.entries, self.dim, Polynomial.zero())

    # -- basic inspection ----------------------------------------------------

    def parameters(self) -> tuple[str, ...]:
        return self._parameters

    @cached_property
    def _parameters(self) -> tuple[str, ...]:
        names: set[str] = set()
        for *_, entry in self.entries:
            names.update(entry.variables())
        return tuple(sorted(names))

    @cached_property
    def sample_names(self) -> tuple[str, ...]:
        """The names a sample assigns, sorted: the parameters and the constrained names."""
        return tuple(sorted({*self._parameters, *(c.name for c in self.constraints)}))

    def constraint_map(self) -> dict[str, ParameterConstraint]:
        return {constraint.name: constraint for constraint in self.constraints}

    def nonzero_brackets(self) -> list[tuple[int, int]]:
        """1-based pairs (i, j), i < j, whose bracket is not identically zero."""
        return sorted({(i + 1, j + 1) for i, j, _, _ in self.entries if i < j})

    def is_abelian(self) -> bool:
        return not self.nonzero_brackets()

    def _check_length(self, v: Sequence) -> None:
        if len(v) != self.dim:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in a dimension-{self.dim} algebra"
            )

    # -- bracket and derived endomorphisms ------------------------------------

    def bracket(self, u: Sequence, v: Sequence) -> Vector:
        """[u, v] = ad_u v, read off ad_matrix(u)."""
        ad_u = self.ad_matrix(u)
        self._check_length(v)
        return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in ad_u]

    def ad_matrix(self, u: Sequence) -> Matrix:
        """Matrix of ad_u = [u, .]; column j holds the coordinates of [u, v_j]."""
        self._check_length(u)
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, j, k, entry in self.entries:
            if u[i]:
                out[k][j] = out[k][j] + u[i] * entry
        return out

    def ad_star_matrix(self, v: Sequence) -> Matrix:
        """Transpose of ad_v; this is the metric adjoint because the basis is orthonormal."""
        return mat_transpose(self.ad_matrix(v))

    def j_operator_matrix(self, u: Sequence) -> Matrix:
        """Matrix of J_u, defined column-wise by J_u v_j = (ad_{v_j})* u."""
        self._check_length(u)
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for j, k, l, entry in self.entries:
            out[k][j] = out[k][j] + entry * u[l]
        return out

    # -- structural checks -----------------------------------------------------

    def jacobi_check(self) -> list[tuple[tuple[int, int, int], Vector]]:
        """All (i, j, k) with a nonvanishing Jacobiator, with the residual vector.

        An empty list means the Jacobi identity holds identically in the
        parameters.  Violations are returned, not raised, so a front end can
        report every failing triple of a user-supplied table at once.
        """
        by_first, rows = _bracket_index(self.entries)
        violations = []
        for i, j, k in combinations(range(self.dim), 3):
            total: dict = {}  # [v_j, [v_i, v_k]] - [v_k, [v_i, v_j]] - [v_i, [v_j, v_k]]
            for a, pair, sign in ((j, (i, k), 1), (k, (i, j), -1), (i, (j, k), -1)):
                if a in by_first and pair in rows:  # else the term is empty
                    for m, x in _sparse_bracket(by_first[a], rows[pair]).items():
                        total[m] = total.get(m, 0) + sign * x
            if any(total.values()):
                residual = [total.get(m, Fraction(0)) for m in range(self.dim)]
                violations.append(((i + 1, j + 1, k + 1), residual))
        return violations

    def killing_form(self) -> Matrix:
        """B(v_i, v_j) = tr(ad_{v_i} ad_{v_j}); identically zero when nilpotent."""
        ads = [self.ad_matrix(basis_vector(self.dim, i)) for i in range(self.dim)]
        return [[trace_product(a, b) for b in ads] for a in ads]

    def mean_curvature_vector(self) -> Vector:
        """Coordinates of H, defined by <H, u> = tr(ad_u), in the orthonormal
        basis, each a Polynomial."""
        ads = (self.ad_matrix(basis_vector(self.dim, i)) for i in range(self.dim))
        return [Polynomial.zero() + mat_trace(ad) for ad in ads]

    # -- numeric evaluation ------------------------------------------------------

    def check_sample(self, sample: Mapping[str, object]) -> None:
        """Raise ConstraintViolationError unless the sample assigns exactly
        sample_names, each an int, Fraction, finite float or QuadRat; then
        MixedRadicandError if its values hold two radicands, and last
        SignViolationError if a sign is inadmissible."""
        names = self.sample_names
        if sample.keys() != set(names):
            stray = ", ".join(sorted(map(str, set(sample).difference(names))))
            if stray:
                raise ConstraintViolationError(f"sample assigns undeclared parameters: {stray}")
            missing = next(name for name in names if name not in sample)
            raise ConstraintViolationError(f"missing value for parameter {missing!r}")
        for name, value in sample.items():
            exact = isinstance(value, (int, Fraction, QuadRat))
            if not (exact or isinstance(value, float) and math.isfinite(value)):
                raise ConstraintViolationError(f"{name} = {value!r} is not a finite number")
        radicands = sorted({v.m for v in sample.values() if isinstance(v, QuadRat)} - {1})
        if len(radicands) > 1:
            roots = " and ".join(f"sqrt({m})" for m in radicands)
            raise MixedRadicandError(f"sample mixes the radicands {roots}")
        for constraint in self.constraints:
            value = sample[constraint.name]
            if not constraint.admits(scalar_sign(value)):
                relation = constraint.relation
                raise SignViolationError(f"{constraint.name} = {value} violates '{relation}'")

    def _evaluated(self, sample: Mapping[str, object]) -> list:
        """The entry table evaluated at the checked sample, a float sample
        value read as the exact rational it holds (Fraction(x)).

        Each entry (i, j, k), i < j, is evaluated once; its mirror (j, i, k),
        which sorts after it and holds the negated polynomial, takes the
        negated value.
        """
        self.check_sample(sample)
        exact = {name: Fraction(v) if isinstance(v, float) else v for name, v in sample.items()}
        values: dict = {}
        out = []
        for i, j, k, entry in self.entries:
            if i < j:
                value = values[i, j, k] = entry.evaluate(exact)
            else:
                value = -values[j, i, k]
            out.append((i, j, k, value))
        return out

    def evaluate_structure(self, sample: Mapping[str, object]) -> list:
        """Structure tensor with every entry evaluated at the sample.

        Only the entry table is evaluated; every other entry is the zero
        polynomial, whose value is Fraction(0).
        """
        return _dense(self._evaluated(sample), self.dim, Fraction(0))

    def evaluate_entries(self, sample: Mapping[str, object]) -> list:
        """The entry table evaluated at the sample, without the entries that
        vanish there; equal to nonzero_entries(self.evaluate_structure(sample))."""
        return [entry for entry in self._evaluated(sample) if entry[3]]

    def nilpotency_step(self, sample: Mapping[str, object]) -> int | None:
        """Length of the lower central series at an admissible sample.

        Returns s with g^(s+1) = 0 (abelian algebras give 1), or None when
        the series stabilizes at a nonzero subspace, i.e. the evaluated
        algebra is not nilpotent.  Decided by exact rank computations; rank
        of a polynomial matrix is not constant over parameter space, which
        is why this is numeric-at-a-sample rather than symbolic.
        """
        return entries_nilpotency_step(self.evaluate_entries(sample), self.dim)


def nonzero_entries(tensor: Sequence) -> list:
    """(i, j, k, c[i][j][k]) for every nonzero entry, 0-based, in lexicographic order."""
    return [
        (i, j, k, entry)
        for i, plane in enumerate(tensor)
        for j, row in enumerate(plane)
        for k, entry in enumerate(row)
        if entry
    ]


def _dense(entries: Sequence, n: int, zero) -> list:
    """The n x n x n nested list holding the table's entries, zero elsewhere."""
    tensor = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, entry in entries:
        tensor[i][j][k] = entry
    return tensor


def entries_are_nilpotent(entries: Sequence, n: int) -> bool:
    """Whether the evaluated algebra with this entry table is nilpotent.

    A strictly triangular table, every bracket [v_i, v_j] in span(v_k : k >
    max(i, j)), is nilpotent by its shape alone: ad_{v_i} then maps
    span(v_j..v_n) into span(v_{j+1}..v_n), so g^(s+1) lies in
    span(v_{s+1}..v_n).  Any other table runs the lower central series.
    """
    return (
        all(k > max(i, j) for i, j, k, _ in entries)
        or entries_nilpotency_step(entries, n) is not None
    )


def entries_nilpotency_step(entries: Sequence, n: int) -> int | None:
    """nilpotency_step for the entry table of an evaluated structure tensor.

    g^2 is spanned by the table's own bracket rows [v_i, v_j], i < j, and
    g^(s+1) = [g, g^s] by the brackets [v_i, w] of the basis with the rows
    w spanning g^s.  Rows are sparse ``{column: value}`` dicts, and only
    the v_i that are the first index of some entry are bracketed, the
    others giving zero rows.
    """
    by_first, rows = _bracket_index(entries)
    images = list(rows.values())
    step = 0
    previous_dim = n
    while True:
        step += 1
        reduced = _row_reduce(images)
        if not reduced:
            return step
        if len(reduced) >= previous_dim:
            return None
        previous_dim = len(reduced)
        images = [
            _sparse_bracket(group, w) for group in by_first.values() for w in reduced
        ]


def _bracket_index(entries: Sequence) -> tuple[dict, dict]:
    """The table's entries grouped by first index, i -> [(j, k, c[i][j][k])],
    and its bracket rows, (i, j) -> {k: c[i][j][k]} for i < j.

    Built afresh on every call: the lower central series reduces the rows
    in place.
    """
    by_first: dict = {}
    rows: dict = {}
    for i, j, k, entry in entries:
        by_first.setdefault(i, []).append((j, k, entry))
        if i < j:
            rows.setdefault((i, j), {})[k] = entry
    return by_first, rows


def _sparse_bracket(group: list, w: dict) -> dict:
    """[v_i, w] for the entries (j, k, c[i][j][k]) of v_i and a sparse row w."""
    out: dict = {}
    for j, k, entry in group:
        if j in w:
            term = w[j] * entry
            out[k] = out[k] + term if k in out else term
    return {k: x for k, x in out.items() if x}


def _row_reduce(rows: list) -> list:
    """Independent sparse rows in echelon form, by exact Gaussian elimination.

    Each kept row is reduced against the earlier pivots in turn, so it
    vanishes at their columns; its pivot is its least column.  Zero rows
    are skipped and cancelled coordinates dropped.  The rows are reduced
    in place.
    """
    reduced = []  # (pivot column, row)
    for row in rows:
        for col, pivot in reduced:
            if col in row:
                factor = row[col] / pivot[col]
                for c, y in pivot.items():
                    x = row[c] - factor * y if c in row else -factor * y
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        if row:
            reduced.append((min(row), row))
    return [row for _, row in reduced]


# -- generic vector/matrix helpers ------------------------------------------


def basis_vector(n: int, index: int) -> Vector:
    """0-based standard basis vector with Polynomial entries."""
    one = Polynomial.one()
    zero = Polynomial.zero()
    return [one if i == index else zero for i in range(n)]


def mat_transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_trace(a: Matrix):
    acc = Fraction(0)
    for i, row in enumerate(a):
        acc = acc + row[i]
    return acc


def trace_product(a: Matrix, b: Matrix):
    """tr(a compose b) with the convention sum_{i,j} a[i][j] * b[j][i]."""
    acc = Fraction(0)
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            acc = acc + x * b[j][i]
    return acc


def mat_column(a: Matrix, j: int) -> Vector:
    return [row[j] for row in a]


def identity_matrix(n: int) -> Matrix:
    return [basis_vector(n, i) for i in range(n)]


def mat_is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))
