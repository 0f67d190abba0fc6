"""Metric Lie algebras presented by structure constants.

An algebra is the data ``[v_i, v_j] = sum_k c[i][j][k] v_k`` in a basis
``v_1 .. v_n`` that is declared orthonormal once and for all; the inner
product is never stored as a matrix, every formula downstream is written in
this normal form.
Structure constants are Polynomials, so a single value represents a whole
parameterized family; numeric instances arise by evaluating at a sample.

Indexing convention: the public surface (bracket pairs, Jacobi violations,
provenance) is 1-based to match the v_1..v_n naming; internal storage is
0-based nested tuples.

Vectors are plain lists and matrices lists of rows.  The bracket kernel
``_bracket`` and the helpers at the bottom (basis vectors, vec_add,
transpose, mat_add, traces, columns, identity, symmetry test) are generic
over the scalar ring: they work unchanged for Polynomial, Fraction, QuadRat
and float entries, which is how the same formulas serve both the symbolic
structure tensor (MetricLieAlgebra.bracket) and an evaluated one
(tensor_nilpotency_step).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .quadfield import scalar_sign
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
    """A sample assignment violates the declared parameter sign constraints."""


@dataclass(frozen=True)
class ParameterConstraint:
    """Sign constraint on one parameter: positive, negative, nonzero or free."""

    name: str
    relation: str

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def admits(self, sign: int) -> bool:
        if self.relation == "positive":
            return sign > 0
        if self.relation == "negative":
            return sign < 0
        if self.relation == "nonzero":
            return sign != 0
        return True


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A Lie algebra with polynomial structure constants in an orthonormal basis.

    Construction validates antisymmetry exactly and runs the Jacobi check
    symbolically; an algebra value that exists is a Lie algebra for every
    parameter assignment.
    """

    dim: int
    c: tuple  # c[i][j][k]: Polynomial, 0-based
    constraints: tuple[ParameterConstraint, ...] = ()
    label: str = ""

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise InvalidAlgebraError("dimension must be positive")
        if len(self.c) != n or any(
            len(plane) != n or any(len(row) != n for row in plane) for plane in self.c
        ):
            raise InvalidAlgebraError("structure tensor must be dim x dim x dim")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.c[i][j][k] != -self.c[j][i][k]:
                        raise InvalidAlgebraError(
                            f"antisymmetry fails at c[{i + 1}][{j + 1}][{k + 1}]"
                        )
        seen = set()
        for constraint in self.constraints:
            if constraint.name in seen:
                raise InvalidAlgebraError(
                    f"duplicate constraint for parameter {constraint.name!r}"
                )
            seen.add(constraint.name)
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
        zero = Polynomial.zero()
        tensor = [[[zero for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for (i, j), coords in brackets.items():
            if not (1 <= i < j <= dim):
                raise InvalidAlgebraError(f"bracket pair ({i}, {j}) needs 1 <= i < j <= dim")
            for k, coeff in coords.items():
                if not 1 <= k <= dim:
                    raise InvalidAlgebraError(f"bracket target e{k} out of range")
                poly = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(coeff)
                tensor[i - 1][j - 1][k - 1] = poly
                tensor[j - 1][i - 1][k - 1] = -poly
        frozen = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
        ordered = tuple(sorted(constraints, key=lambda c: c.name))
        return MetricLieAlgebra(dim, frozen, ordered, label)

    # -- basic inspection ----------------------------------------------------

    def parameters(self) -> tuple[str, ...]:
        names: set[str] = set()
        for plane in self.c:
            for row in plane:
                for entry in row:
                    names.update(entry.variables())
        return tuple(sorted(names))

    def constraint_map(self) -> dict[str, ParameterConstraint]:
        return {constraint.name: constraint for constraint in self.constraints}

    def nonzero_brackets(self) -> list[tuple[int, int]]:
        """1-based pairs (i, j), i < j, whose bracket is not identically zero."""
        pairs = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if any(not p.is_zero() for p in self.c[i][j]):
                    pairs.append((i + 1, j + 1))
        return pairs

    def is_abelian(self) -> bool:
        return not self.nonzero_brackets()

    def _check_length(self, v: Sequence) -> None:
        if len(v) != self.dim:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in a dimension-{self.dim} algebra"
            )

    # -- bracket and derived endomorphisms ------------------------------------

    def bracket(self, u: Sequence, v: Sequence) -> Vector:
        """[u, v] expanded through the structure tensor."""
        self._check_length(u)
        self._check_length(v)
        return _bracket(self.c, u, v)

    def ad_matrix(self, u: Sequence) -> Matrix:
        """Matrix of ad_u = [u, .]; column j holds the coordinates of [u, v_j]."""
        self._check_length(u)
        n = self.dim
        columns = [_bracket(self.c, u, basis_vector(n, j, one=Fraction(1))) for j in range(n)]
        return mat_transpose(columns)

    def ad_star_matrix(self, v: Sequence) -> Matrix:
        """Transpose of ad_v; this is the metric adjoint because the basis is orthonormal."""
        return mat_transpose(self.ad_matrix(v))

    def j_operator_matrix(self, u: Sequence) -> Matrix:
        """Matrix of J_u, defined column-wise by J_u v_j = (ad_{v_j})* u."""
        self._check_length(u)
        n = self.dim
        out = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            for k in range(n):
                acc = Fraction(0)
                for l in range(n):
                    entry = self.c[j][k][l]
                    if not entry.is_zero():
                        acc = acc + entry * u[l]
                out[k][j] = acc
        return out

    # -- structural checks -----------------------------------------------------

    def jacobi_check(self) -> list[tuple[tuple[int, int, int], Vector]]:
        """All (i, j, k) with a nonvanishing Jacobiator, with the residual vector.

        An empty list means the Jacobi identity holds identically in the
        parameters.  Violations are returned, not raised, so a front end can
        report every failing triple of a user-supplied table at once.
        """
        n = self.dim
        violations = []
        basis = [basis_vector(n, i) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                bij = self.c[i][j]
                for k in range(j + 1, n):
                    residual = vec_add(
                        vec_add(
                            self.bracket(bij, basis[k]),
                            self.bracket(self.c[j][k], basis[i]),
                        ),
                        self.bracket(self.c[k][i], basis[j]),
                    )
                    if any(not is_zero_scalar(x) for x in residual):
                        violations.append(((i + 1, j + 1, k + 1), residual))
        return violations

    def killing_form(self) -> Matrix:
        """B(v_i, v_j) = tr(ad_{v_i} ad_{v_j}); identically zero when nilpotent."""
        n = self.dim
        ads = [self.ad_matrix(basis_vector(n, i)) for i in range(n)]
        return [
            [trace_product(ads[i], ads[j]) for j in range(n)] for i in range(n)
        ]

    def mean_curvature_vector(self) -> Vector:
        """Coordinates of H, defined by <H, u> = tr(ad_u), in the orthonormal basis."""
        n = self.dim
        out = []
        for i in range(n):
            acc = Fraction(0)
            for j in range(n):
                acc = acc + self.c[i][j][j]
            out.append(acc)
        return out

    # -- numeric evaluation ------------------------------------------------------

    def check_sample(self, sample: Mapping[str, object]) -> None:
        """Raise ConstraintViolationError unless the sample is admissible and full."""
        missing = [p for p in self.parameters() if p not in sample]
        if missing:
            raise ConstraintViolationError(f"sample missing parameters: {missing}")
        for constraint in self.constraints:
            if constraint.name not in sample:
                raise ConstraintViolationError(
                    f"sample missing constrained parameter {constraint.name!r}"
                )
            sign = scalar_sign(sample[constraint.name])
            if not constraint.admits(sign):
                raise ConstraintViolationError(
                    f"{constraint.name} = {sample[constraint.name]} violates "
                    f"'{constraint.relation}'"
                )

    def evaluate_structure(self, sample: Mapping[str, object]) -> list:
        """Structure tensor with every entry evaluated at the sample."""
        self.check_sample(sample)
        return [
            [[entry.evaluate(sample) for entry in row] for row in plane]
            for plane in self.c
        ]

    def nilpotency_step(self, sample: Mapping[str, object]) -> int | None:
        """Length of the lower central series at an admissible sample.

        Returns s with g^(s+1) = 0 (abelian algebras give 1), or None when
        the series stabilizes at a nonzero subspace, i.e. the evaluated
        algebra is not nilpotent.  Decided by exact rank computations; rank
        of a polynomial matrix is not constant over parameter space, which
        is why this is numeric-at-a-sample rather than symbolic.
        """
        return tensor_nilpotency_step(self.evaluate_structure(sample))


def tensor_nilpotency_step(tensor: list) -> int | None:
    """nilpotency_step for an already evaluated structure tensor."""
    n = len(tensor)
    basis = [basis_vector(n, i, one=Fraction(1)) for i in range(n)]
    current = basis
    step = 0
    previous_dim = n
    while True:
        step += 1
        images = [_bracket(tensor, u, w) for u in basis for w in current]
        reduced = _row_reduce(images)
        if not reduced:
            return step
        if len(reduced) >= previous_dim:
            return None
        previous_dim = len(reduced)
        current = reduced


def _bracket(tensor, u: Sequence, v: Sequence) -> Vector:
    """[u, v] = sum_{i,j,k} u[i]*v[j]*c[i][j][k] e_k, generic over the scalar ring."""
    n = len(tensor)
    out = [Fraction(0)] * n
    for i in range(n):
        ui = u[i]
        if is_zero_scalar(ui):
            continue
        for j in range(n):
            vj = v[j]
            if is_zero_scalar(vj):
                continue
            row = tensor[i][j]
            for k in range(n):
                if not is_zero_scalar(row[k]):
                    out[k] = out[k] + ui * vj * row[k]
    return out


def _row_reduce(rows: list) -> list:
    """Independent rows in echelon form, by exact Gaussian elimination."""
    work = [list(r) for r in rows]
    reduced = []
    pivot_cols: list[int] = []
    for row in work:
        for col, pivot in zip(pivot_cols, reduced):
            if not is_zero_scalar(row[col]):
                factor = row[col] / pivot[col]
                row = [x - factor * y for x, y in zip(row, pivot)]
        lead = next((c for c, x in enumerate(row) if not is_zero_scalar(x)), None)
        if lead is not None:
            reduced.append(row)
            pivot_cols.append(lead)
    return reduced


# -- generic vector/matrix helpers ------------------------------------------


def is_zero_scalar(x: object) -> bool:
    if isinstance(x, Polynomial):
        return x.is_zero()
    return x == 0


def basis_vector(n: int, index: int, one=None) -> Vector:
    """0-based standard basis vector; entries are Polynomials by default."""
    if one is None:
        one = Polynomial.one()
        zero = Polynomial.zero()
    else:
        zero = one - one
    return [one if i == index else zero for i in range(n)]


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return [x + y for x, y in zip(u, v)]


def mat_transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def identity_matrix(n: int, one=None) -> Matrix:
    if one is None:
        one = Polynomial.one()
        zero = Polynomial.zero()
    else:
        zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))
