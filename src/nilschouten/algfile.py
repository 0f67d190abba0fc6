"""Plain-text algebra definition format.

Line-oriented, UTF-8, '#' starts a comment (full line or trailing).
Blank lines are ignored.  Four directives:

    dim <n>
    param <name> <positive|negative|nonzero|free>
    bracket <i> <j> : <poly>*e<k> [+ <poly>*e<k> ...]     (1 <= i < j <= n)
    sample <name> = <value>                               (optional)

Bracket pairs not listed are zero; each pair, and each sample parameter,
may appear once.  The polynomial literals use the grammar of
ratpoly.Polynomial.parse: integers, rationals 'a/b', parameter names, '^',
'*', '+', '-', parentheses.  A bracket body is one such polynomial in the
parameters and the basis symbols e1..en.  After expansion every term
must hold exactly one basis symbol, to the first power; the coefficient
of e<k> collects the terms holding it, with e<k> taken out.  So 'e3',
'e3*2', '-(alpha - 1)*e3' and 'alpha*e3 + e4' parse, while 'e2*e3',
'e3^2' and 'alpha' do not.  A parameter name follows the polynomial
grammar's name rule and may not be a basis symbol.

A sample value is a rational or an element of Q(sqrt(m)) written
``[p + ]q*sqrt(m)``, ``[p - ]q*sqrt(m)`` or with ``q*`` left out, p and q
rationals and m a non-negative rational (``sqrt(8)`` is ``2*sqrt(2)``);
``parse_sample_value`` reads it, for these lines and the command line's
``--sample`` flag alike, and reads back every value ``render`` writes.

Parsing builds the algebra's entry table, antisymmetric by construction,
and runs the Jacobi check; all failing triples are reported together.
``render`` writes the canonical form (sorted params, sorted bracket pairs,
canonical polynomial text), and parse(render(f)) == f on any parsed file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .liealg import MetricLieAlgebra, ParameterConstraint, RELATIONS
from .quadfield import QuadRat
from .ratpoly import Monomial, Polynomial, PolynomialSyntaxError, parse_rational


class AlgebraSyntaxError(ValueError):
    """Malformed algebra file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateBracketError(AlgebraSyntaxError):
    """The same bracket pair was defined twice."""


@dataclass(frozen=True)
class AlgebraFile:
    """Parsed algebra definition plus the optional sample assignment."""

    algebra: MetricLieAlgebra
    sample: dict[str, Fraction | QuadRat] | None


_BASIS_RE = re.compile(r"e(\d+)$")
# [p +|-] [+|-] [q *] sqrt(m), the rationals p, q and m read by parse_rational
_QUADRATIC_RE = re.compile(r"(?:(.+?)\s*([-+])\s*)?([-+]?)\s*(?:(.+?)\s*\*\s*)?sqrt\((.+)\)")


def parse_sample_value(text: str) -> Fraction | QuadRat:
    """A rational, or a number of Q(sqrt(m)) in the form of the module docstring."""
    match = _QUADRATIC_RE.fullmatch(text.strip())
    if match is None:
        return parse_rational(text)
    p, op, sign, q, m = match.groups()
    try:
        value = QuadRat.sqrt(parse_rational(m)) * parse_rational(q or "1")
        if (sign == "-") != (op == "-"):
            value = -value
        if p is not None:
            value = value + parse_rational(p)
    except (PolynomialSyntaxError, ValueError) as exc:
        raise PolynomialSyntaxError(f"invalid sample value {text!r}") from exc
    return value if value.m != 1 else value.a


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _bracket_coords(body: str, dim: int, line_no: int) -> dict[int, Polynomial]:
    """The coefficients {k: poly} of e<k> in one bracket body."""
    try:
        poly = Polynomial.parse(body)
    except PolynomialSyntaxError as exc:
        raise AlgebraSyntaxError(str(exc), line_no) from exc
    coords: dict[int, Polynomial] = {}
    for mono, coeff in poly:
        basis = [(name, exp) for name, exp in mono.exps if _BASIS_RE.fullmatch(name)]
        if len(basis) != 1 or basis[0][1] != 1:
            raise AlgebraSyntaxError(
                f"bracket term {Polynomial({mono: coeff})} must hold exactly one basis "
                "symbol e<k>, to the first power",
                line_no,
            )
        k = int(basis[0][0][1:])  # the digits of e<k>
        if not 1 <= k <= dim:
            raise AlgebraSyntaxError(f"basis index e{k} out of range 1..{dim}", line_no)
        rest = Polynomial({Monomial(tuple(p for p in mono.exps if p != basis[0])): coeff})
        coords[k] = coords.get(k, Polynomial.zero()) + rest
    return {k: p for k, p in coords.items() if p}  # 'e5 - e05' cancels


def parse_algebra_file(text: str, label: str = "") -> AlgebraFile:
    """Parse the definition format into an algebra and optional sample."""
    dim: int | None = None
    constraints: list[ParameterConstraint] = []
    constraint_names: set[str] = set()
    brackets: dict[tuple[int, int], dict[int, Polynomial]] = {}
    sample: dict[str, Fraction | QuadRat] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        fields = line.split(None, 1)
        keyword = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if keyword == "dim":
            if dim is not None:
                raise AlgebraSyntaxError("duplicate dim directive", line_no)
            if not rest.isdigit() or int(rest) < 1:
                raise AlgebraSyntaxError(f"invalid dimension {rest!r}", line_no)
            dim = int(rest)
        elif keyword == "param":
            parts = rest.split()
            if len(parts) != 2 or parts[1] not in RELATIONS:
                raise AlgebraSyntaxError(
                    f"expected 'param <name> <{'|'.join(RELATIONS)}>'", line_no
                )
            if parts[0] in constraint_names:
                raise AlgebraSyntaxError(f"duplicate param {parts[0]!r}", line_no)
            try:
                Polynomial.parameter(parts[0])
            except ValueError as exc:
                raise AlgebraSyntaxError(str(exc), line_no) from exc
            if _BASIS_RE.fullmatch(parts[0]):
                raise AlgebraSyntaxError(
                    f"parameter name {parts[0]!r} collides with basis symbols", line_no
                )
            constraint_names.add(parts[0])
            constraints.append(ParameterConstraint(parts[0], parts[1]))
        elif keyword == "bracket":
            if dim is None:
                raise AlgebraSyntaxError("bracket before dim directive", line_no)
            if ":" not in rest:
                raise AlgebraSyntaxError("expected 'bracket <i> <j> : <terms>'", line_no)
            head, _, body = rest.partition(":")
            indices = head.split()
            if len(indices) != 2 or not all(p.isdigit() for p in indices):
                raise AlgebraSyntaxError("expected two basis indices before ':'", line_no)
            i, j = int(indices[0]), int(indices[1])
            if not (1 <= i < j <= dim):
                raise AlgebraSyntaxError(
                    f"bracket pair ({i}, {j}) needs 1 <= i < j <= {dim}", line_no
                )
            if (i, j) in brackets:
                raise DuplicateBracketError(f"duplicate bracket {i} {j}", line_no)
            coords = _bracket_coords(body, dim, line_no)
            if not coords:
                raise AlgebraSyntaxError("bracket with no terms", line_no)
            brackets[(i, j)] = coords
        elif keyword == "sample":
            if "=" not in rest:
                raise AlgebraSyntaxError("expected 'sample <name> = <value>'", line_no)
            name, _, value = rest.partition("=")
            name = name.strip()
            if not name:
                raise AlgebraSyntaxError("missing parameter name", line_no)
            if name in sample:
                raise AlgebraSyntaxError(f"duplicate sample {name!r}", line_no)
            try:
                sample[name] = parse_sample_value(value)
            except PolynomialSyntaxError as exc:
                raise AlgebraSyntaxError(str(exc), line_no) from exc
        else:
            raise AlgebraSyntaxError(f"unknown directive {keyword!r}", line_no)

    if dim is None:
        raise AlgebraSyntaxError("missing dim directive", 1)
    algebra = MetricLieAlgebra.from_brackets(dim, brackets, constraints, label)
    return AlgebraFile(algebra, sample or None)


def render_algebra_file(parsed: AlgebraFile) -> str:
    """Canonical text form; parse(render(f)) == f for parsed files."""
    g = parsed.algebra
    lines = [f"dim {g.dim}"]
    for constraint in g.constraints:
        lines.append(f"param {constraint.name} {constraint.relation}")
    upper = [entry for entry in g.entries if entry[0] < entry[1]]
    for (i, j), terms in groupby(upper, key=lambda entry: entry[:2]):
        rendered = " + ".join(f"({poly})*e{k + 1}" for _, _, k, poly in terms)
        lines.append(f"bracket {i + 1} {j + 1} : {rendered}")
    if parsed.sample:
        for name in sorted(parsed.sample):
            lines.append(f"sample {name} = {parsed.sample[name]}")
    return "\n".join(lines) + "\n"
