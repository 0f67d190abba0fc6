"""Plain-text algebra definition format.

Line-oriented, UTF-8, '#' starts a comment (full line or trailing).
Blank lines are ignored.  Four directives:

    dim <n>
    param <name> <positive|negative|nonzero|free>
    bracket <i> <j> : <poly>*e<k> [+ <poly>*e<k> ...]     (1 <= i < j <= n)
    sample <name> = <rational>                            (optional)

Bracket pairs not listed are zero; each pair, and each sample parameter,
may appear once.  The polynomial literals use the grammar of
ratpoly.Polynomial.parse: integers, rationals 'a/b', parameter names, '^',
'*', '+', '-', parentheses.  A term may also be a bare 'e<k>' (unit
coefficient), and '-' may join bracket terms, negating the following
coefficient.

Parsing builds the structure tensor antisymmetrically by construction and
runs the Jacobi check; all failing triples are reported together.
``render`` writes the canonical form (sorted params, sorted bracket pairs,
canonical polynomial text), and parse(render(f)) == f on any parsed file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .liealg import MetricLieAlgebra, ParameterConstraint, RELATIONS
from .ratpoly import Polynomial, PolynomialSyntaxError, parse_rational


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
    sample: dict[str, Fraction] | None


_BASIS_RE = re.compile(r"e(\d+)$")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _split_bracket_terms(text: str, line_no: int) -> list[tuple[int, str]]:
    """Split on top-level +/- into (sign, term-text) pieces."""
    pieces: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise AlgebraSyntaxError("unbalanced ')'", line_no)
        if depth == 0 and ch in "+-" and current and "".join(current).strip():
            pieces.append((sign, "".join(current)))
            sign = -1 if ch == "-" else 1
            current = []
            continue
        if depth == 0 and ch == "-" and not "".join(current).strip():
            # leading minus folds into the first term's sign
            sign = -sign
            continue
        current.append(ch)
    if depth != 0:
        raise AlgebraSyntaxError("unbalanced '('", line_no)
    if "".join(current).strip():
        pieces.append((sign, "".join(current)))
    return pieces


def _parse_bracket_term(term: str, sign: int, dim: int, line_no: int) -> tuple[int, Polynomial]:
    """One '<poly>*e<k>' (or bare 'e<k>') summand -> (k, coefficient)."""
    text = term.strip()
    match = _BASIS_RE.search(text)
    if match is None:
        raise AlgebraSyntaxError(
            f"bracket term {text!r} must end in a basis symbol e<k>", line_no
        )
    k = int(match.group(1))
    if not 1 <= k <= dim:
        raise AlgebraSyntaxError(f"basis index e{k} out of range 1..{dim}", line_no)
    head = text[: match.start()].rstrip()
    if head == "":
        return k, Polynomial.constant(sign)
    if not head.endswith("*"):
        raise AlgebraSyntaxError(
            f"expected '*' between the coefficient and e{k} in {text!r}", line_no
        )
    head = head[:-1]
    if head.strip() == "":
        poly = Polynomial.one()
    else:
        try:
            poly = Polynomial.parse(head)
        except PolynomialSyntaxError as exc:
            raise AlgebraSyntaxError(str(exc), line_no) from exc
    return k, -poly if sign < 0 else poly


def parse_algebra_file(text: str, label: str = "") -> AlgebraFile:
    """Parse the definition format into an algebra and optional sample."""
    dim: int | None = None
    constraints: list[ParameterConstraint] = []
    constraint_names: set[str] = set()
    brackets: dict[tuple[int, int], dict[int, Polynomial]] = {}
    sample: dict[str, Fraction] = {}

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
            coords: dict[int, Polynomial] = {}
            for sign, term in _split_bracket_terms(body, line_no):
                k, poly = _parse_bracket_term(term, sign, dim, line_no)
                coords[k] = coords.get(k, Polynomial.zero()) + poly
            coords = {k: p for k, p in coords.items() if not p.is_zero()}
            if not coords:
                raise AlgebraSyntaxError("bracket with no terms", line_no)
            brackets[(i, j)] = coords
        elif keyword == "sample":
            if "=" not in rest:
                raise AlgebraSyntaxError("expected 'sample <name> = <rational>'", line_no)
            name, _, value = rest.partition("=")
            name = name.strip()
            if not name:
                raise AlgebraSyntaxError("missing parameter name", line_no)
            if name in sample:
                raise AlgebraSyntaxError(f"duplicate sample {name!r}", line_no)
            try:
                sample[name] = parse_rational(value)
            except PolynomialSyntaxError as exc:
                raise AlgebraSyntaxError(str(exc), line_no) from exc
        else:
            raise AlgebraSyntaxError(f"unknown directive {keyword!r}", line_no)

    if dim is None:
        raise AlgebraSyntaxError("missing dim directive", 1)
    constraints.sort(key=lambda c: c.name)
    algebra = MetricLieAlgebra.from_brackets(dim, brackets, constraints, label)
    return AlgebraFile(algebra, sample or None)


def render_algebra_file(parsed: AlgebraFile) -> str:
    """Canonical text form; parse(render(f)) == f for parsed files."""
    g = parsed.algebra
    lines = [f"dim {g.dim}"]
    for constraint in sorted(g.constraints, key=lambda c: c.name):
        lines.append(f"param {constraint.name} {constraint.relation}")
    upper = [entry for entry in g.entries if entry[0] < entry[1]]
    for (i, j), terms in groupby(upper, key=lambda entry: entry[:2]):
        rendered = " + ".join(f"({poly})*e{k + 1}" for _, _, k, poly in terms)
        lines.append(f"bracket {i + 1} {j + 1} : {rendered}")
    if parsed.sample:
        for name in sorted(parsed.sample):
            lines.append(f"sample {name} = {parsed.sample[name]}")
    return "\n".join(lines) + "\n"
