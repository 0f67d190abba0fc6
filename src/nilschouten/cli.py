"""Command-line front end.

Commands
--------
ricci         print the Ricci operator and scalar curvature of an algebra
system        print the obstruction system with per-generator provenance
check         decide soliton feasibility at a sample (exit 0 feasible,
              2 infeasible, 1 error)
verify-paper  replay the whole classification: golden Ricci matrices,
              golden obstruction systems, and the ten verdicts against the
              numeric oracle (nonzero exit iff any assertion fails)
print-builtin print a built-in algebra in the definition file format

Algebras come from ``--builtin <id>`` (see catalog.ALGEBRA_IDS) or
``--file <path>`` in the definition format of nilschouten.algfile.  Sample
assignments come from ``--sample name=value,...`` (rationals like ``3/2``,
or numbers of Q(sqrt(m)) like ``sqrt(2)`` and ``1/2 - 3*sqrt(2)``, read by
algfile.parse_sample_value) or from ``sample`` lines of the file, each
name at most once per source; flags win over file values.

Output grammar
--------------
Polynomials print as terms in descending graded-lexicographic order
joined by '` + `' / '` - `', each term ``<coeff>*<mono>`` with the
coefficient an integer or ``num/den`` rational (unit coefficients and
``^1`` exponents omitted), e.g. ``-1/2*alpha^2 + 3*beta``.  Matrices print
one row per line, entries joined by ``" ; "``.  With ``--porcelain`` every
command emits only these machine-stable lines (no prose, no timestamps,
deterministic iteration order), so scripts never parse prose.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from typing import Iterable, Sequence

from .algfile import (
    AlgebraFile,
    AlgebraSyntaxError,
    parse_algebra_file,
    parse_sample_value,
    render_algebra_file,
)
from .catalog import (
    ALGEBRA_IDS,
    GOLDEN_SYSTEM_IDS,
    UnknownAlgebraError,
    get_algebra,
    verify_entry,
)
from .curvature import ricci_tensor_general, ricci_tensor_nilpotent
from .liealg import (
    ConstraintViolationError,
    InvalidAlgebraError,
    MetricLieAlgebra,
    entries_nilpotency_step,
    mat_trace,
)
from .quadfield import MixedRadicandError
from .ratpoly import MissingParameterError, PolynomialSyntaxError
from .soliton import NotNilpotentAtSampleError, numeric_soliton_oracle, obstruction_system

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class CliError(Exception):
    """User-facing error: message printed to stderr, exit code 1."""


# Errors that bad input causes: main prints them in one line and exits 1.
# Any other exception is a bug and propagates with its traceback.
USER_ERRORS = (
    CliError,
    AlgebraSyntaxError,
    PolynomialSyntaxError,
    MissingParameterError,
    InvalidAlgebraError,
    ConstraintViolationError,
    MixedRadicandError,
    NotNilpotentAtSampleError,
    UnknownAlgebraError,
)


# -- rendering ----------------------------------------------------------------


def format_matrix_rows(matrix: Iterable[Iterable]) -> list[str]:
    return [" ; ".join(str(entry) for entry in row) for row in matrix]


def format_sample(sample: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(sample.items()))


# -- argument handling ----------------------------------------------------------


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", metavar="ID", help="catalog algebra id")
    source.add_argument("--file", metavar="PATH", help="algebra definition file")


def _load_source(args: argparse.Namespace) -> AlgebraFile:
    if args.builtin is not None:
        return AlgebraFile(get_algebra(args.builtin), None)
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc}") from exc
    return parse_algebra_file(text, label=args.file)


def _parse_sample_flag(text: str) -> dict[str, object]:
    sample: dict[str, object] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, eq, value = piece.partition("=")
        if not eq:
            raise CliError(f"bad sample assignment {piece!r} (expected name=value)")
        name = name.strip()
        if name in sample:
            raise CliError(f"duplicate sample assignment for {name!r}")
        sample[name] = parse_sample_value(value)
    return sample


def _collect_sample(args: argparse.Namespace, source: AlgebraFile) -> dict[str, object]:
    sample = dict(source.sample or {})
    if getattr(args, "sample", None):
        sample.update(_parse_sample_flag(args.sample))
    g = source.algebra
    unknown = sorted(set(sample) - set(g.parameters()) - set(g.constraint_map()))
    if unknown:
        raise CliError(f"sample assigns undeclared parameters: {', '.join(unknown)}")
    return sample


# -- commands -------------------------------------------------------------------


def cmd_ricci(args: argparse.Namespace) -> int:
    source = _load_source(args)
    g = source.algebra
    ric = ricci_tensor_general(g) if args.general else ricci_tensor_nilpotent(g)
    scalar = mat_trace(ric)
    sample = _collect_sample(args, source)
    sample_given = args.sample is not None or source.sample is not None
    if sample_given:
        missing = [name for name in g.parameters() if name not in sample]
        if missing:  # an error, where a sign violation below only warns
            raise MissingParameterError(missing[0])
        try:
            g.check_sample(sample)
        except ConstraintViolationError as exc:
            # curvature evaluates fine at formal samples; only warn
            print(f"warning: {exc}", file=sys.stderr)
        # nilpotency is decided on the evaluated entries, whatever their signs
        entries = [(i, j, k, x) for i, j, k, p in g.entries if (x := p.evaluate(sample))]
        if not args.general and entries_nilpotency_step(entries, g.dim) is None:
            print(
                "warning: algebra is not nilpotent at this sample; "
                "the two-term Ricci formula does not apply (use --general)",
                file=sys.stderr,
            )
        ric = [[entry.evaluate(sample) for entry in row] for row in ric]
        scalar = scalar.evaluate(sample)
    rows = format_matrix_rows(ric)
    if args.porcelain:
        print("\n".join(rows))
        print(scalar)
    else:
        print(f"algebra: {g.label or 'user algebra'}")
        if sample:
            print(f"sample: {format_sample(sample)}")
        print("ricci operator" + (" (general formula)" if args.general else "") + ":")
        for row in rows:
            print(f"  {row}")
        print(f"scalar curvature: {scalar}")
    return EXIT_OK


def cmd_system(args: argparse.Namespace) -> int:
    source = _load_source(args)
    g = source.algebra
    lines = generated_system_lines(g)
    if args.porcelain:
        for line in lines:
            print(line)
    else:
        print(f"algebra: {g.label or 'user algebra'}")
        if not lines:
            print("empty system (no brackets, hence no obstructions)")
        else:
            print(
                f"obstruction system ({len(lines)} generators; "
                "provenance: bracket pair i j, residual coordinate k):"
            )
            for line in lines:
                print(f"  {line}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    source = _load_source(args)
    g = source.algebra
    sample = _collect_sample(args, source)
    verdict = numeric_soliton_oracle(g, sample)
    if args.porcelain:
        print(f"status {verdict.status}")
        if verdict.feasible:
            print(f"mu {verdict.witness_mu}")
            for row in format_matrix_rows(verdict.witness_d):
                print(f"D {row}")
        print(f"residual {verdict.residual_norm!r}")
    else:
        print(f"algebra: {g.label or 'user algebra'}")
        if sample:
            print(f"sample: {format_sample(sample)}")
        print(f"status: {verdict.status}")
        if verdict.feasible:
            print(f"mu = {verdict.witness_mu}")
            print("derivation D = Ric - mu*Id:")
            for row in format_matrix_rows(verdict.witness_d):
                print(f"  {row}")
        print(f"residual norm = {verdict.residual_norm!r}")
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def cmd_print_builtin(args: argparse.Namespace) -> int:
    algebra = get_algebra(args.id)
    sys.stdout.write(render_algebra_file(AlgebraFile(algebra, None)))
    return EXIT_OK


# -- verify-paper -----------------------------------------------------------------


def _golden_text(kind: str, algebra_id: str) -> str:
    path = resources.files("nilschouten").joinpath("golden", kind, f"{algebra_id}.txt")
    return path.read_text(encoding="utf-8")


def golden_payload_lines(text: str) -> list[str]:
    """Golden file content without comments and blank lines."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line:
            lines.append(line)
    return lines


def generated_ricci_lines(g: MetricLieAlgebra) -> list[str]:
    return format_matrix_rows(ricci_tensor_nilpotent(g))


def generated_system_lines(g: MetricLieAlgebra) -> list[str]:
    system = obstruction_system(g)
    return [
        f"{pair[0]} {pair[1]} {coord} : {poly}"
        for poly, (pair, coord) in zip(system.generators, system.provenance)
    ]


def run_verify_paper(seed: int, samples: int, porcelain: bool) -> int:
    assertions: list[tuple[str, bool, str]] = []

    goldens = (
        ("ricci", ALGEBRA_IDS, generated_ricci_lines, "Ricci matrix"),
        ("system", GOLDEN_SYSTEM_IDS, generated_system_lines, "obstruction system"),
    )
    for kind, algebra_ids, generate, what in goldens:
        for algebra_id in algebra_ids:
            name = f"{kind}-golden {algebra_id}"
            try:
                expected = golden_payload_lines(_golden_text(kind, algebra_id))
            except OSError as exc:
                assertions.append((name, False, f"missing golden: {exc}"))
                continue
            ok = generate(get_algebra(algebra_id)) == expected
            detail = "" if ok else f"generated {what} differs from golden file"
            assertions.append((name, ok, detail))

    classified = 0
    if samples > 0:
        for offset, algebra_id in enumerate(ALGEBRA_IDS):
            report = verify_entry(algebra_id, samples, samples, seed=seed + offset)
            detail = "" if report.passed else report.summary()
            assertions.append((f"classification {algebra_id}", report.passed, detail))
            classified += 1

    failures = [entry for entry in assertions if not entry[1]]
    if porcelain:
        for name, ok, detail in assertions:
            suffix = f"\t{detail}" if detail else ""
            print(f"{'ok' if ok else 'fail'}\t{name}{suffix}")
    else:
        for name, ok, detail in assertions:
            marker = "ok  " if ok else "FAIL"
            print(f"  {marker} {name}" + (f"  [{detail}]" if detail else ""))
        ricci_ok = sum(1 for n, ok, _ in assertions if ok and n.startswith("ricci-golden"))
        system_ok = sum(1 for n, ok, _ in assertions if ok and n.startswith("system-golden"))
        class_ok = sum(1 for n, ok, _ in assertions if ok and n.startswith("classification"))
        summary = (
            f"{class_ok}/{classified} classification entries verified; "
            f"{ricci_ok}/{len(ALGEBRA_IDS)} Ricci golden matrices match; "
            f"{system_ok}/{len(GOLDEN_SYSTEM_IDS)} obstruction-system golden files match"
        )
        if samples == 0:
            summary += " (golden-only mode: classification sampling skipped)"
        print(summary)
    return EXIT_OK if not failures else EXIT_ERROR


def cmd_verify_paper(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise CliError(f"--samples must be 0 or more, got {args.samples}")
    return run_verify_paper(args.seed, args.samples, args.porcelain)


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilschouten",
        description=(
            "Exact Ricci curvature and Schouten-like soliton verification for "
            "nilpotent metric Lie algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ricci = sub.add_parser("ricci", help="print the Ricci operator and scalar curvature")
    _add_source_flags(ricci)
    ricci.add_argument(
        "--sample", help="evaluate at name=value,... (rationals, or p + q*sqrt(m))"
    )
    ricci.add_argument(
        "--general", action="store_true", help="use the four-term formula with Killing/ad_H terms"
    )
    ricci.add_argument("--porcelain", action="store_true", help="machine-stable output")
    ricci.set_defaults(func=cmd_ricci)

    system = sub.add_parser("system", help="print the obstruction polynomial system")
    _add_source_flags(system)
    system.add_argument("--porcelain", action="store_true", help="machine-stable output")
    system.set_defaults(func=cmd_system)

    check = sub.add_parser("check", help="decide soliton feasibility at a sample")
    _add_source_flags(check)
    check.add_argument("--sample", help="sample assignment name=value,...")
    check.add_argument("--porcelain", action="store_true", help="machine-stable output")
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser(
        "verify-paper", help="replay the golden matrices, systems and classification"
    )
    verify.add_argument("--seed", type=int, default=7, help="RNG seed (default 7)")
    verify.add_argument(
        "--samples",
        type=int,
        default=50,
        help="samples per classification entry and kind (0 = golden checks only)",
    )
    verify.add_argument("--porcelain", action="store_true", help="machine-stable output")
    verify.set_defaults(func=cmd_verify_paper)

    builtin = sub.add_parser("print-builtin", help="print a catalog algebra definition file")
    builtin.add_argument("id", help=f"one of: {', '.join(ALGEBRA_IDS)}")
    builtin.set_defaults(func=cmd_print_builtin)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader closed stdout: devnull takes the rest, so the flush at
        # exit does not raise again (the recipe in Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
