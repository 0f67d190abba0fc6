"""Command-line interface: outputs, exit codes, porcelain stability."""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import nilschouten.cli as cli
import reference_data
from nilschouten import catalog
from nilschouten.catalog import ALGEBRA_IDS
from nilschouten.algfile import AlgebraFile, parse_algebra_file, render_algebra_file
from nilschouten.catalog import get_algebra
from nilschouten.soliton import SolitonVerdict


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_ricci_builtin_matrix():
    code, out, _ = run_cli("ricci", "--builtin", "A3_1+2A1", "--porcelain")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "-1/2*alpha^2 ; 0 ; 0 ; 0 ; 0"
    assert lines[4] == "0 ; 0 ; 0 ; 0 ; 1/2*alpha^2"
    assert lines[5] == "-1/2*alpha^2"


def test_ricci_zero_for_abelian():
    code, out, _ = run_cli("ricci", "--builtin", "5A1", "--porcelain")
    assert code == 0
    assert out.splitlines() == ["0 ; 0 ; 0 ; 0 ; 0"] * 5 + ["0"]


def test_ricci_sample_evaluation():
    code, out, _ = run_cli(
        "ricci", "--builtin", "A5_4", "--sample", "alpha=0,beta=1,gamma=1", "--porcelain"
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "-1/2 ; 0 ; 0 ; 0 ; 0"
    assert rows[1] == "0 ; -1/2 ; 0 ; 0 ; 0"
    assert rows[2] == "0 ; 0 ; -1/2 ; 0 ; 0"
    assert rows[3] == "0 ; 0 ; 0 ; -1/2 ; 0"
    assert rows[4] == "0 ; 0 ; 0 ; 0 ; 1"
    assert rows[5] == "-1"


def test_ricci_general_flag():
    plain = run_cli("ricci", "--builtin", "A5_4", "--porcelain")
    general = run_cli("ricci", "--builtin", "A5_4", "--general", "--porcelain")
    assert plain == general  # B and H terms vanish on the catalog


def test_system_porcelain_and_empty():
    code, out, _ = run_cli("system", "--builtin", "A5_4", "--porcelain")
    assert code == 0
    assert len(out.splitlines()) == 4
    assert any(line.endswith("alpha*beta*gamma") for line in out.splitlines())

    code, out, _ = run_cli("system", "--builtin", "5A1", "--porcelain")
    assert code == 0 and out == ""
    code, out, _ = run_cli("system", "--builtin", "5A1")
    assert code == 0 and "empty system" in out


def test_system_generator_count_for_a5_2():
    code, out, _ = run_cli("system", "--builtin", "A5_2", "--porcelain")
    generators = [line.rpartition(" : ")[2] for line in out.splitlines()]
    assert len(generators) == 6
    assert "alpha*beta*gamma" in generators
    assert "alpha*beta*delta" in generators


def test_check_exit_codes():
    code, out, _ = run_cli(
        "check", "--builtin", "A5_1", "--sample", "alpha=1,beta=0,gamma=1", "--porcelain"
    )
    assert code == 0
    assert "status feasible" in out and "mu -2" in out

    code, out, _ = run_cli(
        "check", "--builtin", "A5_1", "--sample", "alpha=1,beta=1,gamma=1", "--porcelain"
    )
    assert code == 2
    assert "status infeasible" in out

    code, out, _ = run_cli("check", "--builtin", "5A1", "--porcelain")
    assert code == 0
    assert "mu 0" in out

    # constraint violation -> error exit
    code, _, err = run_cli(
        "check", "--builtin", "A5_1", "--sample", "alpha=-1,beta=0,gamma=1"
    )
    assert code == 1 and "violates" in err

    # missing parameters -> error exit
    code, _, err = run_cli("check", "--builtin", "A5_1")
    assert code == 1


def test_check_residual_past_float_range_prints_inf():
    code, out, err = run_cli(
        "check", "--builtin", "A5_4", "--porcelain", "--sample", "alpha=1,beta=1,gamma=1e120"
    )
    assert (code, out, err) == (2, "status infeasible\nresidual inf\n", "")


def test_check_reads_file_with_sample(tmp_path):
    path = tmp_path / "algebra.txt"
    path.write_text(
        "dim 5\nparam alpha positive\nbracket 1 2 : alpha*e5\nsample alpha = 2\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli("check", "--file", str(path), "--porcelain")
    assert code == 0
    assert "status feasible" in out
    # flag overrides file sample
    code2, out2, _ = run_cli(
        "check", "--file", str(path), "--sample", "alpha=1", "--porcelain"
    )
    assert code2 == 0 and "mu -3/2" in out2


def test_check_accepts_quadratic_sample_values(tmp_path):
    # the A5_5 family point at q = 1, which no rational sample reaches
    sample = "alpha=sqrt(2),beta=0,gamma=1,delta=0,epsilon=sqrt(2)"
    code, out, _ = run_cli("check", "--builtin", "A5_5", "--sample", sample, "--porcelain")
    assert code == 0
    assert out.splitlines()[:2] == ["status feasible", "mu -7/2"]
    # the same point from sample lines, written as p + q*sqrt(m) forms
    path = tmp_path / "a55.txt"
    path.write_text(
        render_algebra_file(AlgebraFile(get_algebra("A5_5"), None))
        + "sample alpha = 0 + 1*sqrt(2)\nsample beta = 0\nsample gamma = sqrt(1)\n"
        + "sample delta = 1 - sqrt(1)\nsample epsilon = 1/2*sqrt(8)\n",
        encoding="utf-8",
    )
    assert run_cli("check", "--file", str(path), "--porcelain")[1] == out
    # mixed radicands and bad literals: exit 1 with one line naming them
    for text, named in (
        ("alpha=0,beta=sqrt(2),gamma=sqrt(3)", "sqrt(2) and sqrt(3)"),
        ("alpha=0,beta=sqrt(two),gamma=1", "'sqrt(two)'"),
        ("alpha=0,beta=1,gamma=sqrt(-3)", "'sqrt(-3)'"),
    ):
        code, out, err = run_cli("check", "--builtin", "A5_4", "--sample", text, "--porcelain")
        assert code == 1 and out == "" and named in err
        assert len(err.splitlines()) == 1, err


def test_sample_rejects_undeclared_parameters(tmp_path):
    code, out, err = run_cli(
        "check", "--builtin", "A5_1", "--sample", "alpha=1,beta=0,gamma=1,zeta=3"
    )
    assert code == 1 and out == ""
    assert "zeta" in err
    path = tmp_path / "algebra.txt"
    path.write_text(
        "dim 5\nparam alpha positive\nbracket 1 2 : alpha*e5\n"
        "sample alpha = 2\nsample zeta = 1\n",
        encoding="utf-8",
    )
    for command in ("check", "ricci"):
        code, _, err = run_cli(command, "--file", str(path))
        assert code == 1 and "zeta" in err


def test_duplicate_sample_flag_rejected(tmp_path):
    code, out, err = run_cli(
        "check", "--builtin", "A5_1", "--sample", "alpha=3,beta=0,gamma=1,alpha=-1"
    )
    assert code == 1 and out == ""
    assert "duplicate" in err and "alpha" in err
    # one flag value still overrides the file's value
    path = tmp_path / "algebra.txt"
    path.write_text(
        "dim 5\nparam alpha positive\nbracket 1 2 : alpha*e5\nsample alpha = 2\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli("check", "--file", str(path), "--sample", "alpha=4", "--porcelain")
    assert code == 0 and "mu -24" in out


def test_system_reserved_parameter_is_user_error(tmp_path):
    for name in ("c", "lambda0"):
        path = tmp_path / f"reserved_{name}.txt"
        path.write_text(f"dim 3\nparam {name} free\nbracket 1 2 : {name}*e3\n", encoding="utf-8")
        code, out, err = run_cli("system", "--file", str(path))
        assert code == 1 and out == ""
        assert err == f"error: algebra parameters collide with soliton constants: ['{name}']\n"


def test_internal_errors_propagate(monkeypatch):
    def broken(g, sample):
        raise RuntimeError("internal bug")

    monkeypatch.setattr(cli, "numeric_soliton_oracle", broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        cli.main(["check", "--builtin", "A5_1", "--sample", "alpha=1,beta=0,gamma=1"])


def test_ricci_sample_missing_parameter():
    code, _, err = run_cli("ricci", "--builtin", "A5_4", "--sample", "alpha=1")
    assert code == 1
    # one error line naming the unassigned parameter, with no warning first
    assert err == "error: missing value for parameter 'beta'\n"


def test_ricci_inadmissible_sample_warns_but_evaluates():
    # sign constraints gate the soliton analysis, not curvature evaluation
    code, out, err = run_cli(
        "ricci", "--builtin", "A5_4", "--sample", "alpha=0,beta=-1,gamma=1", "--porcelain"
    )
    assert code == 0
    assert "violates" in err
    assert out.splitlines()[5] == "-1"  # scalar at the formal sample


def test_ricci_warns_on_non_nilpotent_sample(tmp_path):
    path = tmp_path / "solvable.txt"
    path.write_text("dim 2\nbracket 1 2 : e2\n", encoding="utf-8")
    code, out, err = run_cli("ricci", "--file", str(path), "--sample", "", "--porcelain")
    assert code == 0  # matrix still printed, with a warning
    assert "not nilpotent" in err
    code_general, _, err_general = run_cli(
        "ricci", "--file", str(path), "--sample", "", "--general", "--porcelain"
    )
    assert code_general == 0 and "not nilpotent" not in err_general


def test_ricci_sign_violation_keeps_the_nilpotency_warning(tmp_path):
    # the sign check and the nilpotency check are independent: at a = -1 the
    # sample violates 'positive' and the algebra is still not nilpotent
    path = tmp_path / "solvable.txt"
    path.write_text("dim 2\nparam a positive\nbracket 1 2 : a*e2\n", encoding="utf-8")
    not_nilpotent = (
        "warning: algebra is not nilpotent at this sample; "
        "the two-term Ricci formula does not apply (use --general)\n"
    )
    for value, warnings in (("1", ""), ("-1", "warning: a = -1 violates 'positive'\n")):
        code, out, err = run_cli("ricci", "--file", str(path), "--sample", f"a={value}", "--porcelain")
        assert (code, out, err) == (0, "-1/2 ; 0\n0 ; 0\n-1/2\n", warnings + not_nilpotent), value


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim 5\nbracket 1 1 : e2\n", encoding="utf-8")
    code, _, err = run_cli("ricci", "--file", str(path))
    assert code == 1
    assert "line 2" in err


def test_print_builtin_round_trips():
    for algebra_id in ALGEBRA_IDS:
        code, out, _ = run_cli("print-builtin", algebra_id)
        assert code == 0
        parsed = parse_algebra_file(out)
        expected = get_algebra(algebra_id)
        assert (parsed.algebra.dim, parsed.algebra.entries) == (expected.dim, expected.entries)


def test_print_builtin_texts_are_pinned():
    assert tuple(reference_data.BUILTIN_TEXTS) == ALGEBRA_IDS
    for algebra_id, text in reference_data.BUILTIN_TEXTS.items():
        assert run_cli("print-builtin", algebra_id) == (0, text, ""), algebra_id


UNKNOWN_ID_LINE = (
    "error: unknown algebra 'NOPE'; valid ids: 5A1, A5_4, A3_1+2A1, A4_1+A1_case1, "
    "A4_1+A1_case2, A5_6, A5_5, A5_3, A5_1, A5_2\n"
)


def test_print_builtin_unknown():
    assert run_cli("print-builtin", "NOPE") == (1, "", UNKNOWN_ID_LINE)


@pytest.mark.parametrize("command", ["ricci", "system", "check"])
def test_unknown_builtin_id_is_one_plain_line(command):
    assert run_cli(command, "--builtin", "NOPE") == (1, "", UNKNOWN_ID_LINE)


def test_porcelain_is_byte_stable():
    first = run_cli("verify-paper", "--seed", "3", "--samples", "2", "--porcelain")
    second = run_cli("verify-paper", "--seed", "3", "--samples", "2", "--porcelain")
    assert first == second
    assert first[0] == 0
    lines = first[1].splitlines()
    # 10 ricci + 8 system + 10 classification assertions
    assert len(lines) == 28
    assert all(line.startswith("ok\t") for line in lines)


def test_verify_paper_golden_only_mode():
    code, out, _ = run_cli("verify-paper", "--samples", "0", "--porcelain")
    assert code == 0
    assert len(out.splitlines()) == 18


def test_verify_paper_rejects_negative_samples():
    code, out, err = run_cli("verify-paper", "--samples", "-3", "--porcelain")
    assert code == 1
    assert out == ""
    assert "--samples" in err and "-3" in err


def test_verify_paper_human_summary():
    code, out, _ = run_cli("verify-paper", "--samples", "0")
    assert code == 0
    assert "10/10 Ricci golden matrices match" in out
    assert "8/8 obstruction-system golden files match" in out


def test_verify_paper_detects_tampered_golden(monkeypatch):
    real = cli._golden_text

    def tampered(kind: str, algebra_id: str) -> str:
        text = real(kind, algebra_id)
        if kind == "system" and algebra_id == "A5_2":
            return text.replace("alpha*beta*delta", "alpha*beta*epsilon")
        return text

    monkeypatch.setattr(cli, "_golden_text", tampered)
    code, out, _ = run_cli("verify-paper", "--samples", "0", "--porcelain")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("fail")]
    assert failing == [
        "fail\tsystem-golden A5_2\tgenerated obstruction system differs from golden file"
    ]


def test_verify_paper_names_its_first_counterexample(monkeypatch):
    real = catalog.numeric_soliton_oracle

    def inverted(g, sample):
        status = "infeasible" if real(g, sample).feasible else "feasible"
        return SolitonVerdict(status, None, None, 0.0)

    monkeypatch.setattr(catalog, "numeric_soliton_oracle", inverted)
    code, out, _ = run_cli("verify-paper", "--seed", "7", "--samples", "1", "--porcelain")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("fail")]
    assert len(failing) == len(ALGEBRA_IDS)
    # verify-paper seeds the second id with 7 + 1; its first draw is on the family
    first = catalog.draw_on_family_sample("A5_4", random.Random(8))
    pairs = ", ".join(f"{name}={value}" for name, value in sorted(first.items()))
    assert failing[1] == (
        "fail\tclassification A5_4\tA5_4: verdict=family feasible=1 infeasible=1 "
        f"FAIL (2 counterexamples); first: {pairs} expected feasible, got infeasible"
    )
    assert failing[1].endswith(
        "first: alpha=0, beta=4/3, gamma=4/3 expected feasible, got infeasible"
    )


def test_package_imports_only_the_standard_library():
    # the test extras (sympy, hypothesis) are installed wherever this runs,
    # so a stray runtime import of them would otherwise go unnoticed
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nilschouten, nilschouten.cli\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "nilschouten" in out
    assert [m for m in out if m != "nilschouten" and m not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly(unbuffered):
    # the reader of stdout is gone before the first write: exit 1 with
    # nothing on stderr.  Unbuffered, the first print raises; buffered, the
    # output would leave at interpreter exit, so main flushes it itself.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "nilschouten.cli", "check", "--builtin", "A5_6", "--porcelain",
             "--sample", "alpha=-3,beta=0,gamma=3,delta=0,epsilon=sqrt(6),sigma=sqrt(6)"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")
