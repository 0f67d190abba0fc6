"""Self-test of the benchmark: python3 nilbench/selftest.py (about a minute).

1. A tiny run of every workload, untraced and traced, prints as its last
   line the result object with every metric BENCHMARK.json names, each
   with its unit, and no failed op.
2. Each workload's answer checker, fed a deliberately wrong expected
   value, counts a failed op, so the failure ratio rises above 0.
3. Without the package source next to it the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "nilbench/run.py", *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=cwd)


def check_tiny_runs() -> None:
    for name in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, (name, trace, proc.stderr)
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {metric: v["unit"] for metric, v in result["metrics"].items()}
            assert got == wanted, (name, trace, set(got) ^ set(wanted))
            for metric, v in result["metrics"].items():
                value = v["value"]
                assert isinstance(value, (int, float)) and not isinstance(value, bool), metric
                assert math.isfinite(value), (metric, value)
                if wanted[metric] in ("ms", "s", "1/s", "MB"):
                    assert value > 0, (name, metric, value)


def _wrong_expectations(name: str, cases: list) -> list:
    """The same round with the first checkable case's expected answer wrong."""
    out = list(cases)
    for index, case in enumerate(out):
        if name == "replay":
            out[index] = replace(case, expect=not case.expect)
        elif name == "queries" and isinstance(case.expect, Fraction):
            out[index] = replace(case, expect=case.expect + 1)
        elif name == "symbolic" and isinstance(case.expect, tuple):
            ricci, system = case.expect
            out[index] = replace(case, expect=([ricci[0] + " "] + ricci[1:], system))
        else:
            continue
        return out
    raise AssertionError(f"no checkable case in the first {name} round")


def check_wrong_expectations_fail() -> None:
    workloads = run.load_package()
    from tracing import NullTracer

    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        first = workload.build(5, NullTracer())[0]
        honest = run.measure(workload, [first], 0, NullTracer(), traced=False)
        assert honest.failed == 0, honest.problems
        wrong = run.measure(workload, [_wrong_expectations(name, first)], 0, NullTracer(), traced=False)
        assert wrong.failed / wrong.attempted > 0, name


def check_bare_directory_fails() -> None:
    bare = run.BENCH_DIR / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "nilbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "nilbench")
    try:
        proc = bench("--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    failures = 0
    for check in (check_tiny_runs, check_wrong_expectations_fail, check_bare_directory_fails):
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
