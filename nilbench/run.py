"""Benchmark of the nilschouten package.

    python3 nilbench/run.py --workload {replay,symbolic,queries} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  One process runs one workload,
single-threaded.  Operations run in whole rounds (one case of every
stratum each, see workloads.py) until ``--seconds`` have passed, and every
answer is checked.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics, derived from spans that are
written to nilbench/out/.  The lines before it show every metric with its
unit, the failure ratio and the host reference time.

Times are reported at a nominal host speed (see DESIGN.md): a shared host
can change speed by up to 2x within a minute, so a fixed reference loop
is timed between rounds and every time is rescaled to a host on which
that loop takes NOMINAL_REF_MS.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 6
NOMINAL_REF_MS = 10.0


def fraction_reference() -> Fraction:
    """A fixed Fraction workload that imports nothing from the package; its
    time tracks the host's speed, not the code under test."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3 * i + 2)
    return acc


def reference_ms() -> float:
    start = time.perf_counter()
    fraction_reference()
    return (time.perf_counter() - start) * 1e3


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Import, build and draw in a fresh interpreter, at the nominal host
    speed: the child times the reference loop right after its set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    setup_s, ref = (float(x) for x in proc.stdout.split()[-2:])
    return setup_s * NOMINAL_REF_MS / ref


@dataclass
class Measurement:
    """Latencies and answer checks of one loop over the workload's rounds.

    ``scales`` holds, per op, NOMINAL_REF_MS over the mean reference time
    just before and just after the op's round."""

    latencies_ms: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    reference_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rounds: int = 0
    elapsed_s: float = 0.0
    nominal_elapsed_s: float = 0.0

    def nominal_latencies_ms(self) -> list[float]:
        return [lat * scale for lat, scale in zip(self.latencies_ms, self.scales)]


def measure(workload, rounds: list, seconds: float, tr, traced: bool) -> Measurement:
    """Run whole rounds, cycling through the drawn ones, until ``seconds``
    of rounds have passed.  Checks and traced-only extras run outside the
    latency; the reference loop runs between rounds, outside both."""
    result = Measurement(reference_ms=[reference_ms()])
    while True:
        start = time.perf_counter()
        ops = 0
        for case in rounds[result.rounds % len(rounds)]:
            tr.op = result.attempted
            result.attempted += 1
            ops += 1
            t0 = time.perf_counter()
            try:
                with tr.span("op"):
                    out = workload.run(case, tr)
            except Exception:  # an op that raises is a failed op; keep measuring
                result.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                result.failed += 1
                result.problems.append(f"{case.stratum}: {traceback.format_exc()}")
                continue
            result.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            problem = workload.check(case, out)
            if problem is not None:
                result.failed += 1
                result.problems.append(problem)
            if traced:
                workload.extras(case, out, tr)
        round_s = time.perf_counter() - start
        result.reference_ms.append(reference_ms())
        scale = 2 * NOMINAL_REF_MS / (result.reference_ms[-2] + result.reference_ms[-1])
        result.scales += [scale] * ops
        result.elapsed_s += round_s
        result.nominal_elapsed_s += round_s * scale
        result.rounds += 1
        if result.elapsed_s >= seconds:
            return result


def end_to_end_metrics(result: Measurement, setups: list[float]) -> dict[str, float]:
    lat = result.nominal_latencies_ms()
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": result.attempted / result.nominal_elapsed_s,
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def overhead_ratio(untraced: Measurement, traced: Measurement) -> float:
    """Traced over untraced latency at the nominal host speed, summed over
    the ops both halves made (the same inputs: both start at the first case)."""
    m = min(untraced.attempted, traced.attempted)
    return sum(traced.nominal_latencies_ms()[:m]) / sum(untraced.nominal_latencies_ms()[:m])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("replay", "symbolic", "queries"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_package():
    """Import the workloads (and with them the package) from this checkout."""
    if not (SRC / "nilschouten" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'nilschouten'}; "
                         "run from the root of a nilschouten checkout")
    sys.path.insert(0, str(SRC))
    import nilschouten
    import workloads

    if Path(nilschouten.__file__).resolve().parent != SRC / "nilschouten":
        raise SystemExit(f"error: imported nilschouten from {nilschouten.__file__}, not {SRC}")
    return workloads


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        from tracing import NullTracer

        start = time.perf_counter()
        load_package().WORKLOADS[args.workload].build(args.seed, NullTracer())
        setup_s = time.perf_counter() - start
        print(setup_s, statistics.median(reference_ms() for _ in range(3)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = load_package()
    from tracing import NullTracer, Tracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        tr = Tracer()
        rounds = workload.build(args.seed, tr)
        warmup = measure(workload, rounds, 0, NullTracer(), traced=False)
        untraced = measure(workload, rounds, args.seconds / 2, NullTracer(), traced=False)
        tr.phase = "op"
        traced = measure(workload, rounds, args.seconds / 2, tr, traced=True)
        tr.phase = "probe"
        workloads.probe(rounds[0], tr, args.seed)
        tr.write(BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        runs = [warmup, untraced, traced]
        ref = statistics.fmean(x for r in runs for x in r.reference_ms)
        # span times are rescaled by the run's mean reference time
        values = {
            name: value * NOMINAL_REF_MS / ref if name.endswith("_ms") else value
            for name, value in layer_metrics(tr, traced.rounds).items()
        }
        values["host.fraction_ref_ms"] = ref
        values["trace.overhead_ratio"] = overhead_ratio(untraced, traced)
        names = spec["per_layer"]
    else:
        # half the fresh set-ups before the timed phase and half after it
        setups = [fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS // 2)]
        rounds = workload.build(args.seed, NullTracer())
        warmup = measure(workload, rounds, 0, NullTracer(), traced=False)
        result = measure(workload, rounds, args.seconds, NullTracer(), traced=False)
        setups += [fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        runs = [warmup, result]
        ref = statistics.fmean(x for r in runs for x in r.reference_ms)
        values = end_to_end_metrics(result, setups)
        names = spec["end_to_end"]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for problem in [p for r in runs for p in r.problems][:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted} in {sum(r.rounds for r in runs)} rounds, the first one warm-up")
    print(f"  fail_ratio = {failed / attempted!r} (failed {failed} of {attempted})")
    print(f"  host reference loop {ref!r} ms on average; "
          f"times are rescaled to a host where it takes {NOMINAL_REF_MS} ms")
    if not args.trace:
        print(f"  unscaled: ops_per_s = {result.attempted / result.elapsed_s!r} 1/s, "
              f"op_p50_ms = {statistics.median(result.latencies_ms)!r} ms")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
