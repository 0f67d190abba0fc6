"""In-memory spans and counts, and the per-layer metrics derived from them.

A span records one public call into a package module: name, start, end,
parent span, op id and phase ("setup", "op" or "probe").  Counts record
work or input properties at the same boundaries.  Both stay in memory
until ``write`` saves them as JSON lines at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from pathlib import Path

# per-layer metric -> span it is the median duration of
SPAN_TIMES = {
    "curvature.ricci_numeric_ms": "curvature.ricci_numeric",
    "curvature.ricci_symbolic_ms": "curvature.ricci_symbolic",
    "liealg.nilpotency_ms": "liealg.nilpotency",
    "liealg.evaluate_ms": "liealg.evaluate",
    "liealg.construct_ms": "liealg.construct",
    "soliton.oracle_exact_rational_ms": "soliton.oracle_exact_rational",
    "soliton.oracle_exact_quadratic_ms": "soliton.oracle_exact_quadratic",
    "soliton.oracle_float_ms": "soliton.oracle_float",
    "soliton.schouten_check_ms": "soliton.schouten_check",
    "soliton.system_ms": "soliton.system",
    "soliton.residual_ms": "soliton.residual",
    "ratpoly.render_ms": "ratpoly.render",
    "algfile.parse_ms": "algfile.parse",
    "catalog.draw_ms": "catalog.draw",
    "cli.golden_replay_ms": "cli.golden_replay",
}
PER_OP_MEDIANS = (
    "liealg.nonzero_entries",
    "liealg.density",
    "soliton.generators",
    "soliton.residual_coords",
    "ratpoly.terms",
)
PER_ROUND_TOTALS = ("soliton.verdicts_feasible", "soliton.verdicts_infeasible")
ORACLE_STAGES = ("liealg.nilpotency", "liealg.evaluate", "curvature.ricci_numeric")
EXACT_ORACLES = ("soliton.oracle_exact_rational", "soliton.oracle_exact_quadratic")


class NullTracer:
    """Tracer of the untraced runs: spans and counts cost one call each."""

    op = 0
    phase = "op"
    _nothing = contextlib.nullcontext()

    def span(self, name: str):
        return self._nothing

    def count(self, name: str, value) -> None:
        pass


class Tracer:
    def __init__(self):
        self.op = 0
        self.phase = "setup"
        self.spans: list[tuple] = []  # (id, parent, op, phase, name, start_ns, end_ns)
        self.counts: list[tuple] = []  # (op, phase, name, value)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op, self.phase, name, start, end))

    def count(self, name: str, value) -> None:
        self.counts.append((self.op, self.phase, name, value))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "phase", "name", "start_ns", "end_ns")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")
            for op, phase, name, value in self.counts:
                out.write(json.dumps({"op": op, "phase": phase, "count": name, "value": value}) + "\n")


def _pick(records: list[tuple], phase_of) -> list[tuple]:
    """Records of the workload's own set-up and operations, or, when these
    never reached the layer, the records of the probe."""
    own = [r for r in records if phase_of(r) != "probe"]
    return own or [r for r in records if phase_of(r) == "probe"]


def layer_metrics(tr: Tracer, op_rounds: int) -> dict[str, float]:
    """Per-layer metrics: median span time per call, median count per op,
    verdicts per round and the oracle's own time estimate.  A layer with no
    record at all, not even from the probe, raises."""
    out: dict[str, float] = {}
    by_name: dict[str, list[tuple]] = {}
    for span in tr.spans:
        by_name.setdefault(span[4], []).append(span)
    for metric, name in SPAN_TIMES.items():
        spans = _pick(by_name.get(name, []), lambda s: s[3])
        out[metric] = statistics.median((s[6] - s[5]) / 1e6 for s in spans)

    counts: dict[str, list[tuple]] = {}
    for record in tr.counts:
        counts.setdefault(record[2], []).append(record)
    picked = {name: _pick(records, lambda r: r[1]) for name, records in counts.items()}

    def values(name):
        return [r[3] for r in picked.get(name, [])]

    for name in PER_OP_MEDIANS:
        out[name] = statistics.median(values(name))
    for name in PER_ROUND_TOTALS:
        records = picked[name]
        rounds = op_rounds if records[0][1] != "probe" else 1
        out[name] = sum(r[3] for r in records) / rounds
    shares = values("quadfield.sample_share")
    out["quadfield.sample_share"] = sum(shares) / len(shares)
    out["soliton.dedup_ratio"] = sum(values("soliton.generators")) / sum(values("soliton.residual_coords"))

    # oracle self time: the exact oracle minus its stages timed by separate
    # calls on the same input (an estimate: the stages repeat some work)
    exact = _pick([s for s in tr.spans if s[4] in EXACT_ORACLES], lambda s: s[3])
    phase = exact[0][3]
    stages: dict[int, float] = {}
    for s in tr.spans:
        if s[3] == phase and s[4] in ORACLE_STAGES:
            stages[s[2]] = stages.get(s[2], 0.0) + (s[6] - s[5]) / 1e6
    selfs = [(s[6] - s[5]) / 1e6 - stages[s[2]] for s in exact if s[2] in stages]
    out["soliton.oracle_self_ms"] = statistics.median(selfs)
    return out
