"""Spans around the calls ``isohull.harness`` makes into each module.

The tracer replaces names in the ``isohull.harness`` namespace with wrappers
that record a span per call: name, start, end, parent span and trial id (the
id of the enclosing root span).  Nothing inside the package changes, so the
parent commit and a change are traced by identical code.

Spans stay in memory.  Campaign workers are forked from the traced process
and inherit the wrappers; a worker writes the spans of each finished trial
to its own file in the spool directory, because its exit cannot be hooked,
and :meth:`Tracer.collect` merges those files into the parent's list.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# harness global -> span name, prefixed with the module that owns the function.
TRACED = {
    "run_trial": "harness.run_trial",
    "sample_symmetric_cloud": "sphere_stats.sample",
    "symmetric_hull": "hull.symmetric_hull",
    "validate_complex": "hull.validate_complex",
    "polytope_volume": "moments.polytope_volume",
    "polytope_mean_square": "moments.polytope_mean_square",
    "polytope_covariance": "moments.polytope_covariance",
    "facet_cross_sums": "moments.facet_cross_sums",
    "isotropy_constant": "isotropy.isotropy_constant",
    "summarize_records": "harness.summarize_records",
    "emit_records": "harness.emit_records",
}
HULL_SPAN = "hull.symmetric_hull"
TRIAL_SPAN = "harness.run_trial"


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._owner = self._pid = os.getpid()
        self._seq = 0

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:  # first call in a forked worker
                self._pid, self.spans, self._stack = os.getpid(), [], []
            parent = self._stack[-1] if self._stack else None
            self._seq += 1
            sid = f"{self._pid}:{self._seq}"
            span = {
                "id": sid,
                "name": name,
                "parent": parent["id"] if parent else None,
                "trial": parent["trial"] if parent else sid,
                "pid": self._pid,
            }
            self._stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(span)
                if parent is None and self._pid != self._owner:
                    self._spool()
            if name == HULL_SPAN:
                span["facets"], span["dim"] = result.facet_count, result.n
            return result

        return traced

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in self.spans))
        self.spans = []

    @contextmanager
    def installed(self, module):
        """Trace the module's calls for the duration of the block."""
        saved = {name: getattr(module, name) for name in TRACED}
        for name, span_name in TRACED.items():
            setattr(module, name, self._span(span_name, saved[name]))
        try:
            yield self
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def collect(self) -> list[dict]:
        """Merge and delete the workers' spool files; return every span."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            self.spans.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        return self.spans


def _covered(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[str, int]:
    """Span id -> duration minus the part of it that child spans cover (ns)."""
    children: dict[str, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: s["end"] - s["start"] - _covered(s["start"], s["end"], children.get(s["id"], []))
        for s in spans
    }


def layer_metrics(spans: list[dict], busy_capacity_ns: int) -> dict[str, float]:
    """Per-layer figures from a span list.

    ``busy_capacity_ns`` is workers x wall time of the traced loop; the share
    of it spent inside ``run_trial`` is the worker busy fraction.
    """
    durations: dict[str, list[int]] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])

    def median_ms(name: str) -> float:
        return statistics.median(durations[name]) / 1e6

    selfs = self_times(spans)
    trials = [s for s in spans if s["name"] == TRIAL_SPAN]
    hulls = [s for s in spans if s["name"] == HULL_SPAN and "facets" in s]
    return {
        "sphere_stats.sample_ms": median_ms("sphere_stats.sample"),
        "hull.symmetric_hull_ms": median_ms(HULL_SPAN),
        "hull.validate_complex_ms": median_ms("hull.validate_complex"),
        "hull.facets": float(statistics.median(s["facets"] for s in hulls)),
        "hull.attempts_per_trial": len(durations[HULL_SPAN]) / len(trials),
        "moments.polytope_volume_ms": median_ms("moments.polytope_volume"),
        "moments.polytope_mean_square_ms": median_ms("moments.polytope_mean_square"),
        "moments.polytope_covariance_ms": median_ms("moments.polytope_covariance"),
        "moments.facet_cross_sums_ms": median_ms("moments.facet_cross_sums"),
        # computed, not measured: facet_vertices() gathers F x n x n float64
        "moments.gather_mb": max(s["facets"] * s["dim"] ** 2 * 8 for s in hulls) / 1e6,
        "isotropy.isotropy_constant_ms": median_ms("isotropy.isotropy_constant"),
        "harness.run_trial_self_ms": statistics.median(selfs[s["id"]] for s in trials) / 1e6,
        "harness.summarize_records_ms": median_ms("harness.summarize_records"),
        "harness.emit_records_ms": median_ms("harness.emit_records"),
        "harness.worker_busy_frac": sum(durations[TRIAL_SPAN]) / busy_capacity_ns,
    }
