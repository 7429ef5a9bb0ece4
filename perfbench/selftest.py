"""Tests of the benchmark itself (about a minute).

    python3 -m pytest perfbench/selftest.py

Run from the root of a source checkout.  The file name keeps these tests out
of the package's own suite, which collects only test_*.py files.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench
import gate
import tracing

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, seconds: float = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(out["metrics"]) == set(expected)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], float) and metric["value"] == metric["value"]
    if trace:
        assert out["metrics"]["hull.attempts_per_trial"]["value"] == 1.0
        # campaign trials run in forked workers, so this reads 0 unless their spans arrive
        assert out["metrics"]["harness.worker_busy_frac"]["value"] > 0.5


def test_perturbed_l_k_is_counted_failed():
    harness = bench.import_harness()
    # a campaign input with trial index 0 is also a valid run_trial input
    row = gate.load_reference("campaign")[0]
    assert (row["n"], row["trial"]) == (2, 0)

    def perturbed(n, m, seed):
        rec = harness.run_trial(n, m, seed)
        return dataclasses.replace(rec, l_k=rec.l_k * (1 + 1e-6))

    good = bench.run_one_trial(harness, row)
    bad = bench.run_one_trial(SimpleNamespace(run_trial=perturbed), row)
    assert (good.failed, bad.failed) == (0, 1)
    assert any(p.startswith("l_k ") for p in bad.problems)
    tally = bench.Tally()
    tally.add(good)
    tally.add(bad)
    out = bench.result([tally], {})
    assert (out["attempted"], out["failed"], out["correct"]) == (2, 1, False)


def test_invariants_do_not_depend_on_reference():
    row = dict(gate.load_reference("heavy-cell")[0])
    assert gate.invariant_problems(SimpleNamespace(**row)) == []
    for field, value in [
        ("l_k", row["identity_bound"] * 1.01),
        ("inradius", 1.5),
        ("mean_square", row["n"] / (row["n"] + 2.0) * 1.01),
        ("facet_count", row["facet_count"] + 1),
    ]:
        assert gate.invariant_problems(SimpleNamespace(**dict(row, **{field: value})))


def test_self_time_arithmetic():
    def span(sid, parent, start, end):
        return {"id": sid, "name": sid, "parent": parent, "start": start, "end": end}

    spans = [
        span("root", None, 0, 100),
        span("a", "root", 10, 30),
        span("b", "root", 25, 50),  # overlaps a: the union counts once
        span("a1", "a", 12, 20),
        span("c", "root", 90, 120),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == {"root": 50, "a": 12, "b": 25, "a1": 8, "c": 30}


def test_tracer_restores_the_module(tmp_path):
    module = SimpleNamespace(**{name: (lambda *a: a) for name in tracing.TRACED})
    before = dict(vars(module))
    tracer = tracing.Tracer(tmp_path)
    with tracer.installed(module):
        assert module.run_trial(1, 2) == (1, 2)
        assert module.summarize_records() == ()
    assert vars(module) == before
    assert [s["name"] for s in tracer.collect()] == ["harness.run_trial", "harness.summarize_records"]


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "heavy-cell", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
