"""Regenerate the reference records the correctness gate compares against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  For each workload this draws the
benchmark's fixed pool of inputs (trial seeds per cell, or campaign master
seeds), runs them through the package and writes perfbench/reference/NAME.csv.
The files pin the package's output at the commit that made them; regenerate
them only together with a recalibration of the package's records.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import bench
import gate


def reference_rows(harness, name: str) -> list[dict]:
    workload = bench.WORKLOADS[name]
    if workload.campaign:
        rows = []
        for master in bench.pool_seeds(name, workload.pool):
            cfg = bench.campaign_config(
                harness, bench.CAMPAIGN_GRID, bench.CAMPAIGN_TRIALS, master, None
            )
            result = harness.run_experiment(cfg)
            if result.failures:
                raise SystemExit(f"campaign {master} had failed trials: {result.failures}")
            rows += [gate.reference_row(master, rec) for rec in result.records]
        return rows
    rows = []
    for n, m in workload.cells:
        for seed in bench.pool_seeds(f"{name}:{n}:{m}", workload.pool):
            rows.append(gate.reference_row(0, harness.run_trial(n, m, seed)))
    return rows


def main() -> int:
    harness = bench.import_harness()
    for name in bench.WORKLOADS:
        rows = reference_rows(harness, name)
        bad = [p for row in rows for p in gate.invariant_problems(SimpleNamespace(**row))]
        if bad:
            raise SystemExit(f"{name}: reference breaks invariants: {bad[:5]}")
        print(f"{name}: {len(rows)} rows -> {gate.write_reference(name, rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
