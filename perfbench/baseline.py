"""Measure one ten-seed set of the benchmark and add it to baseline.json.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Runs run.py on every workload in
BENCHMARK.json once for each of SEEDS with tracing off, then once with
tracing on, and appends the set to perfbench/baseline.json: for every
end-to-end metric its per-seed values, median, quartiles
(``statistics.quantiles``, n=4) and spread (q3 - q1) / median, and the
traced run's per-layer values.  It then prints each metric's spread against
its bound and its median against the previous set's.  Exits non-zero if a
run fails, a record fails the gate, a spread other than ``setup_s``'s
exceeds its bound, or a median is worse than the previous set's by more
than its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = json.loads(lines[0].removeprefix("environment: "))
    return json.loads(lines[-1]), env


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def worse_by(better: str, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main() -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    report = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in benchmark["workloads"]]:
        runs = []
        for seed in SEEDS:
            out, report["environment"] = run(workload, seed, 0, seconds)
            runs.append(out)
            print(f"{workload} seed {seed}: " + json.dumps(out["metrics"]), flush=True)
        traced, _ = run(workload, SEEDS[0], 1, seconds)
        ok &= all(r["correct"] for r in runs + [traced])
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: stats([r["metrics"][name]["value"] for r in runs]) for name in metrics
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    sets = json.loads(OUT.read_text())["sets"] if OUT.exists() else []
    previous = sets[-1] if sets else None
    OUT.write_text(json.dumps({"sets": sets + [report]}, indent=1) + "\n")

    print(f"{'workload':12s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}  note")
    for workload, result in report["workloads"].items():
        for name, s in result["end_to_end"].items():
            bound, notes = metrics[name]["bound"], []
            if s["spread"] > bound:
                notes.append("spread > bound")
                ok &= name == "setup_s"
            elif s["spread"] >= bound / 3:
                notes.append("spread >= bound/3")
            old = (previous or {}).get("workloads", {}).get(workload, {}).get("end_to_end", {})
            if name in old:
                change = worse_by(metrics[name]["better"], s["median"], old[name]["median"])
                notes.append(f"worse by {change:+.3f} than the previous set")
                if change > bound:
                    notes.append("REGRESSION")
                    ok = False
            print(f"{workload:12s} {name:14s} {s['median']:12.6g} {s['spread']:8.4f} {bound:6.2f}  "
                  + "; ".join(notes))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
