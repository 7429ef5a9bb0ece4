"""One benchmark workload, run in a fresh interpreter.

    python3 perfbench/bench.py --workload NAME --seed S --seconds T --trace 0|1 [--setup-only]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The process imports the package, does one untimed
warm-up trial on a small cell (for ``campaign``, a small two-worker
campaign, which also starts and stops a pool) and prints ``READY``; run.py
times set-up up to that line.  With ``--setup-only`` it stops there.
Otherwise it runs the workload as a closed loop, one trial or campaign
after another from this single process, until ``--seconds`` have passed,
checks every record with gate.py and prints one JSON line with the result.

The master seed never reaches the package: it only picks which reference
inputs (trial seeds, or campaign master seeds) are run and in what order.
BLAS and OpenMP thread settings are left as found, because worker BLAS
threading is the package's own behaviour.

With ``--trace 1`` each input runs twice, untraced and then traced, so the
two passes do identical work; their records must be equal, and the ratio
of their throughputs is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracing

ROOT = Path.cwd()
CAMPAIGN_GRID = tuple(
    (n, max(n + 1, int(r * n + 0.5))) for n in range(2, 9) for r in (1.5, 2.0, 3.0, 8.0)
)
CAMPAIGN_TRIALS = 2
CAMPAIGN_WORKERS = 2
WARMUP_CELL = (3, 6)
WARMUP_SEED = 20070710
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    cells: tuple[tuple[int, int], ...]
    pool: int  # reference inputs per cell, or campaign master seeds
    campaign: bool = False


WORKLOADS = {
    "heavy-cell": Workload(((8, 64),), pool=10),
    "campaign": Workload(CAMPAIGN_GRID, pool=6, campaign=True),
}


def pool_seeds(label: str, count: int) -> list[int]:
    """Reference-input seeds; fixed for the benchmark, independent of the package."""
    rng = random.Random(f"perfbench-pool:{label}")
    return [rng.getrandbits(63) for _ in range(count)]


def import_harness():
    """``isohull.harness`` from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "isohull" / "__init__.py").is_file():
        raise SystemExit(f"no isohull sources under {src}")
    sys.path.insert(0, str(src))
    import isohull.harness as harness

    if not Path(harness.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"isohull imported from {harness.__file__}, not {src}")
    return harness


def campaign_config(harness, grid, trials: int, master: int, output_dir: Path | None):
    return harness.ExperimentConfig(
        grid=tuple(grid),
        trials=trials,
        master_seed=master,
        output_dir=None if output_dir is None else str(output_dir),
        workers=CAMPAIGN_WORKERS,
    )


def warm_up(harness, workload: Workload) -> None:
    if workload.campaign:
        harness.run_experiment(campaign_config(harness, [WARMUP_CELL], 2, WARMUP_SEED, None))
    else:
        harness.run_trial(*WARMUP_CELL, WARMUP_SEED)


def _cycle_shuffled(items, rng: random.Random):
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


@dataclass
class Unit:
    """One closed-loop step: a trial, or a whole campaign."""

    seconds: float
    trials: int
    records: list  # canonical records that passed the gate
    failed: int  # trials that raised, went missing or failed the gate
    problems: list[str]


def run_one_trial(harness, row: dict) -> Unit:
    t0 = time.perf_counter()
    try:
        rec = harness.run_trial(row["n"], row["m"], row["seed"])
    except Exception as exc:  # a failed trial is counted, never fatal
        return Unit(time.perf_counter() - t0, 1, [], 1, [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    problems = gate.record_problems(rec, row)
    return Unit(seconds, 1, [] if problems else [rec.canonical()], int(bool(problems)), problems)


def run_one_campaign(harness, master: int, refs: dict, out_dir: Path) -> Unit:
    cfg = campaign_config(harness, CAMPAIGN_GRID, CAMPAIGN_TRIALS, master, out_dir)
    trials = len(CAMPAIGN_GRID) * CAMPAIGN_TRIALS
    t0 = time.perf_counter()
    try:
        result = harness.run_experiment(cfg)
    except Exception as exc:
        return Unit(time.perf_counter() - t0, trials, [], trials, [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    emitted = gate.emitted_rows(out_dir / "records.csv", out_dir / "records.jsonl")
    shutil.rmtree(out_dir, ignore_errors=True)
    good, problems = [], [f"failed trial: {f}" for f in result.failures]
    for rec in result.records:
        found = gate.record_problems(rec, refs.get(gate.record_key(rec)))
        found += gate.emission_problems(rec, emitted)
        problems += found
        if not found:
            good.append(rec)
    if len(result.records) + len(result.failures) != trials:
        problems.append(f"{len(result.records)} records and {len(result.failures)} failures for {trials} trials")
    return Unit(seconds, trials, good, trials - len(good), problems)


@dataclass
class Tally:
    """What a closed loop keeps: unit times, counts, and each distinct record once.

    A record repeats whenever its input does; keeping one per input bounds the
    benchmark's own memory, which peak_rss_mb would otherwise include.
    """

    unit_ms: list[float] = field(default_factory=list)
    seconds: float = 0.0
    trials: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    records: dict = field(default_factory=dict)

    def add(self, unit: Unit) -> None:
        self.unit_ms.append(unit.seconds * 1e3 / unit.trials)
        self.seconds += unit.seconds
        self.trials += unit.trials
        self.fail(unit.failed, unit.problems)
        for rec in unit.records:
            self.records[gate.record_key(rec)] = rec

    def fail(self, trials: int, problems: list[str]) -> None:
        self.failed += trials
        self.problems += problems[: max(0, 20 - len(self.problems))]


def closed_loop(step, seconds: float) -> float:
    """Call ``step()`` back to back until ``seconds`` have passed; the wall time."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        step()
    return time.perf_counter() - start


def emit_and_check(harness, tally: Tally, out_dir: Path) -> None:
    """Summarize and emit the distinct in-process records; the files must hold them exactly."""
    records = list(tally.records.values())
    summary = harness.summarize_records(records)
    try:
        harness.emit_records(records, out_dir)
    except OSError as exc:
        tally.problems.append(f"emit_records: {exc}")
    emitted = gate.emitted_rows(out_dir / "records.csv", out_dir / "records.jsonl")
    shutil.rmtree(out_dir, ignore_errors=True)
    for rec in records:
        found = gate.emission_problems(rec, emitted)
        if found:
            tally.fail(1, found)
    if summary["total_records"] != len(records):
        tally.fail(len(records), [f"summary counts {summary['total_records']} of {len(records)} records"])


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any waited-for child (pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment() -> dict:
    """Versions and thread settings as found; nothing here changes them."""
    import multiprocessing
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "openblas_threads": None,
    }
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_int, []
        env["openblas_threads"] = fn()
    return env


def workload_inputs(harness, name: str, seed: int, work: Path):
    """(draw, run): draw the workload's next input; run one input as a Unit."""
    rows = gate.load_reference(name)
    rng = random.Random(f"{name}:{seed}")
    if WORKLOADS[name].campaign:
        refs = {(r["n"], r["m"], r["trial"], r["seed"]): r for r in rows}
        masters = _cycle_shuffled(sorted({r["master"] for r in rows}), rng)
        return (
            lambda: next(masters),
            lambda master: run_one_campaign(harness, master, refs, work / "campaign"),
        )
    inputs = _cycle_shuffled(rows, rng)
    return (lambda: next(inputs), lambda row: run_one_trial(harness, row))


def result(tallies: list[Tally], metrics: dict) -> dict:
    failed = sum(t.failed for t in tallies)
    return {
        "correct": failed == 0,
        "attempted": sum(t.trials for t in tallies),
        "failed": failed,
        "metrics": metrics,
        "problems": [p for t in tallies for p in t.problems][:20],
    }


def measure(harness, name: str, seed: int, seconds: float, work: Path) -> dict:
    """Untraced closed loop: the end-to-end metrics."""
    draw, run = workload_inputs(harness, name, seed, work)
    tally = Tally()
    wall = closed_loop(lambda: tally.add(run(draw())), seconds)
    if not WORKLOADS[name].campaign:
        emit_and_check(harness, tally, work / "out")
    out = result(
        [tally],
        {
            "trials_per_s": tally.trials / wall,
            "trial_ms_p50": statistics.median(tally.unit_ms),
            "peak_rss_mb": peak_rss_mb(),
        },
    )
    out["detail"] = {"timed_units": len(tally.unit_ms), "wall_s": wall}
    return out


def measure_traced(harness, name: str, seed: int, seconds: float, work: Path) -> dict:
    """Each input untraced, then traced: the per-layer metrics and tracing overhead."""
    spool = work / "spool"
    spool.mkdir()
    tracer = tracing.Tracer(spool)
    draw, run = workload_inputs(harness, name, seed, work)
    plain, traced = Tally(), Tally()

    def pair():
        x = draw()
        a = run(x)
        with tracer.installed(harness):
            b = run(x)
        if a.records != b.records:
            b.failed = b.trials
            b.problems.append("traced records differ from untraced records")
        plain.add(a)
        traced.add(b)

    closed_loop(pair, seconds)
    campaign = WORKLOADS[name].campaign
    if not campaign:
        with tracer.installed(harness):
            emit_and_check(harness, traced, work / "out")
    workers = CAMPAIGN_WORKERS if campaign else 1
    metrics = tracing.layer_metrics(tracer.collect(), int(workers * traced.seconds * 1e9))
    metrics["trace.overhead_frac"] = 1.0 - plain.seconds / traced.seconds
    out = result([plain, traced], metrics)
    out["detail"] = {
        "pairs": len(plain.unit_ms),
        "untraced_s": plain.seconds,
        "traced_s": traced.seconds,
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    harness = import_harness()
    warm_up(harness, WORKLOADS[args.workload])
    print("READY", flush=True)
    if args.setup_only:
        return 0
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        measured = (measure_traced if args.trace else measure)(
            harness, args.workload, args.seed, args.seconds, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    measured["env"] = environment()
    print(json.dumps(measured), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
