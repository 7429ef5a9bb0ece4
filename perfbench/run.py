"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in fresh
interpreters started from here (bench.py), so import and warm-up costs are
measured, not inherited.  With ``--trace 0`` the set-up time is sampled
SETUP_SAMPLES times (set-up-only interpreters, then the measuring one) and
reported as the median, next to the end-to-end metrics of the measuring
run.  With ``--trace 1`` the per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero,
printing no result, if the checkout has no package sources or any run fails.
Workload names and the metrics' names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5


def run_child(argv: list[str], deadline: float) -> tuple[float | None, list[str], int]:
    """Run bench.py; (seconds until it printed READY, later stdout lines, exit code).

    bench.py runs in a session of its own, so that past ``deadline`` it is
    killed together with any pool workers it started.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill_group)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line == "READY\n":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
        proc.stdout.close()
    return ready, lines, code


def source_identity(root: Path) -> dict:
    """Git commit when the checkout is a repository, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    root = Path.cwd()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (root / "src" / "isohull" / "__init__.py").is_file():
        print(f"error: no package sources at {root / 'src' / 'isohull'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 2 * args.seconds + 60
    child_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _, code = run_child(child_args + ["--setup-only"], deadline)
            if code != 0 or ready is None:
                print(f"error: set-up run exited with {code}", file=sys.stderr)
                return 1
            setups.append(ready)
    ready, lines, code = run_child(child_args, deadline)
    if code != 0 or ready is None or not lines:
        print(f"error: measuring run exited with {code}", file=sys.stderr)
        return 1
    measured = json.loads(lines[-1])
    metrics = measured["metrics"]
    expected = {m["name"]: m["unit"] for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        setups.append(ready)
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(expected):
        print(f"error: metrics {sorted(metrics)} != {sorted(expected)}", file=sys.stderr)
        return 1

    env = dict(measured["env"], **source_identity(root))
    print("environment: " + json.dumps(env, sort_keys=True))
    attempted, failed = measured["attempted"], measured["failed"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} trials attempted, "
        f"{failed} failed (failed_frac {failed / attempted:.6g}); " + json.dumps(measured["detail"])
    )
    for problem in measured["problems"]:
        print(f"  gate: {problem}")
    if setups:
        print(f"  set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for name in expected:
        print(f"  {name:34s} {metrics[name]:14.6g} {expected[name]}")
    print(
        json.dumps(
            {
                "correct": measured["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in expected.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
