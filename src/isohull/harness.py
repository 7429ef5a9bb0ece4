"""Seeded experiment campaigns over (n, m) grids, checks, and file output.

A campaign runs the full sample -> hull -> validate -> moments -> isotropy
pipeline once per (cell, trial), with every trial seed derived up front
from the master seed as derive_seed(master, [n, m, trial]).  Trials are
therefore independent tasks: results are collected, canonically sorted by
(n, m, trial), and emitted as CSV and JSONL whose bytes do not depend on the
worker count.  A campaign's config is its grid, trial count and master
seed, which set every record, plus an output directory and a worker count,
which do not; the Monte Carlo oracle and a fixed inradius threshold belong
to single trials (``run_trial``) and to record checks, not to campaigns.

Determinism contract: every record column is a pure function of (n, m,
trial seed), so output files are byte-stable.  Records hold no timing:
a campaign logs its progress and ``isohull trial`` prints the wall time
of its one trial beside the record.

The bound checks read records alone, so they run on a campaign's records
or on a record file (``isohull check``); their constants are fitted by
:mod:`isohull.calibration`.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import itertools
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .hull import (
    DegenerateCloudError,
    DegenerateFacetError,
    InvalidComplexError,
    inradius as complex_inradius,
    symmetric_hull,
    validate_complex,
)
from .isotropy import NotSPDError, isotropy_constant
from .moments import (
    facet_cross_sums,
    mc_moment_oracle,
    polytope_covariance,
    polytope_mean_square,
    polytope_volume,
)
from .sphere_stats import ConfigError, RngStream, derive_seed, sample_symmetric_cloud

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "TrialError",
    "ConfigError",
    "EmitError",
    "ExperimentResult",
    "check_cell",
    "run_trial",
    "run_experiment",
    "check_inradius_bound",
    "check_second_moment_bound",
    "check_isotropy_threshold",
    "emit_records",
    "records_from_csv",
    "records_from_jsonl",
    "default_grid",
]

log = logging.getLogger("isohull")

RESAMPLE_CAP = 8
ORACLE_STREAM_LABEL = 1

DEFAULT_DIMS = tuple(range(2, 9))
DEFAULT_RATIOS = (1.5, 2.0, 3.0, 8.0)
DEFAULT_TRIALS = 200
DEFAULT_MASTER_SEED = 424242
# A campaign holds every task and record in memory until it ends, about
# 0.4 KB a trial: 28 cells at this bound hold about 1.2 GB.
MAX_TRIALS = 100_000

RECORDS_BASENAME = "records"


class TrialError(RuntimeError):
    """A single trial failed (degeneracy cap exceeded or internal check)."""


class EmitError(OSError):
    """Output files could not be written."""


def _fmt(x: float) -> str:
    """Serialize a float with 17 significant digits (exact round trip)."""
    return f"{float(x):.17g}"


def cell_points(n: int, ratio: float) -> int:
    """Point count for an (n, ratio) grid rule: round(ratio * n), at least n + 1."""
    return max(n + 1, int(math.floor(ratio * n + 0.5)))


def default_grid() -> list[tuple[int, int]]:
    """The default campaign grid: n in 2..8 crossed with m/n in {1.5, 2, 3, 8}."""
    return [(n, cell_points(n, r)) for n in DEFAULT_DIMS for r in DEFAULT_RATIOS]


def default_alpha(n: int, m: int) -> float:
    """The default inradius threshold sqrt(log(m/n)/n) / (2 sqrt(2)) of cell (n, m)."""
    return math.sqrt(math.log(m / n) / n) / (2.0 * math.sqrt(2.0))


def cell_cost(n: int, m: int) -> float:
    """Per-trial cost key of cell (n, m): an estimated facet count times n^2, plus 1e4.

    The estimate is F = (2^n / n) m (1 + ln(m/n))^((n-1)/2).  On the default
    grid F is within 3.5x of the mean facet count, F n^2 within about 1.6x
    of the measured trial time at the heavy cells, and it ranks the three
    costliest cells in order.  The constant, about 1 ms at their rate, is
    what every trial costs whatever its size; it leaves the order as it is.
    """
    return 2.0**n * n * m * (1.0 + math.log(m / n)) ** ((n - 1) / 2) + 1e4


def check_cell(n: int, m: int) -> None:
    """Raise ConfigError unless m > n >= 2 and facet keys fit, C(2m, n) < 2^64 (no n >= 33)."""
    if n < 2 or m <= n or n >= 33 or math.comb(2 * m, n) >= 1 << 64:
        raise ConfigError(f"cell needs m > n >= 2 and C(2m, n) < 2^64, got (n={n}, m={m})")


def _config_int(value, what: str) -> int:
    """An int, an integral float or an integer string; never a bool."""
    if isinstance(value, float) and value.is_integer() or (
        isinstance(value, (int, str)) and not isinstance(value, bool)
    ):
        return int(value)  # a non-integer string raises ValueError
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _require_int(value, what: str) -> None:
    """Raise ConfigError unless ``value`` is an int, and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Campaign definition: grid, trial count and seeding, output directory, workers.

    Records are a function of ``grid``, ``trials`` and ``master_seed`` alone.
    With an ``output_dir`` the campaign writes both record files and
    ``summary.json`` there; ``workers`` only sets the process count.
    """

    grid: tuple[tuple[int, int], ...]
    trials: int = DEFAULT_TRIALS
    master_seed: int = DEFAULT_MASTER_SEED
    output_dir: str | os.PathLike | None = None
    workers: int = 1

    def validate(self) -> None:
        if not self.grid:
            raise ConfigError("grid must contain at least one (n, m) cell")
        for i, (n, m) in enumerate(self.grid):
            _require_int(n, "grid n")
            _require_int(m, "grid m")
            check_cell(n, m)
            if self.grid[i] in self.grid[:i]:
                raise ConfigError(f"grid repeats cell (n={n}, m={m})")
        for name in ("trials", "master_seed", "workers"):
            _require_int(getattr(self, name), name)
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be in [1, {MAX_TRIALS}], got {self.trials}")
        if not 0 <= self.master_seed < (1 << 64):
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        # the pool starts all its processes at once; 2 stays valid everywhere
        limit = max(2, _usable_cpus())
        if not 1 <= self.workers <= limit:
            raise ConfigError(f"workers must be in [1, {limit}] (usable CPUs), got {self.workers}")
        if not isinstance(self.output_dir, (str, os.PathLike, type(None))):
            raise ConfigError(f"output_dir must be a path string, got {self.output_dir!r}")
        if self.output_dir is not None and os.fspath(self.output_dir) == "":
            raise ConfigError("output_dir must name a directory, got an empty path")

    def to_json_dict(self) -> dict:
        return {
            "grid": [[n, m] for n, m in self.grid],
            "trials": self.trials,
            "master_seed": self.master_seed,
            "output_dir": None if self.output_dir is None else os.fspath(self.output_dir),
            "workers": self.workers,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        # the accepted keys are the ones to_json_dict writes
        unknown = set(obj) - set(cls(grid=()).to_json_dict())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "grid" not in obj:
            raise ConfigError("config requires a 'grid' entry")
        # A value of the wrong type or shape (int("abc"), 2.7 or true for an
        # integer, a grid entry without "n", a scalar where a list or object
        # belongs) is a ConfigError like any other invalid config.
        try:
            grid: list[tuple[int, int]] = []
            for item in obj["grid"]:
                if isinstance(item, dict):
                    n = _config_int(item["n"], "grid n")
                    if "m" in item:
                        grid.append((n, _config_int(item["m"], "grid m")))
                    elif "ratio" in item and not isinstance(item["ratio"], bool):
                        grid.append((n, cell_points(n, float(item["ratio"]))))
                    else:
                        raise ConfigError(f"grid entry needs 'm' or a numeric 'ratio': {item!r}")
                elif isinstance(item, (list, tuple)) and len(item) == 2:
                    grid.append((_config_int(item[0], "grid n"), _config_int(item[1], "grid m")))
                else:
                    raise ConfigError(f"grid entry must be a pair: {item!r}")
            cfg = cls(
                grid=tuple(grid),
                trials=_config_int(obj.get("trials", DEFAULT_TRIALS), "trials"),
                master_seed=_config_int(obj.get("master_seed", DEFAULT_MASTER_SEED), "master_seed"),
                output_dir=obj.get("output_dir"),
                workers=_config_int(obj.get("workers", 1), "workers"),
            )
        except ConfigError:
            raise
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {type(exc).__name__}: {exc}") from exc
        cfg.validate()
        return cfg

    def content_hash(self) -> str:
        """Hash of the record-determining part of the config (not paths/workers)."""
        keys = ("grid", "trials", "master_seed")
        payload = {k: v for k, v in self.to_json_dict().items() if k in keys}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class TrialRecord:
    """One trial of the pipeline; its compared fields are the CSV columns.

    ``CSV_COLUMNS`` and the integer columns are read from these fields and
    their annotations.  ``oracle_deltas`` (exact minus estimate, in
    standard-error units) is diagnostic only, not compared and never
    serialized into campaign files.  Its cell must pass :func:`check_cell`.
    """

    n: int
    m: int
    trial: int
    seed: int
    l_k: float
    identity_bound: float
    vol_root: float
    inradius: float
    mean_square: float
    max_facet_cross: float
    facet_count: int
    resampled: int
    oracle_deltas: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        check_cell(self.n, self.m)

    def _texts(self) -> list[str]:
        """Each column's canonical text, in CSV_COLUMNS order."""
        return [
            str(int(getattr(self, c))) if c in _INT_COLUMNS else _fmt(getattr(self, c))
            for c in CSV_COLUMNS
        ]

    def to_csv_row(self) -> str:
        return ",".join(self._texts())

    def to_json_line(self) -> str:
        pairs = zip(CSV_COLUMNS, self._texts())
        return "{" + ", ".join(f'"{col}": {text}' for col, text in pairs) + "}"

    @classmethod
    def from_values(cls, values: dict) -> "TrialRecord":
        """The record of one parsed row; a float column must hold a finite number."""
        kwargs = {}
        for col in CSV_COLUMNS:
            v = values[col]
            if col in _INT_COLUMNS:
                kwargs[col] = _config_int(v, col)
                continue
            kwargs[col] = float(v)
            if not math.isfinite(kwargs[col]):
                raise ConfigError(f"{col} must be finite, got {v!r}")
        return cls(**kwargs)

    def canonical(self) -> "TrialRecord":
        """The record without its oracle deltas (the form campaigns emit)."""
        return dataclasses.replace(self, oracle_deltas=None)


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord) if f.compare)
_INT_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord) if f.type == "int")


def _sort_key(r: TrialRecord):
    return (r.n, r.m, r.trial)


# A trial that raises one of these becomes a failure row; the campaign goes
# on.  Only degeneracy is resampled (inside run_trial).
_TRIAL_FAILURES = (TrialError, InvalidComplexError, NotSPDError, np.linalg.LinAlgError)


@contextlib.contextmanager
def _stage(name: str):
    """Tag a trial failure raised inside the block with the stage that raised it."""
    try:
        yield
    except _TRIAL_FAILURES as exc:
        exc.stage = name
        raise


def run_trial(
    n: int, m: int, seed: int, oracle_samples: int = 0, trial_index: int = 0
) -> TrialRecord:
    """Run the full pipeline once; deterministic given the arguments.

    Degenerate hulls (a probability-zero event for random clouds) are
    retried with a fresh derived seed up to RESAMPLE_CAP attempts; the
    number of re-draws is recorded.  With ``oracle_samples`` > 0 the Monte
    Carlo oracle runs and its deltas are attached in standard-error units.
    A trial failure carries the name of the stage that raised it in its
    ``stage`` attribute: sample, hull, validate, moments, isotropy or
    oracle; a covariance that is not positive-definite fails at isotropy
    (``NotSPDError``).  A cell outside :func:`check_cell`, a seed outside
    [0, 2^64) or a negative ``oracle_samples`` is a ConfigError raised
    before any hull is built.
    """
    check_cell(n, m)
    if oracle_samples < 0:
        raise ConfigError(f"oracle_samples must be >= 0, got {oracle_samples}")
    attempt_seed = int(seed)
    resampled = 0
    fc = None
    for attempt in range(RESAMPLE_CAP):
        with _stage("sample"):
            points = sample_symmetric_cloud(n, m, attempt_seed)
        with _stage("hull"):
            try:
                candidate = symmetric_hull(points)
            except (DegenerateCloudError, DegenerateFacetError):
                candidate = None
        if candidate is not None:
            with _stage("validate"):
                if validate_complex(candidate).passed:
                    fc = candidate
                    break
        resampled += 1
        attempt_seed = derive_seed(seed, [attempt + 1])
    if fc is None:
        with _stage("hull" if candidate is None else "validate"):
            raise TrialError(
                f"degeneracy re-draw cap ({RESAMPLE_CAP} attempts) exceeded for "
                f"(n={n}, m={m}, seed={seed})"
            )

    with _stage("moments"):
        volume = polytope_volume(fc)
        mean_square = polytope_mean_square(fc)
        cov = polytope_covariance(fc)
        trace = float(np.trace(cov))
        if abs(trace - mean_square) > 1e-10 * max(mean_square, 1e-300):
            raise TrialError(
                f"trace/mean-square mismatch: {trace} vs {mean_square} "
                f"at (n={n}, m={m}, seed={seed})"
            )
        rad = complex_inradius(fc)
        max_cross = float(facet_cross_sums(fc).max())
    with _stage("isotropy"):
        report = isotropy_constant(volume, cov)

    deltas = None
    if oracle_samples > 0:
        with _stage("oracle"):
            est = mc_moment_oracle(
                fc, oracle_samples, RngStream(attempt_seed, (ORACLE_STREAM_LABEL,))
            )
        # one sample, or rejection draws that all hit, give a zero standard error
        def z(exact, estimate, se):
            return (exact - estimate) / np.maximum(se, 1e-300)

        deltas = {
            "mean_square": float(z(mean_square, est.mean_square, est.mean_square_se)),
            "covariance_max": float(np.abs(z(cov, est.covariance, est.covariance_se)).max()),
        }
        if est.volume is not None:
            deltas["volume"] = float(z(volume, est.volume, est.volume_se))

    return TrialRecord(
        n=n,
        m=m,
        trial=int(trial_index),
        seed=int(seed),
        l_k=report.l_k,
        identity_bound=report.identity_bound,
        vol_root=report.vol_root,
        inradius=rad,
        mean_square=mean_square,
        max_facet_cross=max_cross,
        facet_count=fc.facet_count,
        resampled=resampled,
        oracle_deltas=deltas,
    )


def _trial_task(task: tuple[int, int, int, int]):
    n, m, trial, seed = task
    try:
        return ("ok", run_trial(n, m, seed, trial_index=trial))
    except _TRIAL_FAILURES as exc:
        return (
            "failed",
            {
                "n": n,
                "m": m,
                "trial": trial,
                "seed": seed,
                "stage": exc.stage,
                "error_type": type(exc).__name__,
                "error": str(exc),
            },
        )


def _outcomes(tasks: Sequence[tuple[int, int, int, int]], workers: int):
    """Each task's ``_trial_task`` outcome, in task order, serially or from a pool."""
    if workers == 1:
        yield from map(_trial_task, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_trial_task, tasks)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    failures: list[dict]
    summary: dict
    paths: dict


def _quantiles(values: np.ndarray) -> dict:
    qs = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    return dict(zip(("min", "q25", "median", "q75", "max"), map(float, qs)))


def _cell_groups(records: Sequence[TrialRecord]) -> dict[tuple[int, int], list[TrialRecord]]:
    groups: dict[tuple[int, int], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.n, r.m), []).append(r)
    return dict(sorted(groups.items()))


def summarize_records(records: Sequence[TrialRecord], failures: Sequence[dict] = ()) -> dict:
    """Per-cell summary statistics plus the config-free bound checks.

    One row per cell with a record or a failure, in (n, m) order.  The
    inradius figures are those of :func:`check_inradius_bound` under the
    default alpha (:func:`default_alpha`), the second-moment figures those
    of :func:`check_second_moment_bound`; a cell whose every trial failed
    has its counts only.
    """
    groups = _cell_groups(records)
    failed = collections.Counter((f["n"], f["m"]) for f in failures)
    cells = []
    for n, m in sorted(groups.keys() | failed.keys()):
        recs = groups.get((n, m), [])
        cells.append({"n": n, "m": m, "trials": len(recs), "failures": failed[n, m]})
        if not recs:
            continue
        arr = {
            name: np.array([getattr(r, name) for r in recs])
            for name in ("l_k", "vol_root", "inradius", "mean_square", "max_facet_cross")
        }
        inr = _inradius_figures(n, m, recs)
        cells[-1].update(
            resampled_total=int(sum(r.resampled for r in recs)),
            facet_count_mean=float(np.mean([r.facet_count for r in recs])),
            stats={name: _quantiles(vals) for name, vals in arr.items()},
            inradius_check={key: inr[key] for key in ("alpha", "violations", "reference_rate")},
            growth_stat=float(np.median(arr["vol_root"]) * n / math.sqrt(math.log(m / n))),
            l_k_max=float(np.max(arr["l_k"])),
            **_moment_figures(n, m, recs),
        )
    return {"cells": cells, "total_records": len(records), "total_failures": len(failures)}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute every trial in the grid and write records and summary to ``output_dir``.

    Per-trial seeds are derive_seed(master, [n, m, trial]), fixed before
    dispatch.  Cells are dispatched costliest first by :func:`cell_cost`
    (grid order among equal keys), each cell's trials together, so a pool
    worker meets the heaviest trials on a fresh heap and light cells fill
    in at the end; results are then sorted by (n, m, trial), so records and
    summary are identical for any worker count and dispatch order.  Timing
    goes to the logger only, never into records or summary, as one INFO
    line per finished cell, in dispatch order: trials done, elapsed time
    and an ETA that assumes the trials still to run cost what their keys
    predict at the rate the finished ones ran.  Individual trial
    failures are collected, not fatal; each failure row names the stage
    that raised.  ``output_dir`` is created before any trial is dispatched,
    and :class:`EmitError` is raised there when it cannot be.
    """
    config.validate()
    if config.output_dir is not None:
        try:
            Path(config.output_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise EmitError(f"cannot create output directory {config.output_dir}: {exc}") from exc
    cells = sorted(config.grid, key=lambda cell: -cell_cost(*cell))
    tasks = [
        (n, m, t, derive_seed(config.master_seed, [n, m, t]))
        for (n, m) in cells
        for t in range(config.trials)
    ]
    spent = list(itertools.accumulate(cell_cost(n, m) * config.trials for n, m in cells))
    t0 = time.perf_counter()
    records: list[TrialRecord] = []
    failures: list[dict] = []
    # closing() shuts the pool down even when this loop raises
    with contextlib.closing(_outcomes(tasks, config.workers)) as outcomes:
        # outcomes arrive in task order, so a cell is finished with its
        # last trial
        for done, (status, payload) in enumerate(outcomes, start=1):
            (records if status == "ok" else failures).append(payload)
            if done % config.trials == 0:
                cell = done // config.trials - 1
                elapsed = time.perf_counter() - t0
                log.info(
                    "cell (n=%d, m=%d) done: %d/%d trials, %.1f s elapsed, ETA %.1f s",
                    *cells[cell],
                    done,
                    len(tasks),
                    elapsed,
                    elapsed * (spent[-1] - spent[cell]) / spent[cell],
                )
    elapsed = time.perf_counter() - t0
    log.info(
        "campaign finished: %d records, %d failures, %.1f s wall",
        len(records),
        len(failures),
        elapsed,
    )

    records.sort(key=_sort_key)
    failures.sort(key=lambda f: (f["n"], f["m"], f["trial"]))
    summary = summarize_records(records, failures)
    summary["config"] = config.to_json_dict()
    summary["config_content_hash"] = config.content_hash()

    paths: dict = {}
    if config.output_dir is not None:
        paths = emit_records(records, config.output_dir)
        summary_path = Path(config.output_dir) / "summary.json"
        try:
            _write_atomic(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise EmitError(f"cannot write summary under {config.output_dir}: {exc}") from exc
        paths["summary"] = str(summary_path)
    return ExperimentResult(config, records, failures, summary, paths)


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by ``text`` in one step, or leave it as it was.

    The text goes to a temporary file in the same directory, which is
    flushed to disk and then renamed over the target; on any error the
    temporary file is removed.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def emit_records(records: Sequence[TrialRecord], output_dir: str | Path) -> dict:
    """Write records.csv and records.jsonl in canonical (n, m, trial) order.

    Returns the two paths under the keys ``csv`` and ``jsonl``.  CSV
    carries the exact column header; JSONL mirrors the columns one object
    per line.  All floats use 17 significant digits, so a parse round trip
    preserves every value bit for bit.
    """
    ordered = sorted(records, key=_sort_key)
    out = Path(output_dir)
    csv_path = out / f"{RECORDS_BASENAME}.csv"
    jsonl_path = out / f"{RECORDS_BASENAME}.jsonl"
    try:
        out.mkdir(parents=True, exist_ok=True)
        lines = [",".join(CSV_COLUMNS)] + [r.to_csv_row() for r in ordered]
        _write_atomic(csv_path, "\n".join(lines) + "\n")
        _write_atomic(jsonl_path, "".join(r.to_json_line() + "\n" for r in ordered))
    except OSError as exc:
        raise EmitError(f"cannot write records under {out}: {exc}") from exc
    return {"csv": str(csv_path), "jsonl": str(jsonl_path)}


def records_from_csv(path: str | Path) -> list[TrialRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header in {path}")
    # a row with too few or too many fields raises ValueError
    return [
        TrialRecord.from_values(dict(zip(CSV_COLUMNS, line.split(","), strict=True)))
        for line in lines[1:]
    ]


def records_from_jsonl(path: str | Path) -> list[TrialRecord]:
    lines = Path(path).read_text().splitlines()
    return [TrialRecord.from_values(json.loads(line)) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# Bound checks over record sets


def _per_cell(records: Sequence[TrialRecord], figures) -> list[dict]:
    """One row {n, m, **figures(n, m, recs)} per cell in (n, m) order; no record is a ValueError."""
    if not records:
        raise ValueError("no records")
    groups = _cell_groups(records).items()
    return [{"n": n, "m": m, **figures(n, m, recs)} for (n, m), recs in groups]


def _inradius_figures(n: int, m: int, recs: list[TrialRecord], alpha: float | None = None) -> dict:
    cell_alpha = default_alpha(n, m) if alpha is None else float(alpha)
    inr = np.array([r.inradius for r in recs])
    violations = int(np.sum(inr < cell_alpha))
    return {
        "trials": len(recs),
        "alpha": cell_alpha,
        "violations": violations,
        "rate": violations / len(recs),
        "reference_rate": math.exp(-n),
        "min_inradius": float(inr.min()),
    }


def _moment_figures(n: int, m: int, recs: list[TrialRecord]) -> dict:
    log_ratio = math.log(m / n)
    # Python floats: an overflow gives inf (a ConfigError in the check), not a warning
    return {
        "c_emp": float(np.max([r.mean_square for r in recs])) * n / log_ratio,
        "facet_cross_ratio": float(np.max([r.max_facet_cross for r in recs])) / (n * log_ratio),
    }


def check_inradius_bound(records: Sequence[TrialRecord], alpha: float | None = None) -> list[dict]:
    """Count, per cell, trials whose inradius falls below alpha.

    ``alpha`` is one fixed threshold for every cell, finite and >= 0; None
    takes :func:`default_alpha` per cell.  Reports the empirical violation
    rate next to the theoretical reference e^{-n}; this is a comparison,
    not an assertion (the reference holds asymptotically and only for m
    above an unspecified multiple of n).
    """
    # NaN fails both comparisons, so only a finite value >= 0 passes
    if alpha is not None and not 0 <= alpha < math.inf:
        raise ConfigError(f"fixed alpha needs a finite value >= 0, got {alpha!r}")
    return _per_cell(records, lambda n, m, recs: _inradius_figures(n, m, recs, alpha))


def check_second_moment_bound(records: Sequence[TrialRecord]) -> dict:
    """Fitted second-moment constants per cell.

    C_emp = max over trials of mean_square * n / log(m/n), plus the facet
    statistic ratio max_facet_cross / (n log(m/n)); the overall band
    reports how stable C_emp is across cells.
    """
    cells = _per_cell(records, _moment_figures)
    c_vals = [c["c_emp"] for c in cells]
    if min(c_vals) <= 0.0:  # a body's mean square is > 0, a hand-made record's may not be
        raise ConfigError(f"mean_square must be > 0 in every cell, got c_emp {min(c_vals)}")
    report = {
        "cells": cells,
        "c_emp_min": min(c_vals),
        "c_emp_max": max(c_vals),
        "band_ratio": max(c_vals) / min(c_vals),
    }
    figures = [report["band_ratio"], *c_vals, *(c["facet_cross_ratio"] for c in cells)]
    if not all(map(math.isfinite, figures)):
        raise ConfigError("second-moment figures of these records overflow the float range")
    return report


def check_isotropy_threshold(records: Sequence[TrialRecord], c_star: float) -> list[dict]:
    """Per-cell fraction of trials with l_k <= c_star.

    The reference column is the bound shape 1 - exp(-n min(1, log(m/n)));
    only the shape is meaningful (its absolute constants are left at 1),
    the fractions are the data.  ``c_star`` must lie in (0, inf).
    """
    # NaN fails both comparisons, so only a finite value > 0 passes
    if not 0 < c_star < math.inf:
        raise ValueError(f"c_star must lie in (0, inf), got {c_star!r}")

    def figures(n, m, recs):
        lk = np.array([r.l_k for r in recs])
        return {
            "fraction": float(np.mean(lk <= c_star)),
            "bound_shape": 1.0 - math.exp(-n * min(1.0, math.log(m / n))),
            "l_k_max": float(lk.max()),
        }

    return _per_cell(records, figures)
