"""Command-line interface.

Subcommands: sample, hull, trial, experiment, calibrate, check.  The
Monte Carlo cross-check of one trial is ``trial --oracle-samples N``; a
campaign's only input is its config file (``experiment --config``).
Exit codes: 0 success, 1 usage/config error, 2 numerical/degeneracy
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import fixture_path, load_fixture, run_calibration, save_fixture
from .harness import (
    ConfigError,
    EmitError,
    ExperimentConfig,
    TrialError,
    check_cell,
    check_inradius_bound,
    check_isotropy_threshold,
    check_second_moment_bound,
    records_from_csv,
    records_from_jsonl,
    run_experiment,
    run_trial,
)
from .hull import (
    DegenerateCloudError,
    DegenerateFacetError,
    InvalidComplexError,
    dump_off_like,
    inradius,
    symmetric_hull,
    validate_complex,
)
from .isotropy import NotSPDError
from .sphere_stats import sample_symmetric_cloud

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _UsageExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through our own code.
    def error(self, message):
        raise _UsageExit(message)


def _add_cloud_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--m", type=int, required=True, help="points before symmetrization")
    p.add_argument("--seed", type=int, required=True, help="64-bit seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isohull", description=__doc__)
    parser.add_argument("--version", action="version", version=f"isohull {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit one symmetric point cloud as JSON")
    _add_cloud_args(p)
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")

    p = sub.add_parser("hull", help="build and validate a hull, optionally dump it")
    _add_cloud_args(p)
    p.add_argument("--dump", type=str, default=None, help="write plain-text dump here")

    p = sub.add_parser("trial", help="run one trial, print the record as JSON")
    _add_cloud_args(p)
    p.add_argument(
        "--oracle-samples", type=int, default=0, help="Monte Carlo sample count"
    )

    p = sub.add_parser("experiment", help="run a campaign from a JSON config file")
    p.add_argument("--config", type=str, required=True, help="config JSON path")

    p = sub.add_parser("calibrate", help="run the pilot campaign and write fixtures")
    p.add_argument("--out", type=str, default=None, help="fixture path (default: packaged)")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("check", help="re-run the three bound checks on a record file")
    p.add_argument("--records", type=str, required=True, help="records .jsonl or .csv")
    p.add_argument("--fixtures", type=str, default=None, help="fixture JSON path")
    p.add_argument("--alpha", type=float, default=None, help="fixed alpha override")

    return parser


def _emit(obj, out: str | None = None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


def _cmd_sample(args) -> int:
    points = sample_symmetric_cloud(args.n, args.m, args.seed)
    _emit(
        {"n": args.n, "m": args.m, "seed": args.seed, "points": points.tolist()},
        args.out,
    )
    return EXIT_OK


def _cmd_hull(args) -> int:
    check_cell(args.n, args.m)
    fc = symmetric_hull(sample_symmetric_cloud(args.n, args.m, args.seed))
    diag = validate_complex(fc)
    if args.dump:
        Path(args.dump).write_text(dump_off_like(fc))
    _emit(
        {
            "n": fc.n,
            "m": fc.num_points,
            "facet_count": fc.facet_count,
            "inradius": inradius(fc),
            "validation": diag.to_dict(),
        }
    )
    return EXIT_OK if diag.passed else EXIT_NUMERICAL


def _cmd_trial(args) -> int:
    t0 = time.perf_counter()
    rec = run_trial(args.n, args.m, args.seed, args.oracle_samples)
    payload = json.loads(rec.to_json_line())
    payload["wall_time_ms"] = (time.perf_counter() - t0) * 1e3
    if rec.oracle_deltas is not None:
        payload["oracle_deltas"] = rec.oracle_deltas
    _emit(payload)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise EmitError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    result = run_experiment(ExperimentConfig.from_json_dict(raw))
    _emit(
        {
            "records": len(result.records),
            "failures": len(result.failures),
            "paths": result.paths,
        }
    )
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    # the fixture's directory is made, and the path checked, before the
    # calibration runs, so a bad --out costs no campaign
    path = Path(args.out) if args.out is not None else fixture_path()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EmitError(f"cannot create fixture directory {path.parent}: {exc}") from exc
    if path.is_dir():
        raise EmitError(f"cannot write fixture {path}: it is a directory")
    fixture = run_calibration(args.workers)
    path = save_fixture(fixture, path)
    _emit({"fixture": str(path), "a_hat": fixture["psi2"]["a_hat"],
           "c_star": fixture["campaign"]["c_star"]})
    return EXIT_OK


def _cmd_check(args) -> int:
    path = Path(args.records)
    # a file that cannot be read is an i/o error (exit 3); one that reads
    # but does not parse is a bad input (exit 1)
    try:
        records = (
            records_from_csv(path) if path.suffix == ".csv" else records_from_jsonl(path)
        )
    except OSError as exc:
        raise EmitError(f"cannot read records {path}: {exc}") from exc
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed records {path}: {type(exc).__name__}: {exc}") from exc
    if not records:
        raise ConfigError(f"no records in {path}")
    fixture_file = args.fixtures or fixture_path()
    try:
        c_star = float(load_fixture(fixture_file)["campaign"]["c_star"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed fixture {fixture_file}: {type(exc).__name__}: {exc}") from exc
    if not 0 < c_star < math.inf:
        raise ConfigError(f"malformed fixture {fixture_file}: c_star {c_star} is not in (0, inf)")
    report = {
        "inradius": check_inradius_bound(records, args.alpha),
        "second_moment": check_second_moment_bound(records),
        "lk_threshold": check_isotropy_threshold(records, c_star),
        "c_star": c_star,
    }
    _emit(report)
    return EXIT_OK


_COMMANDS = {
    "sample": _cmd_sample,
    "hull": _cmd_hull,
    "trial": _cmd_trial,
    "experiment": _cmd_experiment,
    "calibrate": _cmd_calibrate,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        DegenerateCloudError,
        DegenerateFacetError,
        InvalidComplexError,
        NotSPDError,
        TrialError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (EmitError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
