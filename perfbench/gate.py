"""Correctness gate for benchmark records.

Every record a benchmark run produces is checked twice: against the stored
reference row for the same input (integer columns exactly, float columns
within ``REL_TOL``), and against invariants that hold for every seed.  The
gate does not use the package's pinned calibration hashes, which are build
sensitive; ``REL_TOL`` absorbs last-bit drift between builds while still
catching any change a reader of the records could notice.

The reference files also define the input pools the workloads draw from:
a row's (n, m, seed) is an input for ``run_trial``, and a campaign row's
``master`` is a campaign master seed.  Only the standard library is used
here, so run.py and the tests can import this module cheaply.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

INT_FIELDS = ("n", "m", "trial", "seed", "facet_count", "resampled")
FLOAT_FIELDS = (
    "l_k",
    "identity_bound",
    "vol_root",
    "inradius",
    "mean_square",
    "max_facet_cross",
)
REFERENCE_COLUMNS = ("master",) + INT_FIELDS + FLOAT_FIELDS
REL_TOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv"


def record_key(rec) -> tuple[int, int, int, int]:
    return (int(rec.n), int(rec.m), int(rec.trial), int(rec.seed))


def load_reference(workload: str) -> list[dict]:
    """Reference rows of one workload, in file order."""
    with open(reference_path(workload), newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != REFERENCE_COLUMNS:
            raise ValueError(f"unexpected reference header in {workload}")
        rows = []
        for raw in reader:
            row = {"master": int(raw["master"])}
            row.update({f: int(raw[f]) for f in INT_FIELDS})
            row.update({f: float(raw[f]) for f in FLOAT_FIELDS})
            rows.append(row)
    return rows


def write_reference(workload: str, rows: list[dict]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REFERENCE_COLUMNS)
        for row in rows:
            writer.writerow(
                [int(row["master"])]
                + [int(row[f]) for f in INT_FIELDS]
                + [repr(float(row[f])) for f in FLOAT_FIELDS]
            )
    return path


def reference_row(master: int, rec) -> dict:
    row = {"master": int(master)}
    row.update({f: int(getattr(rec, f)) for f in INT_FIELDS})
    row.update({f: float(getattr(rec, f)) for f in FLOAT_FIELDS})
    return row


def invariant_problems(rec) -> list[str]:
    """Seed-independent facts about any record of a symmetric sphere hull."""
    problems = []
    if not rec.l_k <= rec.identity_bound:
        problems.append(f"l_k {rec.l_k!r} exceeds identity_bound {rec.identity_bound!r}")
    if not 0.0 < rec.inradius <= 1.0:
        problems.append(f"inradius {rec.inradius!r} outside (0, 1]")
    if not 0.0 < rec.mean_square <= rec.n / (rec.n + 2.0):
        problems.append(f"mean_square {rec.mean_square!r} outside (0, n/(n+2)]")
    if rec.facet_count % 2:
        problems.append(f"odd facet_count {rec.facet_count}")
    return problems


def record_problems(rec, ref: dict | None) -> list[str]:
    """Everything wrong with one record; an empty list means it passes."""
    if ref is None:
        return [f"no reference row for (n, m, trial, seed) = {record_key(rec)}"]
    problems = []
    for f in INT_FIELDS:
        if int(getattr(rec, f)) != ref[f]:
            problems.append(f"{f} {getattr(rec, f)} != reference {ref[f]}")
    for f in FLOAT_FIELDS:
        got, want = float(getattr(rec, f)), ref[f]
        if not abs(got - want) <= REL_TOL * abs(want):
            problems.append(f"{f} {got!r} differs from reference {want!r}")
    return problems + invariant_problems(rec)


def emitted_rows(csv_path: Path, jsonl_path: Path) -> dict[tuple, dict]:
    """Rows of an emitted CSV, keyed like :func:`record_key`.

    A row enters the result only if the JSONL file holds the same values
    for it, so a record missing from the result was not emitted faithfully;
    missing or malformed files leave records missing rather than raising.
    """
    out = {}
    try:
        with open(csv_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = [json.loads(line) for line in Path(jsonl_path).read_text().splitlines() if line]
        for raw, obj in zip(csv_rows, json_rows):
            row = {f: int(raw[f]) for f in INT_FIELDS}
            row.update({f: float(raw[f]) for f in FLOAT_FIELDS})
            if all(obj.get(f) == row[f] for f in INT_FIELDS + FLOAT_FIELDS):
                out[(row["n"], row["m"], row["trial"], row["seed"])] = row
    except (OSError, ValueError, KeyError, TypeError):
        pass  # unreadable or malformed files: what was read so far is all that counts
    return out


def emission_problems(rec, emitted: dict[tuple, dict]) -> list[str]:
    """A record must appear in the emitted files with exactly its values."""
    row = emitted.get(record_key(rec))
    if row is None:
        return [f"record {record_key(rec)} missing from emitted files"]
    return [
        f"emitted {f} {row[f]!r} != {getattr(rec, f)!r}"
        for f in INT_FIELDS + FLOAT_FIELDS
        if row[f] != getattr(rec, f)
    ]
