"""Calibration: fit-and-freeze constants with provenance.

The probabilistic claims under test involve absolute constants the theory
never pins down, so the campaign-side checks are fit-and-freeze: a
calibration run fits them (psi_2 bound A-hat, the L_K threshold c_star,
the per-cell second-moment constant band) and writes them to a fixture
that later runs assert against.

The fixture pins the pilot campaign's record bytes as well.  Those hold
only within one numeric build, so it names the build
(:func:`build_fingerprint`) and stores per-cell, per-column digests
(:func:`record_digests`) that locate a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    TrialError,
    TrialRecord,
    _cell_groups,
    _sort_key,
    _write_atomic,
    default_grid,
    run_experiment,
)
from .sphere_stats import (
    RngStream,
    ball_volume,
    bernstein_bound,
    cap_tail_prob,
    psi2_norm_estimate,
    sphere_abs_moment,
    sphere_points,
)

__all__ = [
    "run_calibration",
    "record_digests",
    "diff_record_digests",
    "build_fingerprint",
    "load_fixture",
    "save_fixture",
    "fixture_path",
    "psi2_sphere_estimates",
    "bernstein_tail_table",
    "stirling_moment_band",
    "small_cap_constant",
]

# Seeds and grids of the deterministic calibration procedures that do not
# go through the campaign grid.
PSI2_CAL_SEED = 711019
PSI2_CAL_DIMS = (2, 8, 32, 64)
PSI2_CAL_SAMPLES = 100_000
BERNSTEIN_CAL_SEED = 815321
BERNSTEIN_CAL_DIMS = (2, 8, 32)
BERNSTEIN_CAL_COUNTS = (16, 64)
BERNSTEIN_CAL_EPS = (0.5, 1.0)
BERNSTEIN_CAL_REPLICATIONS = 4000
STIRLING_CAL_DIMS = tuple(range(2, 65))
STIRLING_CAL_ORDERS = tuple(range(1, 65))
SMALL_CAP_CAL_DIMS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
SMALL_CAP_CAL_EPS_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0)


def fixture_path() -> Path:
    return Path(__file__).parent / "fixtures" / "calibration.json"


def load_fixture(path: str | Path | None = None) -> dict:
    p = Path(path) if path is not None else fixture_path()
    return json.loads(p.read_text())


def save_fixture(fixture: dict, path: str | Path | None = None) -> Path:
    p = Path(path) if path is not None else fixture_path()
    p.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(p, json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    return p


def psi2_sphere_estimates() -> dict[int, float]:
    """Empirical psi_2 norms of sqrt(n) <P, theta> per PSI2_CAL_DIMS dimension.

    Uses theta = e_1 (rotation invariance makes the direction immaterial)
    and a per-dimension derived stream, so results are reproducible.
    """
    out = {}
    for n in PSI2_CAL_DIMS:
        g = sphere_points(n, PSI2_CAL_SAMPLES, RngStream(PSI2_CAL_SEED, (n,)))
        out[int(n)] = psi2_norm_estimate(math.sqrt(n) * g[:, 0])
    return out


def bernstein_tail_table(a_hat: float) -> list[dict]:
    """Empirical tails of |sum sqrt(n) <P_i, theta>| > eps N vs the bound (BERNSTEIN_CAL_*)."""
    rows = []
    for n in BERNSTEIN_CAL_DIMS:
        for N in BERNSTEIN_CAL_COUNTS:
            # row-major (R*N, n) is the (R, N, n) draw, so rows regroup by replication
            R = BERNSTEIN_CAL_REPLICATIONS
            g = sphere_points(n, R * N, RngStream(BERNSTEIN_CAL_SEED, (n, N)))
            sums = math.sqrt(n) * g[:, 0].reshape(R, N).sum(axis=1)
            for eps in BERNSTEIN_CAL_EPS:
                tail = float(np.mean(np.abs(sums) > eps * N))
                bound = bernstein_bound(N, eps, a_hat)
                rows.append(
                    {
                        "n": int(n),
                        "N": int(N),
                        "eps": float(eps),
                        "tail": tail,
                        "bound": bound,
                    }
                )
    return rows


def stirling_moment_band() -> dict:
    """Range of sphere_abs_moment(n, q)^{1/q} / sqrt(q / (q + n)), STIRLING_CAL_* grid."""
    n_values, q_values = STIRLING_CAL_DIMS, STIRLING_CAL_ORDERS
    lo, hi = math.inf, -math.inf
    for n in n_values:
        for q in q_values:
            ratio = sphere_abs_moment(n, q) ** (1.0 / q) / math.sqrt(q / (q + n))
            lo = min(lo, ratio)
            hi = max(hi, ratio)
    return {
        "b1": lo,
        "b2": hi,
        "n_min": int(min(n_values)),
        "n_max": int(max(n_values)),
        "q_min": int(min(q_values)),
        "q_max": int(max(q_values)),
    }


def small_cap_constant() -> dict:
    """Fit c with 1 - cap_tail_prob(n, eps) <= c sqrt(n) eps for eps <= 1/sqrt(n).

    Over the SMALL_CAP_CAL_* grid.  For n >= 3 the ratio is largest as eps
    -> 0 where it equals the density of <P, theta> at zero over sqrt(n);
    including that analytic candidate makes the fitted constant valid for
    every eps, not just grid points.
    """
    worst = 0.0
    for n in SMALL_CAP_CAL_DIMS:
        density0 = 2.0 * (n - 1) * ball_volume(n - 1) / (n * ball_volume(n))
        worst = max(worst, density0 / math.sqrt(n))
        for frac in SMALL_CAP_CAL_EPS_FRACTIONS:
            eps = frac / math.sqrt(n)
            band = 1.0 - cap_tail_prob(n, eps)
            worst = max(worst, band / (math.sqrt(n) * eps))
    return {"c": worst, "n_values": list(SMALL_CAP_CAL_DIMS)}


def _cells_list(values: dict[tuple[int, int], float]) -> list[list]:
    return [[n, m, v] for (n, m), v in sorted(values.items())]


def record_digests(records: Sequence[TrialRecord]) -> dict[tuple[int, int], dict]:
    """Per-cell, per-column digests of a record set.

    For each (n, m) cell and each column other than n and m, the digest
    holds the SHA-256 of the column's canonical text (its CSV fields in
    (n, m, trial) order, one a line) and the ``math.fsum`` of its values.
    Two record sets with different file hashes differ in exactly the
    digests of the columns that changed; the fsums give the size.
    """
    digests = {}
    for cell, recs in _cell_groups(sorted(records, key=_sort_key)).items():
        columns = zip(CSV_COLUMNS, zip(*(r._texts() for r in recs)))
        digests[cell] = {
            col: {
                "sha256": hashlib.sha256("\n".join(texts).encode()).hexdigest(),
                "fsum": math.fsum(getattr(r, col) for r in recs),
            }
            for col, texts in columns
            if col not in ("n", "m")
        }
    return digests


def diff_record_digests(expected: dict, actual: dict) -> list[dict]:
    """The (n, m, column) digests that differ, with relative fsum difference.

    Both arguments map (n, m) to the column digests of ``record_digests``.
    A cell or column missing on one side is reported with a NaN difference.
    """
    diffs = []
    for cell in sorted(set(expected) | set(actual)):
        exp, act = expected.get(cell, {}), actual.get(cell, {})
        for col in sorted(set(exp) | set(act)):
            e, a = exp.get(col), act.get(col)
            if e is not None and a is not None and e["sha256"] == a["sha256"]:
                continue
            if e is None or a is None:
                rel = math.nan
            elif e["fsum"] != 0.0:
                rel = (a["fsum"] - e["fsum"]) / abs(e["fsum"])
            else:
                rel = 0.0 if a["fsum"] == 0.0 else math.inf
            diffs.append({"n": cell[0], "m": cell[1], "column": col, "rel_fsum_diff": rel})
    return diffs


def _openblas_cores() -> dict[str, str] | None:
    # The OpenBLAS kernel set is picked at load time from the CPU, so it is
    # read from the loaded libraries themselves; Linux only (None elsewhere).
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    cores = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        # plain OpenBLAS, then the scipy-openblas 32- and 64-bit-int wheels
        for symbol in (
            "openblas_get_corename",
            "scipy_openblas_get_corename",
            "scipy_openblas_get_corename64_",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                cores[Path(lib).name] = getter().decode()
                break
    return cores


def build_fingerprint() -> dict:
    """The numeric build that record bits depend on.

    Record bytes are reproducible only within one build: the Python, numpy
    and scipy versions, numpy's SIMD dispatch (libm-style kernels such as
    ``np.log``) and the BLAS with its runtime core (``det`` and matmul
    reductions) can each move the last bits of a float column.
    """
    import scipy

    fingerprint = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    fingerprint["numpy_simd"] = config.get("SIMD Extensions")
    fingerprint["numpy_blas"] = {
        key: blas.get(key) for key in ("name", "version", "openblas configuration")
    }
    fingerprint["openblas_core"] = _openblas_cores()
    return fingerprint


def run_calibration(workers: int) -> dict:
    """Run the pilot campaign (default grid, trials and master seed); fit every constant.

    Returns the fixture dict (see ``save_fixture``); the campaign's emitted
    CSV/JSONL hashes are recorded so later runs of the identical config can
    assert byte-stable output without re-reading the pilot files.  Those
    bytes hold only within one build, so the fixture also names its build
    (``provenance.build``, see ``build_fingerprint``) and stores per-cell,
    per-column ``record_digests`` that locate a mismatch.  The per-cell
    figures (``l_k_max``, ``c_emp``, inradius violations, ``growth_stat``)
    are read from the campaign summary, the one place they are computed.
    The campaign runs first, so an invalid ``workers`` is a ConfigError
    before any work, and a cell without a record is a TrialError before
    any fit.
    """
    with tempfile.TemporaryDirectory() as tmp:
        config = ExperimentConfig(grid=tuple(default_grid()), output_dir=tmp, workers=workers)
        result = run_experiment(config)
        csv_hash = hashlib.sha256(Path(result.paths["csv"]).read_bytes()).hexdigest()
        jsonl_hash = hashlib.sha256(Path(result.paths["jsonl"]).read_bytes()).hexdigest()

    cells = result.summary["cells"]
    empty = [f"(n={c['n']}, m={c['m']})" for c in cells if c["trials"] == 0]
    if empty:
        raise TrialError(f"no record to calibrate from in cells {', '.join(empty)}")

    psi2 = psi2_sphere_estimates()
    a_hat = 1.05 * max(psi2.values())
    bern = bernstein_tail_table(a_hat)
    band = stirling_moment_band()
    cap_c = small_cap_constant()
    cap_c["c"] *= 1.0 + 1e-9

    lk_max = max(c["l_k_max"] for c in cells)
    c_star = 1.05 * lk_max
    c_emp_cells = {(c["n"], c["m"]): c["c_emp"] for c in cells}
    slice_cells = {
        (n, m): v for (n, m), v in c_emp_cells.items() if 4 <= n <= 8 and m == 3 * n
    }
    growth = {(c["n"], c["m"]): c["growth_stat"] for c in cells}

    fixture = {
        "provenance": {
            "package_version": __version__,
            "master_seed": config.master_seed,
            "trials": config.trials,
            "grid": [[n, m] for n, m in config.grid],
            "config_content_hash": config.content_hash(),
            "build": build_fingerprint(),
        },
        "psi2": {
            "dims": list(PSI2_CAL_DIMS),
            "sample_count": PSI2_CAL_SAMPLES,
            "seed": PSI2_CAL_SEED,
            "estimates": {str(k): v for k, v in psi2.items()},
            "a_hat": a_hat,
        },
        "bernstein": {
            "seed": BERNSTEIN_CAL_SEED,
            "rows": bern,
            "max_tail_to_bound": max(
                (row["tail"] / row["bound"] for row in bern), default=0.0
            ),
        },
        "stirling_band": band,
        "small_cap": cap_c,
        "campaign": {
            "l_k_max": lk_max,
            "c_star": c_star,
            "c_emp_cells": _cells_list(c_emp_cells),
            "c_emp_band": {
                "slice": "m = 3n, n in 4..8",
                "cells": _cells_list(slice_cells),
                "lo": min(slice_cells.values()),
                "hi": max(slice_cells.values()),
            },
            "inradius_violations": [
                [c["n"], c["m"], c["inradius_check"]["violations"]] for c in cells
            ],
            "growth_stat": {
                "cells": _cells_list(growth),
                "min": min(growth.values()),
                "max": max(growth.values()),
            },
            "records_csv_sha256": csv_hash,
            "records_jsonl_sha256": jsonl_hash,
            "record_digests": _cells_list(record_digests(result.records)),
            "total_failures": len(result.failures),
        },
    }
    return fixture
