from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from isohull import harness
from isohull.calibration import diff_record_digests, record_digests, save_fixture
from isohull.harness import (
    CSV_COLUMNS,
    ConfigError,
    EmitError,
    ExperimentConfig,
    TrialRecord,
    cell_points,
    check_inradius_bound,
    check_isotropy_threshold,
    check_second_moment_bound,
    default_alpha,
    default_grid,
    derive_seed,
    emit_records,
    records_from_csv,
    records_from_jsonl,
    run_experiment,
    run_trial,
)
from isohull.hull import CheckResult, ComplexDiagnostics, InvalidComplexError, symmetric_hull
from isohull.isotropy import NotSPDError
from isohull.moments import polytope_volume
from isohull.sphere_stats import sample_symmetric_cloud


def injected_failure(*args, **kwargs):
    raise InvalidComplexError("injected failure")


def small_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        grid=((2, 4), (3, 6)),
        trials=5,
        master_seed=2024,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_roundtrip_json(self, tmp_path):
        cfg = small_config(tmp_path)
        parsed = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert parsed == cfg

    def test_ratio_rules(self):
        cfg = ExperimentConfig.from_json_dict(
            {"grid": [{"n": 4, "ratio": 3.0}, {"n": 3, "ratio": 1.5}], "trials": 1}
        )
        assert cfg.grid == ((4, 12), (3, 5))
        assert cell_points(2, 1.5) == 3

    def test_rejects_zero_trials(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, trials=0).validate()

    def test_rejects_m_not_above_n(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, grid=((3, 3),)).validate()

    def test_repeated_cell_fails_before_any_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", injected_failure)
        monkeypatch.setattr(harness, "_trial_task", injected_failure)
        cfg = small_config(tmp_path, grid=((3, 6), (2, 4), (3, 6)), workers=2)
        with pytest.raises(ConfigError, match=r"repeats cell \(n=3, m=6\)"):
            run_experiment(cfg)

    @pytest.mark.parametrize("cell", [(8, 484), (10, 194), (12, 110), (33, 34), (40, 10**30)])
    def test_key_capacity_fails_before_any_process(self, tmp_path, monkeypatch, cell):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", injected_failure)
        monkeypatch.setattr(harness, "_trial_task", injected_failure)
        cfg = small_config(tmp_path, grid=((3, 6), cell), workers=2)
        with pytest.raises(ConfigError, match=r"C\(2m, n\) < 2\^64"):
            run_experiment(cfg)
        small_config(tmp_path, grid=((8, 483), (10, 193), (12, 109), (32, 33))).validate()

    @pytest.mark.parametrize("parse", [False, True])
    def test_empty_output_dir_fails_before_any_process(self, tmp_path, monkeypatch, parse):
        # "" is not the working directory: it names no directory at all
        monkeypatch.setattr(harness, "ProcessPoolExecutor", injected_failure)
        monkeypatch.setattr(harness, "_trial_task", injected_failure)
        cfg = small_config(tmp_path, output_dir="", workers=2)
        with pytest.raises(ConfigError, match="output_dir"):
            if parse:
                ExperimentConfig.from_json_dict(cfg.to_json_dict())
            run_experiment(cfg)

    @pytest.mark.parametrize("key, value", [("workers", 10**9), ("trials", 10**12)])
    def test_unbounded_counts_fail_before_any_process(self, tmp_path, monkeypatch, key, value):
        # a pool starts all its workers at once, and the task list holds every
        # trial; neither is reached, and nothing is forked or listed if it were
        for name in ("ProcessPoolExecutor", "_trial_task", "derive_seed"):
            monkeypatch.setattr(harness, name, injected_failure)
        cfg = small_config(tmp_path, **{"workers": 2, key: value})
        with pytest.raises(ConfigError, match=f"^{key} must be in"):
            ExperimentConfig.from_json_dict(cfg.to_json_dict())
        with pytest.raises(ConfigError, match=f"^{key} must be in"):
            run_experiment(cfg)

    def test_count_bounds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        small_config(tmp_path, workers=2, trials=harness.MAX_TRIALS).validate()
        for key, value in [("workers", 3), ("trials", harness.MAX_TRIALS + 1)]:
            with pytest.raises(ConfigError, match=key):
                small_config(tmp_path, **{key: value}).validate()
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 6)
        small_config(tmp_path, workers=6).validate()
        with pytest.raises(ConfigError, match=r"workers must be in \[1, 6\]"):
            small_config(tmp_path, workers=7).validate()

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict({"grid": [[2, 4]], "bogus": 1})

    @pytest.mark.parametrize(
        "key, value",
        [("oracle_samples", 0), ("emit", {"csv": True, "jsonl": True}), ("alpha_rule", "default")],
    )
    def test_rejects_keys_a_campaign_does_not_use(self, key, value):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_json_dict({"grid": [[2, 4]], key: value})

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 28
        assert all(m > n for n, m in grid)
        assert (8, 64) in grid and (2, 3) in grid


class TestAlphaRule:
    """The inradius threshold: default_alpha per cell, or one fixed alpha."""

    def test_default_rule_value(self):
        alpha = default_alpha(8, 64)
        assert alpha == pytest.approx(math.sqrt(math.log(8.0) / 8.0) / (2 * math.sqrt(2)))
        assert alpha == pytest.approx(0.1803, abs=5e-5)

    def test_fixed(self, check_records):
        assert all(c["alpha"] == 0.25 for c in check_inradius_bound(check_records, 0.25))

    @pytest.mark.parametrize("value", [math.inf, math.nan, -0.1])
    def test_fixed_needs_finite_non_negative_value(self, check_records, value):
        with pytest.raises(ConfigError):
            check_inradius_bound(check_records, value)


class TestRunTrial:
    def test_deterministic_up_to_timing(self):
        a = run_trial(3, 12, 7)
        b = run_trial(3, 12, 7)
        assert a == b
        assert a.to_json_line() == b.to_json_line()

    def test_small_cell_invariants(self):
        rec = run_trial(2, 3, 99)
        assert 0.0 < rec.l_k <= rec.identity_bound
        assert 0.0 < rec.inradius <= 1.0 + 1e-9
        assert 0.0 < rec.mean_square <= 1.0
        assert rec.max_facet_cross >= -rec.n
        assert rec.resampled == 0

    def test_oracle_deltas_small(self):
        rec = run_trial(4, 12, 123, oracle_samples=100_000)
        assert abs(rec.oracle_deltas["mean_square"]) < 4.0
        assert rec.oracle_deltas["covariance_max"] < 6.0  # max over 16 entries
        assert abs(rec.oracle_deltas["volume"]) < 4.0

    def test_rejects_bad_cell(self):
        with pytest.raises(ConfigError):
            run_trial(3, 3, 1)

    def test_rejects_cell_beyond_key_capacity_before_sampling(self, monkeypatch):
        monkeypatch.setattr(harness, "sample_symmetric_cloud", injected_failure)
        with pytest.raises(ConfigError, match=r"2\^64"):
            run_trial(8, 484, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            run_trial(3, 6, seed)

    def test_rejects_negative_oracle_samples_before_sampling(self, monkeypatch):
        monkeypatch.setattr(harness, "sample_symmetric_cloud", injected_failure)
        with pytest.raises(ConfigError, match="oracle_samples"):
            run_trial(3, 6, 1, oracle_samples=-5)


class TestRunExperiment:
    def test_counts_and_ordering(self, tmp_path):
        res = run_experiment(small_config(tmp_path))
        assert len(res.records) == 10
        keys = [(r.n, r.m, r.trial) for r in res.records]
        assert keys == sorted(keys)
        assert all(r.seed == derive_seed(2024, [r.n, r.m, r.trial]) for r in res.records)
        assert all(r.oracle_deltas is None for r in res.records)

    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        # grid order is cheapest first, so costliest-first dispatch reverses it
        grid = ((2, 3), (2, 4), (3, 6), (4, 8))
        handed = []
        real_map = ProcessPoolExecutor.map

        def recording_map(self, fn, *iterables, **kwargs):
            handed.extend(iterables[0])
            return real_map(self, fn, *iterables, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "map", recording_map)
        out = tmp_path / "out"
        names = ("records.csv", "records.jsonl", "summary.json")
        run_experiment(small_config(tmp_path, grid=grid, trials=3, workers=1))
        serial = [(out / name).read_bytes() for name in names]
        assert handed == []
        run_experiment(small_config(tmp_path, grid=grid, trials=3, workers=2))
        pooled = [(out / name).read_bytes() for name in names]

        costs = [harness.cell_cost(n, m) for n, m, _, _ in handed]
        assert costs == sorted(costs, reverse=True)
        cells = [task[:2] for task in handed]
        runs = [cell for i, cell in enumerate(cells) if i == 0 or cells[i - 1] != cell]
        assert runs == [(4, 8), (3, 6), (2, 4), (2, 3)]
        assert [task[2] for task in handed] == [0, 1, 2] * 4
        # the summary records the worker count, and nothing else differs
        assert pooled[:2] == serial[:2]
        assert pooled[2] == serial[2].replace(b'"workers": 1', b'"workers": 2')

    @pytest.mark.parametrize("workers", [1, 2])
    def test_output_dir_under_a_file_fails_before_any_trial(self, tmp_path, monkeypatch, workers):
        # the directory cannot be made, so no trial's work is thrown away
        # at the end; nothing is dispatched if it were
        monkeypatch.setattr(harness, "ProcessPoolExecutor", injected_failure)
        monkeypatch.setattr(harness, "_trial_task", injected_failure)
        (tmp_path / "file").write_text("")
        cfg = small_config(tmp_path, output_dir=str(tmp_path / "file" / "out"), workers=workers)
        with pytest.raises(EmitError, match="cannot create output directory"):
            run_experiment(cfg)

    def test_output_dir_is_created_before_any_trial(self, tmp_path, monkeypatch):
        out = tmp_path / "a" / "b"

        def task(args):
            assert out.is_dir()
            return real(args)

        real = harness._trial_task
        monkeypatch.setattr(harness, "_trial_task", task)
        run_experiment(small_config(tmp_path, output_dir=str(out), trials=1))
        assert (out / "records.csv").exists()

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_records_do_not_depend_on_the_start_method(self, tmp_path, monkeypatch, method):
        # workers that start from a fresh interpreter (spawn, forkserver)
        # inherit no cache or module state of this process; their records
        # must equal the serial run's byte for byte
        grid = ((2, 3), (3, 6), (4, 8), (5, 10))
        names = ("records.csv", "records.jsonl")
        serial = run_experiment(small_config(tmp_path, grid=grid, trials=2, output_dir=None))
        src = str(Path(harness.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        monkeypatch.setenv("PYTHONPATH", path)
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(
            harness, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context)
        )
        out = tmp_path / method
        run_experiment(small_config(tmp_path, grid=grid, trials=2, workers=2, output_dir=str(out)))
        emit_records(serial.records, tmp_path / "serial")
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
        assert multiprocessing.active_children() == []

    def test_pool_closed_when_a_trial_raises(self, tmp_path, monkeypatch):
        # forked workers inherit the patched run_trial; an error other than
        # TrialError must reach the caller and leave no worker alive
        bad_seed = derive_seed(2024, [3, 6, 2])
        real = harness.run_trial

        def failing(n, m, seed, *args, **kwargs):
            if seed == bad_seed:
                raise ValueError("injected failure")
            return real(n, m, seed, *args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", failing)
        with pytest.raises(ValueError, match="injected failure"):
            run_experiment(small_config(tmp_path, workers=2))
        assert multiprocessing.active_children() == []

    def test_pool_closed_when_the_consumer_raises(self, tmp_path, monkeypatch):
        # the per-cell progress line is logged while outcomes are consumed
        monkeypatch.setattr(harness.log, "info", injected_failure)
        with pytest.raises(InvalidComplexError, match="injected failure") as info:
            run_experiment(small_config(tmp_path, workers=2))
        # info holds the campaign's frame, so nothing is freed before this
        assert multiprocessing.active_children() == [], info

    def test_cell_whose_every_trial_failed_has_a_counts_row(self, tmp_path, monkeypatch):
        real = harness.isotropy_constant

        def failing(volume, cov):
            if cov.shape == (2, 2):
                raise NotSPDError("injected failure")
            return real(volume, cov)

        monkeypatch.setattr(harness, "isotropy_constant", failing)
        cells = run_experiment(small_config(tmp_path)).summary["cells"]
        assert cells[0] == {"n": 2, "m": 4, "trials": 0, "failures": 5}
        assert (cells[1]["n"], cells[1]["m"], cells[1]["trials"]) == (3, 6, 5)
        assert cells[1]["l_k_max"] > 0.0

    def test_failing_stage_becomes_a_failure_row(self, tmp_path, monkeypatch):
        # forked workers inherit the patched isotropy_constant; it fails on
        # the volume of one trial's polytope and nowhere else
        bad_seed = derive_seed(2024, [3, 6, 2])
        bad_volume = polytope_volume(symmetric_hull(sample_symmetric_cloud(3, 6, bad_seed)))
        real = harness.isotropy_constant

        def failing(volume, cov):
            if volume == bad_volume:
                raise NotSPDError("injected failure")
            return real(volume, cov)

        monkeypatch.setattr(harness, "isotropy_constant", failing)
        res = run_experiment(small_config(tmp_path, workers=2))
        assert len(res.records) == 9
        assert res.failures == [
            {
                "n": 3,
                "m": 6,
                "trial": 2,
                "seed": bad_seed,
                "stage": "isotropy",
                "error_type": "NotSPDError",
                "error": "injected failure",
            }
        ]
        assert res.summary["total_failures"] == 1

    @pytest.mark.parametrize(
        "name, stage",
        [
            ("sample_symmetric_cloud", "sample"),
            ("symmetric_hull", "hull"),
            ("validate_complex", "validate"),
            ("polytope_covariance", "moments"),
            ("isotropy_constant", "isotropy"),
        ],
    )
    def test_failure_row_names_its_stage(self, monkeypatch, name, stage):
        monkeypatch.setattr(harness, name, injected_failure)
        status, row = harness._trial_task((3, 6, 0, 11))
        assert status == "failed"
        assert row["stage"] == stage

    def test_oracle_failure_names_its_stage(self, monkeypatch):
        monkeypatch.setattr(harness, "mc_moment_oracle", injected_failure)
        with pytest.raises(InvalidComplexError) as info:
            run_trial(3, 6, 11, oracle_samples=100)
        assert info.value.stage == "oracle"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_runs_no_oracle(self, tmp_path, monkeypatch, workers):
        # forked workers inherit the patched oracle; any call would be a failure row
        monkeypatch.setattr(harness, "mc_moment_oracle", injected_failure)
        res = run_experiment(small_config(tmp_path, trials=2, workers=workers))
        assert res.failures == []
        assert len(res.records) == 4

    def test_degeneracy_cap_names_the_last_failing_stage(self, monkeypatch):
        failed = ComplexDiagnostics((CheckResult("simplicial", False),))
        monkeypatch.setattr(harness, "validate_complex", lambda fc: failed)
        status, row = harness._trial_task((3, 6, 0, 11))
        assert (status, row["error_type"], row["stage"]) == ("failed", "TrialError", "validate")

    def test_progress_logged_once_per_cell(self, tmp_path, caplog):
        out = tmp_path / "out"
        names = ("records.csv", "records.jsonl", "summary.json")
        quiet = run_experiment(small_config(tmp_path))
        quiet_bytes = [(out / name).read_bytes() for name in names]
        with caplog.at_level(logging.INFO, logger="isohull"):
            logged = run_experiment(small_config(tmp_path))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("cell ")]
        # the costlier cell (3, 6) is dispatched, and so logged, first
        assert len(lines) == 2
        assert re.fullmatch(
            r"cell \(n=3, m=6\) done: 5/10 trials, [0-9.]+ s elapsed, ETA [0-9.]+ s", lines[0]
        )
        assert lines[1].startswith("cell (n=2, m=4) done: 10/10 trials,")
        assert lines[1].endswith("ETA 0.0 s")
        # timing goes to the log only
        assert [(out / name).read_bytes() for name in names] == quiet_bytes
        assert quiet.summary == logged.summary

    @pytest.mark.parametrize("name", ["records.csv", "summary.json"])
    def test_write_error_is_reported_once(self, tmp_path, name):
        (tmp_path / "out" / name).mkdir(parents=True)
        with pytest.raises(EmitError) as info:
            run_experiment(small_config(tmp_path, grid=((2, 4),), trials=1))
        assert str(info.value).count("cannot write") == 1

    def test_summary_content(self, tmp_path):
        res = run_experiment(small_config(tmp_path))
        keys = {"grid", "trials", "master_seed", "output_dir", "workers"}
        assert set(res.summary["config"]) == keys
        cells = res.summary["cells"]
        assert [(c["n"], c["m"]) for c in cells] == [(2, 4), (3, 6)]
        for c in cells:
            assert c["trials"] == 5
            assert c["stats"]["l_k"]["min"] > 0.0
        assert (tmp_path / "out" / "summary.json").exists()


# Serial milliseconds per trial of each default-grid cell (medians of 4
# trials, one process, 2-core x86-64 machine; the same order of cells as
# default_grid()).
MEASURED_TRIAL_MS = {
    (2, 3): 0.68, (2, 4): 0.65, (2, 6): 0.74, (2, 16): 0.72,
    (3, 5): 0.69, (3, 6): 0.73, (3, 9): 0.71, (3, 24): 0.83,
    (4, 6): 0.74, (4, 8): 0.75, (4, 12): 0.83, (4, 32): 1.34,
    (5, 8): 1.05, (5, 10): 1.46, (5, 15): 1.45, (5, 40): 4.13,
    (6, 9): 1.49, (6, 12): 2.12, (6, 18): 3.73, (6, 48): 18.18,
    (7, 11): 3.93, (7, 14): 5.29, (7, 21): 16.85, (7, 56): 129.81,
    (8, 12): 7.20, (8, 16): 19.62, (8, 24): 78.39, (8, 64): 924.29,
}


def replayed_etas(monkeypatch, caplog, seconds: dict, trials: int = 2) -> list[tuple[float, float]]:
    """(logged ETA, time actually left) of each cell line of a serial campaign over
    ``seconds``' cells in which a trial of cell c takes ``seconds[c]`` on a fake clock."""
    clock = [0.0]

    def fake_trial(task):
        n, m, trial, seed = task
        clock[0] += seconds[(n, m)]
        return ("failed", {"n": n, "m": m, "trial": trial, "seed": seed})

    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(harness, "_trial_task", fake_trial)
    with caplog.at_level(logging.INFO, logger="isohull"):
        run_experiment(ExperimentConfig(grid=tuple(seconds), trials=trials))
    pattern = r"cell \(n=(\d+), m=(\d+)\) done: .* ETA ([0-9.]+) s"
    etas, left = [], clock[0]
    for match in filter(None, (re.fullmatch(pattern, r.getMessage()) for r in caplog.records)):
        left -= seconds[(int(match[1]), int(match[2]))] * trials
        etas.append((float(match[3]), left))
    return etas


class TestCostOrder:
    def test_three_costliest_default_cells_rank_in_order(self):
        ranked = sorted(default_grid(), key=lambda cell: -harness.cell_cost(*cell))
        assert ranked[:3] == [(8, 64), (7, 56), (8, 24)]

    def test_eta_is_exact_when_time_follows_the_key(self, monkeypatch, caplog):
        seconds = {cell: 3e-5 * harness.cell_cost(*cell) for cell in default_grid()}
        etas = replayed_etas(monkeypatch, caplog, seconds)
        assert len(etas) == 28
        assert etas[-1] == (0.0, pytest.approx(0.0, abs=1e-6))
        for eta, left in etas:
            assert eta == pytest.approx(left, abs=0.051)

    def test_eta_error_is_bounded_by_the_spread_of_time_per_key(self, monkeypatch, caplog):
        # each cell runs between 1 and 3 times slower than its key says
        rng = np.random.default_rng(5)
        seconds = {
            cell: 1e-4 * harness.cell_cost(*cell) * rng.uniform(1.0, 3.0) for cell in default_grid()
        }
        for eta, left in replayed_etas(monkeypatch, caplog, seconds)[:-1]:
            assert left / 3 - 0.05 <= eta <= 3 * left + 0.05

    def test_eta_of_measured_default_grid_costs_within_2x(self, monkeypatch, caplog):
        # measured milliseconds replayed as seconds, so the 0.1 s log
        # resolution does not round the tail's ETAs away
        etas = replayed_etas(monkeypatch, caplog, MEASURED_TRIAL_MS)
        for eta, left in etas[:-1]:
            assert left / 2 <= eta <= 2 * left


class TestRecordDigests:
    def test_one_ulp_nudge_flags_one_cell_column(self, tmp_path):
        records = run_experiment(small_config(tmp_path, output_dir=None)).records
        pinned = record_digests(records)
        assert diff_record_digests(pinned, record_digests(records)) == []

        nudged = list(records)
        k = 7  # (3, 6), trial 2
        v = nudged[k].mean_square
        nudged[k] = dataclasses.replace(nudged[k], mean_square=math.nextafter(v, math.inf))
        diffs = diff_record_digests(pinned, record_digests(nudged))
        assert [(d["n"], d["m"], d["column"]) for d in diffs] == [(3, 6, "mean_square")]
        assert abs(diffs[0]["rel_fsum_diff"]) <= 2.0**-52

    def test_missing_cell_reported(self, tmp_path):
        records = run_experiment(small_config(tmp_path, output_dir=None)).records
        full = record_digests(records)
        part = record_digests([r for r in records if r.n == 2])
        diffs = diff_record_digests(full, part)
        assert {(d["n"], d["m"]) for d in diffs} == {(3, 6)}
        assert len(diffs) == len(CSV_COLUMNS) - 2
        assert all(math.isnan(d["rel_fsum_diff"]) for d in diffs)


@pytest.fixture(scope="module")
def check_records():
    cfg = ExperimentConfig(
        grid=((3, 6), (4, 8), (4, 12)),
        trials=20,
        master_seed=515151,
        output_dir=None,
    )
    return run_experiment(cfg).records


class TestChecks:

    def test_inradius_fixed_zero_never_violated(self, check_records):
        report = check_inradius_bound(check_records, 0.0)
        assert all(cell["violations"] == 0 for cell in report)

    def test_inradius_report_shape(self, check_records):
        report = check_inradius_bound(check_records)
        assert [(c["n"], c["m"]) for c in report] == [(3, 6), (4, 8), (4, 12)]
        for cell in report:
            assert cell["reference_rate"] == pytest.approx(math.exp(-cell["n"]))

    def test_second_moment_constants(self, check_records):
        report = check_second_moment_bound(check_records)
        for cell in report["cells"]:
            assert math.isfinite(cell["c_emp"]) and cell["c_emp"] > 0.0
        assert report["band_ratio"] >= 1.0

    def test_threshold_extremes(self, check_records):
        huge = check_isotropy_threshold(check_records, 1e9)
        assert all(cell["fraction"] == 1.0 for cell in huge)
        tiny_threshold = min(r.l_k for r in check_records) * 0.99
        tiny = check_isotropy_threshold(check_records, tiny_threshold)
        assert all(cell["fraction"] == 0.0 for cell in tiny)

    @pytest.mark.parametrize(
        "check, args",
        [
            (check_inradius_bound, ()),
            (check_second_moment_bound, ()),
            (check_isotropy_threshold, (1.0,)),
        ],
    )
    def test_empty_record_set_is_rejected(self, check, args):
        with pytest.raises(ValueError, match="^no records$"):
            check([], *args)

    @pytest.mark.parametrize("c_star", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_outside_open_half_line_raises(self, check_records, c_star):
        # NaN would compare False everywhere and report fraction 0 per cell
        with pytest.raises(ValueError, match="c_star"):
            check_isotropy_threshold(check_records, c_star)

    def test_bound_shape_column(self, check_records):
        rep = check_isotropy_threshold(check_records, 1.0)
        for cell in rep:
            expected = 1.0 - math.exp(
                -cell["n"] * min(1.0, math.log(cell["m"] / cell["n"]))
            )
            assert cell["bound_shape"] == pytest.approx(expected)


class TestEmit:
    def make_record(self, **overrides) -> TrialRecord:
        base = dict(
            n=3,
            m=6,
            trial=0,
            seed=12345,
            l_k=0.2871,
            identity_bound=0.3,
            vol_root=0.7,
            inradius=0.41,
            mean_square=0.25,
            max_facet_cross=1.5,
            facet_count=20,
            resampled=0,
        )
        base.update(overrides)
        return TrialRecord(**base)

    @pytest.mark.parametrize("n, m", [(3, 2), (0, 9), (3, 0), (1, 4)])
    def test_record_of_a_cell_no_trial_can_run_is_rejected(self, n, m):
        with pytest.raises(ConfigError, match="m > n >= 2"):
            self.make_record(n=n, m=m)

    @pytest.mark.parametrize(
        "column, value",
        [("trial", 2.5), ("facet_count", math.inf), ("seed", math.nan), ("n", True)],
    )
    def test_integer_columns_take_only_integers(self, column, value):
        values = dataclasses.asdict(self.make_record()) | {column: value}
        with pytest.raises(ConfigError, match=f"{column} must be an integer"):
            TrialRecord.from_values(values)

    @pytest.mark.parametrize(
        "column, value",
        [("l_k", math.nan), ("mean_square", math.inf), ("inradius", "-inf"), ("vol_root", "NaN")],
    )
    def test_float_columns_take_only_finite_numbers(self, column, value):
        values = dataclasses.asdict(self.make_record()) | {column: value}
        with pytest.raises(ConfigError, match=f"{column} must be finite"):
            TrialRecord.from_values(values)

    @pytest.mark.parametrize(
        "rows",
        [
            [{"mean_square": 1.7e308}],  # c_emp
            [{"max_facet_cross": 1.7e308, "n": 2, "m": 3}],  # facet_cross_ratio
            [{"mean_square": 1e300}, {"n": 2, "m": 4, "mean_square": 1e-10}],  # band_ratio
        ],
    )
    def test_second_moment_overflow_is_config_error(self, rows):
        # finite records whose figures pass the float maximum
        with pytest.raises(ConfigError, match="overflow"):
            check_second_moment_bound([self.make_record(**row) for row in rows])

    def test_header_only_for_empty(self, tmp_path):
        paths = emit_records([], tmp_path)
        assert (tmp_path / "records.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert (tmp_path / "records.jsonl").read_text() == ""
        assert set(paths) == {"csv", "jsonl"}

    def test_roundtrip_preserves_values_exactly(self, tmp_path):
        records = [
            self.make_record(trial=t, l_k=0.1 + 1e-17 + t / 7.0)
            for t in range(4)
        ]
        emit_records(records, tmp_path)
        from_csv = records_from_csv(tmp_path / "records.csv")
        from_jsonl = records_from_jsonl(tmp_path / "records.jsonl")
        assert from_csv == records
        assert from_jsonl == records
        emit_records(from_csv, tmp_path / "again")
        assert (tmp_path / "records.csv").read_bytes() == (
            tmp_path / "again" / "records.csv"
        ).read_bytes()

    def test_rows_in_canonical_order(self, tmp_path):
        records = [
            self.make_record(n=4, m=8, trial=1),
            self.make_record(n=3, m=6, trial=1),
            self.make_record(n=3, m=6, trial=0),
        ]
        emit_records(records, tmp_path)
        parsed = records_from_csv(tmp_path / "records.csv")
        assert [(r.n, r.m, r.trial) for r in parsed] == [(3, 6, 0), (3, 6, 1), (4, 8, 1)]

    def test_seventeen_digit_floats(self, tmp_path):
        rec = self.make_record(l_k=1.0 / 3.0)
        emit_records([rec], tmp_path)
        text = (tmp_path / "records.csv").read_text()
        assert "0.33333333333333331" in text

    def test_failed_replace_leaves_old_files(self, tmp_path, monkeypatch):
        emit_records([self.make_record()], tmp_path)
        save_fixture({"old": True}, tmp_path / "calibration.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing_replace(src, dst):
            raise OSError("injected failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(EmitError):
            emit_records([self.make_record(l_k=0.5)], tmp_path)
        with pytest.raises(OSError):
            save_fixture({"new": True}, tmp_path / "calibration.json")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_canonical_drops_oracle_deltas(self):
        rec = self.make_record(oracle_deltas={"mean_square": 0.1})
        canon = rec.canonical()
        assert canon.oracle_deltas is None
        assert canon == rec  # the deltas are not compared
        assert canon.to_json_line() == rec.to_json_line()

    def test_twelve_determined_columns(self):
        assert ",".join(CSV_COLUMNS) == (
            "n,m,trial,seed,l_k,identity_bound,vol_root,inradius,"
            "mean_square,max_facet_cross,facet_count,resampled"
        )
        assert harness._INT_COLUMNS == ("n", "m", "trial", "seed", "facet_count", "resampled")

    def test_jsonl_of_an_earlier_build_reads(self, tmp_path):
        # earlier builds wrote a 13th column, wall_time_ms, always 0.0; the
        # CSV of such a build is a malformed records file (test_cli)
        rec = self.make_record()
        old = json.loads(rec.to_json_line()) | {"wall_time_ms": 0.0}
        (tmp_path / "old.jsonl").write_text(json.dumps(old) + "\n")
        assert records_from_jsonl(tmp_path / "old.jsonl") == [rec]
