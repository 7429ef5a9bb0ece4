from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing

import pytest

from isohull import harness
from isohull.harness import (
    AlphaRule,
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    cell_points,
    check_inradius_bound,
    check_isotropy_threshold,
    check_second_moment_bound,
    default_grid,
    derive_seed,
    diff_record_digests,
    emit_records,
    records_from_csv,
    record_digests,
    records_from_jsonl,
    run_experiment,
    run_trial,
)


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

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict({"grid": [[2, 4]], "bogus": 1})

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 28
        assert all(m > n for n, m in grid)
        assert (8, 64) in grid and (2, 3) in grid


class TestAlphaRule:
    def test_default_rule_value(self):
        alpha = AlphaRule().alpha(8, 64)
        assert alpha == pytest.approx(math.sqrt(math.log(8.0) / 8.0) / (2 * math.sqrt(2)))
        assert alpha == pytest.approx(0.1803, abs=5e-5)

    def test_fixed(self):
        assert AlphaRule("fixed", 0.25).alpha(5, 10) == 0.25

    def test_json_roundtrip(self):
        assert AlphaRule.from_json("default") == AlphaRule()
        assert AlphaRule.from_json({"fixed": 0.1}) == AlphaRule("fixed", 0.1)


class TestRunTrial:
    def test_deterministic_up_to_timing(self):
        a = run_trial(3, 12, 7)
        b = run_trial(3, 12, 7)
        assert a.canonical() == b.canonical()
        assert a.wall_time_ms > 0.0

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


class TestRunExperiment:
    def test_counts_and_ordering(self, tmp_path):
        res = run_experiment(small_config(tmp_path))
        assert len(res.records) == 10
        keys = [(r.n, r.m, r.trial) for r in res.records]
        assert keys == sorted(keys)
        assert all(r.seed == derive_seed(2024, [r.n, r.m, r.trial]) for r in res.records)
        assert all(r.wall_time_ms == 0.0 for r in res.records)

    def test_byte_identical_across_worker_counts(self, tmp_path):
        cfg1 = small_config(tmp_path, output_dir=str(tmp_path / "w1"), workers=1)
        cfg2 = small_config(tmp_path, output_dir=str(tmp_path / "w2"), workers=2)
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        for name in ("records.csv", "records.jsonl"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
        assert r1.summary["cells"] == r2.summary["cells"]

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

    def test_summary_content(self, tmp_path):
        res = run_experiment(small_config(tmp_path))
        cells = res.summary["cells"]
        assert [(c["n"], c["m"]) for c in cells] == [(2, 4), (3, 6)]
        for c in cells:
            assert c["trials"] == 5
            assert c["stats"]["l_k"]["min"] > 0.0
        assert (tmp_path / "out" / "summary.json").exists()


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
        report = check_inradius_bound(check_records, AlphaRule("fixed", 0.0))
        assert all(cell["violations"] == 0 for cell in report)

    def test_inradius_report_shape(self, check_records):
        report = check_inradius_bound(check_records, AlphaRule())
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

    def test_bound_shape_column(self, check_records):
        rep = check_isotropy_threshold(check_records, 1.0, c1=1.0, c2=1.0)
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
            wall_time_ms=0.0,
        )
        base.update(overrides)
        return TrialRecord(**base)

    def test_header_only_for_empty(self, tmp_path):
        paths = emit_records([], tmp_path)
        assert (tmp_path / "records.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
        assert (tmp_path / "records.jsonl").read_text() == ""
        assert set(paths) == {"csv", "jsonl"}

    def test_roundtrip_preserves_values_exactly(self, tmp_path):
        records = [
            self.make_record(trial=t, l_k=0.1 + 1e-17 + t / 7.0, wall_time_ms=0.0)
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

    def test_canonical_zeroes_timing(self):
        rec = self.make_record(wall_time_ms=12.5, oracle_deltas={"mean_square": 0.1})
        canon = rec.canonical()
        assert canon.wall_time_ms == 0.0
        assert canon.oracle_deltas is None
        assert dataclasses.replace(rec, wall_time_ms=0.0) == canon
