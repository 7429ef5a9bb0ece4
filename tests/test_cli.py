from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isohull
from isohull.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from isohull.harness import ConfigError, ExperimentConfig


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSample:
    def test_stdout_json(self, capsys):
        code, out, _ = run_main(capsys, "sample", "--n", "3", "--m", "5", "--seed", "7")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["n"] == 3 and payload["m"] == 5
        assert len(payload["points"]) == 5

    def test_insufficient_points_is_usage_error(self, capsys):
        code, _, err = run_main(capsys, "sample", "--n", "3", "--m", "2", "--seed", "7")
        assert code == EXIT_USAGE
        assert "insufficient" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "cloud.json"
        code, _, _ = run_main(
            capsys, "sample", "--n", "2", "--m", "4", "--seed", "1", "--out", str(path)
        )
        assert code == EXIT_OK
        assert json.loads(path.read_text())["m"] == 4


class TestHull:
    def test_reports_validation(self, capsys, tmp_path):
        dump = tmp_path / "hull.txt"
        code, out, _ = run_main(
            capsys, "hull", "--n", "3", "--m", "8", "--seed", "3", "--dump", str(dump)
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["validation"]["passed"] is True
        header = dump.read_text().splitlines()[0].split()
        assert header[:2] == ["3", "8"]


class TestTrial:
    def test_record_json(self, capsys):
        code, out, _ = run_main(capsys, "trial", "--n", "3", "--m", "9", "--seed", "11")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["l_k"] > 0.0
        assert rec["wall_time_ms"] > 0.0

    def test_oracle_deltas_attached(self, capsys):
        code, out, _ = run_main(
            capsys,
            "trial", "--n", "3", "--m", "6", "--seed", "2",
            "--oracle-samples", "20000",
        )
        assert code == EXIT_OK
        assert "oracle_deltas" in json.loads(out)


class TestExperiment:
    def test_runs_config_file(self, capsys, tmp_path):
        config = {
            "grid": [[2, 4]],
            "trials": 3,
            "master_seed": 5,
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run_main(capsys, "experiment", "--config", str(cfg_path))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["records"] == 3
        assert (tmp_path / "out" / "records.csv").exists()
        assert (tmp_path / "out" / "records.jsonl").exists()

    def test_format_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": [[2, 4]], "trials": 1, "master_seed": 5}))
        code, _, _ = run_main(
            capsys,
            "experiment", "--config", str(cfg_path),
            "--out", str(tmp_path / "o2"), "--format", "csv",
        )
        assert code == EXIT_OK
        assert (tmp_path / "o2" / "records.csv").exists()
        assert not (tmp_path / "o2" / "records.jsonl").exists()

    def test_invalid_config_is_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"grid": [[3, 3]], "trials": 1}))
        code, _, err = run_main(capsys, "experiment", "--config", str(cfg_path))
        assert code == EXIT_USAGE
        assert "m > n" in err

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_main(
            capsys, "experiment", "--config", str(tmp_path / "nope.json")
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "config",
        [
            {"grid": [[2, 4]], "emit": ["csv"]},
            {"grid": [[2, 4]], "trials": "abc"},
            {"grid": [{"m": 4}]},
            {"grid": [3]},
            {"grid": 5},
        ],
        ids=["emit-list", "trials-text", "grid-entry-without-n", "grid-entry-scalar", "grid-scalar"],
    )
    def test_malformed_config_is_config_error(self, capsys, tmp_path, config):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict(config)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_main(capsys, "experiment", "--config", str(cfg_path))
        assert code == EXIT_USAGE
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_every_accepted_config_form_parses(self):
        config = ExperimentConfig.from_json_dict(
            {
                "grid": [[2, 4], {"n": 3, "m": 6}, {"n": 4, "ratio": 2}, ("5", 7.0)],
                "trials": "3",
                "emit": "csv",
            }
        )
        assert config.grid == ((2, 4), (3, 6), (4, 8), (5, 7))
        assert config.trials == 3
        assert (config.emit_csv, config.emit_jsonl) == (True, False)
        config = ExperimentConfig.from_json_dict({"grid": [[2, 4]], "emit": {"jsonl": False}})
        assert (config.emit_csv, config.emit_jsonl) == (True, False)


class TestCheck:
    def test_check_over_emitted_records(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "grid": [[3, 9], [4, 8]],
                    "trials": 4,
                    "master_seed": 99,
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert run_main(capsys, "experiment", "--config", str(cfg_path))[0] == EXIT_OK
        code, out, _ = run_main(
            capsys, "check", "--records", str(tmp_path / "out" / "records.jsonl")
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert {c["n"] for c in report["inradius"]} == {3, 4}
        assert report["second_moment"]["band_ratio"] >= 1.0
        assert all(c["fraction"] == 1.0 for c in report["lk_threshold"])


class TestOracle:
    def test_reports_deltas(self, capsys):
        code, out, _ = run_main(
            capsys,
            "trial", "--n", "3", "--m", "7", "--seed", "5",
            "--oracle-samples", "20000",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["oracle_deltas"]["mean_square"]) < 6.0


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, err = run_main(capsys, "trial", "--n", "3", "--m", "9", "--bogus", "1")
        assert code == EXIT_USAGE

    def test_console_script_installed(self):
        # the child imports the same package as this process, also when the
        # package directory is on sys.path only through the pytest config
        src = str(Path(isohull.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "isohull.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "isohull" in proc.stdout
