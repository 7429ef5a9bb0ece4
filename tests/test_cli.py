from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import isohull
from isohull import cli, harness
from isohull.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _UsageExit,
    build_parser,
    main,
)
from isohull.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    TrialError,
    emit_records,
    run_trial,
)
from isohull.hull import InvalidComplexError


def injected_failure(*args, **kwargs):
    raise InvalidComplexError("injected failure")


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

    def test_accepts_cell_beyond_the_key_capacity(self, capsys):
        # sampling builds no hull, so C(2m, n) >= 2^64 does not matter
        code, out, _ = run_main(capsys, "sample", "--n", "12", "--m", "110", "--seed", "7")
        assert code == EXIT_OK
        assert len(json.loads(out)["points"]) == 110

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
        assert set(rec) == {*CSV_COLUMNS, "wall_time_ms"}

    def test_trial_failure_is_numerical_exit(self, capsys, monkeypatch):
        def failing_trial(*args):
            raise TrialError("degeneracy re-draw cap (8 attempts) exceeded")

        monkeypatch.setattr(cli, "run_trial", failing_trial)
        code, out, err = run_main(capsys, "trial", "--n", "3", "--m", "9", "--seed", "11")
        assert code == EXIT_NUMERICAL
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert out == ""

    def test_oracle_deltas_attached(self, capsys):
        code, out, _ = run_main(
            capsys,
            "trial", "--n", "3", "--m", "6", "--seed", "2",
            "--oracle-samples", "20000",
        )
        assert code == EXIT_OK
        assert "oracle_deltas" in json.loads(out)

    @pytest.mark.parametrize("samples", ["1", "2"])
    def test_zero_standard_errors_give_finite_deltas(self, capsys, samples):
        # one sample has a zero mean-square standard error; two rejection
        # draws that both hit have a zero volume standard error
        code, out, _ = run_main(
            capsys, "trial", "--n", "3", "--m", "6", "--seed", "1", "--oracle-samples", samples
        )
        assert code == EXIT_OK
        deltas = json.loads(out)["oracle_deltas"]
        assert set(deltas) == {"mean_square", "covariance_max", "volume"}
        assert all(abs(v) < float("inf") for v in deltas.values())


# config cases that must be one-line config errors, by test id
MALFORMED_CONFIGS = {
    "unknown-key": {"grid": [[2, 4]], "emit": ["csv"]},
    "trials-text": {"grid": [[2, 4]], "trials": "abc"},
    "grid-entry-without-n": {"grid": [{"m": 4}]},
    "grid-entry-scalar": {"grid": [3]},
    "grid-scalar": {"grid": 5},
    "grid-fraction": {"grid": [[2.7, 5]]},
    "grid-entry-text": {"grid": ["25"]},
    "trials-fraction": {"grid": [[2, 4]], "trials": 3.9},
    "trials-bool": {"grid": [[2, 4]], "trials": True},
    "workers-fraction": {"grid": [[2, 4]], "workers": 1.5},
    "ratio-bool": {"grid": [{"n": 4, "ratio": True}]},
    "output-dir-number": {"grid": [[2, 4]], "output_dir": 5},
    "grid-repeated-cell": {"grid": [[3, 6], [3, 6]], "trials": 2},
    # cells whose facet keys would need C(2m, n) >= 2^64
    "grid-huge-m": {"grid": [[8, 10**30]]},
    "grid-huge-ratio": {"grid": [{"n": 4, "ratio": 1e300}]},
    "grid-n-40": {"grid": [[40, 41]]},
}


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

    def test_config_that_is_not_json_is_config_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"grid": [[2, 4]],')
        code, out, err = run_main(capsys, "experiment", "--config", str(cfg_path))
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and "not valid JSON" in err
        assert err.count("\n") == 1 and out == ""

    @pytest.mark.parametrize("config", MALFORMED_CONFIGS.values(), ids=list(MALFORMED_CONFIGS))
    def test_malformed_config_is_config_error(self, capsys, tmp_path, config):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict(config)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_main(capsys, "experiment", "--config", str(cfg_path))
        assert code == EXIT_USAGE
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_output_dir_under_a_file_is_io_error_before_any_trial(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_trial_task", injected_failure)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", injected_failure)
        (tmp_path / "file").write_text("")
        config = {"grid": [[3, 6], [4, 8]], "trials": 3, "output_dir": str(tmp_path / "file" / "out")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run_main(capsys, "experiment", "--config", str(cfg_path))
        assert code == EXIT_IO
        assert err.startswith("i/o error: cannot create output directory") and out == ""

    def test_every_accepted_config_form_parses(self):
        config = ExperimentConfig.from_json_dict(
            {
                "grid": [[2, 4], {"n": 3, "m": 6}, {"n": 4, "ratio": 2}, ("5", 7.0)],
                "trials": "3",
            }
        )
        assert config.grid == ((2, 4), (3, 6), (4, 8), (5, 7))
        assert config.trials == 3


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

    @staticmethod
    def write_records(tmp_path) -> Path:
        path = tmp_path / "records.jsonl"
        path.write_text(run_trial(3, 9, 11).canonical().to_json_line() + "\n")
        return path

    @pytest.mark.parametrize("alpha", ["inf", "nan", "-0.5"])
    def test_fixed_alpha_must_be_finite_and_non_negative(self, capsys, tmp_path, alpha):
        path = self.write_records(tmp_path)
        code, out, err = run_main(capsys, "check", "--records", str(path), "--alpha", alpha)
        assert code == EXIT_USAGE
        assert err.startswith("config error:")
        assert out == ""

    @pytest.mark.parametrize(
        "name, text, is_fixture",
        [
            ("records.jsonl", "", False),
            ("records.csv", "n,m,trial\n3,9,0\n", False),
            ("records.jsonl", '{"n": 3, "m": 9, "tri', False),
            ("records.jsonl", '{"n": 3, "m": 9, "trial": 0}\n', False),
            # 13 fields under the 12-column header
            ("records.csv", ",".join(CSV_COLUMNS) + "\n3,9,0,11," + "0.5," * 6 + "10,0,7", False),
            # the 13-column header of earlier builds, which ended in wall_time_ms
            (
                "records.csv",
                ",".join(CSV_COLUMNS) + ",wall_time_ms\n3,9,0,11," + "0.5," * 6 + "10,0,0",
                False,
            ),
            # cells no trial can run: m < n, n = 0, m = 0
            ("records.csv", ",".join(CSV_COLUMNS) + "\n9,3,0,11," + "0.5," * 6 + "10,0", False),
            ("records.csv", ",".join(CSV_COLUMNS) + "\n0,9,0,11," + "0.5," * 6 + "10,0", False),
            ("records.csv", ",".join(CSV_COLUMNS) + "\n3,0,0,11," + "0.5," * 6 + "10,0", False),
            ("fixture.json", '{"campaign": {"c_star": ', True),
            ("fixture.json", '{"campaign": {"c_star": 0}}', True),
        ],
        ids=[
            "empty-jsonl",
            "csv-header",
            "truncated-jsonl",
            "jsonl-missing-column",
            "csv-extra-field",
            "csv-earlier-13-columns",
            "csv-m-below-n",
            "csv-n-zero",
            "csv-m-zero",
            "bad-fixture",
            "fixture-c-star-zero",
        ],
    )
    def test_bad_input_file_is_one_line_usage_error(self, capsys, tmp_path, name, text, is_fixture):
        bad = tmp_path / name
        bad.write_text(text)
        argv = ["check", "--records", str(bad)]
        if is_fixture:
            argv = ["check", "--records", str(self.write_records(tmp_path)), "--fixtures", str(bad)]
        code, out, err = run_main(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and str(bad) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == ""

    def test_unreadable_records_is_io_error(self, capsys, tmp_path):
        code, _, err = run_main(capsys, "check", "--records", str(tmp_path / "none.jsonl"))
        assert code == EXIT_IO
        assert err.startswith("i/o error:")


# any JSON value: NaN and +-inf among the floats, integers past the float range
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# grid entries of the {"n": ..., "m" or "ratio": ...} form, any value in each key
GRID_RULES = st.fixed_dictionaries(
    {"n": JSON_VALUES}, optional={"m": JSON_VALUES, "ratio": JSON_VALUES}
)
# the same examples on every run, so a failure reproduces
HOSTILE_EXAMPLES = settings(max_examples=500, deadline=None, derandomize=True)
VALID_CONFIG = {
    "grid": [[2, 4], [3, 6]], "trials": 2, "master_seed": 5, "output_dir": None, "workers": 1
}
VALID_RECORD = dict(
    zip(CSV_COLUMNS, [3, 6, 0, 12345, 0.29, 0.3, 0.7, 0.41, 0.25, 1.5, 20, 0], strict=True)
)


def strict_json(text: str):
    """Parse JSON as RFC 8259 defines it: no NaN or Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def emitted_records(tmp_path_factory) -> dict[str, bytes]:
    """records.csv and records.jsonl of three trials in two cells, by file suffix."""
    records = [
        run_trial(n, m, seed, trial_index=t).canonical()
        for n, m, seed, t in [(2, 4, 11, 0), (2, 4, 12, 1), (3, 6, 13, 0)]
    ]
    paths = emit_records(records, tmp_path_factory.mktemp("emitted"))
    return {Path(p).suffix: Path(p).read_bytes() for p in paths.values()}


class TestHostileInput:
    """Any JSON value anywhere in a config or a record ends as a result or one config error."""

    @HOSTILE_EXAMPLES
    @given(
        key=st.sampled_from([*VALID_CONFIG, "grid entry"]),
        value=JSON_VALUES | GRID_RULES,
    )
    def test_config_value_parses_or_is_config_error(self, key, value):
        config = dict(VALID_CONFIG)
        if key == "grid entry":
            config["grid"] = [[2, 4], value]
        else:
            config[key] = value
        try:
            parsed = ExperimentConfig.from_json_dict(json.loads(json.dumps(config)))
        except ConfigError:
            return
        numbers = [parsed.trials, parsed.master_seed, parsed.workers, *sum(parsed.grid, ())]
        assert all(type(x) is int for x in numbers)

    @staticmethod
    def assert_checks_or_one_config_error(path: Path) -> None:
        """``isohull check`` prints a strict JSON report, or exits 1 with one config error line.

        A warning is an error here, so a numpy overflow cannot pass as a result.
        """
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["check", "--records", str(path)])
        if code == EXIT_OK:
            assert "c_star" in strict_json(out.getvalue())
            assert err.getvalue() == ""
        else:
            assert code == EXIT_USAGE and out.getvalue() == ""
            assert err.getvalue().startswith("config error:")
            assert err.getvalue().count("\n") == 1

    @HOSTILE_EXAMPLES
    @given(column=st.sampled_from(CSV_COLUMNS), value=JSON_VALUES)
    @example(column="facet_count", value=float("inf"))  # the JSON text Infinity
    @example(column="l_k", value=10**400)  # past the float range
    @example(column="mean_square", value=0)  # a second-moment band of 0 / 0
    @example(column="l_k", value=float("nan"))  # the JSON text NaN
    @example(column="vol_root", value=float("-inf"))
    @example(column="mean_square", value=1.7e308)  # finite, but c_emp overflows
    def test_record_value_checks_or_is_one_config_error(self, tmp_path_factory, column, value):
        path = tmp_path_factory.getbasetemp() / "hostile-records.jsonl"
        path.write_text(json.dumps(VALID_RECORD | {column: value}) + "\n")
        self.assert_checks_or_one_config_error(path)

    @HOSTILE_EXAMPLES
    @given(
        suffix=st.sampled_from([".csv", ".jsonl"]),
        edit=st.sampled_from(["flip", "insert", "delete"]),
        at=st.integers(0, 1 << 16),
        value=st.integers(0, 255),
    )
    def test_byte_edit_of_records_checks_or_is_one_config_error(
        self, tmp_path_factory, emitted_records, suffix, edit, at, value
    ):
        data = bytearray(emitted_records[suffix])
        i = at % (len(data) + (edit == "insert"))
        if edit == "flip":
            data[i] ^= value or 0xFF
        elif edit == "insert":
            data.insert(i, value)
        else:
            del data[i]
        path = tmp_path_factory.getbasetemp() / f"edited-records{suffix}"
        path.write_bytes(bytes(data))
        self.assert_checks_or_one_config_error(path)


class TestReadme:
    """README's CLI block and config example parse with the current code."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def blocks(self, language: str) -> list[str]:
        return re.findall(rf"```{language}\n(.*?)```", self.README.read_text(), re.S)

    def test_cli_lines_parse(self):
        lines = [
            line
            for block in self.blocks("bash")
            for line in block.splitlines()
            if line.startswith("isohull ")
        ]
        assert len(lines) >= 7
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])

    def test_config_example_parses(self):
        (example,) = self.blocks("json")
        config = ExperimentConfig.from_json_dict(json.loads(example))
        assert set(json.loads(example)) == set(config.to_json_dict())


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "1", "--m", "3", "--seed", "1"],
            ["hull", "--n", "1", "--m", "3", "--seed", "1"],
            ["trial", "--n", "3", "--m", "6", "--seed", "1", "--oracle-samples", "-5"],
            ["trial", "--n", "3", "--m", "6", "--seed", "-1"],
            ["trial", "--n", "3", "--m", "6", "--seed", str(1 << 64)],
            ["sample", "--n", "3", "--m", "6", "--seed", "-1"],
            ["hull", "--n", "12", "--m", "110", "--seed", "1"],
            ["trial", "--n", "10", "--m", "194", "--seed", "1"],
        ],
        ids=[
            "sample-n1",
            "hull-n1",
            "negative-oracle-samples",
            "negative-seed",
            "seed-2-64",
            "sample-negative-seed",
            "hull-key-capacity",
            "trial-key-capacity",
        ],
    )
    def test_cloud_input_out_of_range_is_config_error(self, capsys, argv):
        code, out, err = run_main(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("config error:") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("where", ["under-a-file", "a-directory"])
    def test_calibrate_checks_its_output_before_any_work(self, capsys, tmp_path, monkeypatch, where):
        # a fixture path that cannot be written fails before the
        # calibration, not after it
        monkeypatch.setattr(cli, "run_calibration", injected_failure)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "fixture.json" if where == "under-a-file" else tmp_path
        code, stdout, err = run_main(capsys, "calibrate", "--out", str(out))
        assert code == EXIT_IO
        assert err.startswith("i/o error: cannot") and stdout == ""

    def test_calibrate_creates_the_fixture_directory_first(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "a" / "b" / "fixture.json"

        def calibration(workers):
            assert out.parent.is_dir()
            raise InvalidComplexError("injected failure")

        monkeypatch.setattr(cli, "run_calibration", calibration)
        code, _, err = run_main(capsys, "calibrate", "--out", str(out))
        assert code == EXIT_NUMERICAL and "injected failure" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    def test_calibrate_takes_no_campaign_flags(self, flag):
        # calibration runs the default campaign, whose records the fixture pins;
        # parsed only, so no calibration runs where the flag is accepted
        with pytest.raises(_UsageExit):
            build_parser().parse_args(["calibrate", flag, "5"])

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
