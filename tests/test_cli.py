"""Tests for the experiment runner and serialization (qspan.cli)."""

import math
import multiprocessing
import os
import subprocess
import sys

import pytest

from qspan import cli
from qspan.cli import (
    ExperimentConfig,
    ResultSet,
    UsageError,
    emit,
    main,
    read_result,
    render,
    run_experiment,
)

WALK = dict(kind="walk-critical", qubits=(1,), steps=(3,), trials=4, seed=42)


class TestExperimentConfig:
    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="kind"):
            ExperimentConfig(kind="banana")

    def test_bad_qubits(self):
        with pytest.raises(UsageError, match="qubits"):
            ExperimentConfig(kind="walk-critical", qubits=(0,), trials=1)

    def test_bad_steps(self):
        with pytest.raises(UsageError, match="steps"):
            ExperimentConfig(kind="walk-critical", steps=(0,), trials=1)

    def test_bad_trials(self):
        with pytest.raises(UsageError, match="trials"):
            ExperimentConfig(kind="walk-critical", trials=0)

    def test_walk_needs_trials(self):
        with pytest.raises(UsageError, match="trials"):
            ExperimentConfig(kind="walk-critical")

    def test_percolation_needs_samples(self):
        with pytest.raises(UsageError, match="samples"):
            ExperimentConfig(kind="percolation-critical")

    def test_concentration_needs_numeric_epsilon(self):
        with pytest.raises(UsageError, match="epsilon"):
            ExperimentConfig(kind="concentration", samples=1000)

    def test_paper_mode_rejects_numeric_epsilon(self):
        with pytest.raises(UsageError, match="epsilon"):
            ExperimentConfig(
                kind="walk-critical", trials=1, epsilon_mode="paper", epsilon=0.1
            )

    def test_fixed_mode_requires_epsilon(self):
        with pytest.raises(UsageError, match="epsilon"):
            ExperimentConfig(kind="walk-critical", trials=1, epsilon_mode="fixed")

    def test_fit_needs_exactly_one_source(self):
        with pytest.raises(UsageError, match="fit"):
            ExperimentConfig(kind="fit")
        with pytest.raises(UsageError, match="fit"):
            ExperimentConfig(kind="fit", trials=5, samples=5)

    def test_seed_range(self):
        with pytest.raises(UsageError, match="seed"):
            ExperimentConfig(kind="walk-critical", trials=1, seed=-1)
        with pytest.raises(UsageError, match="seed"):
            ExperimentConfig(kind="walk-critical", trials=1, seed=2**64)

    def test_bad_workers(self):
        with pytest.raises(UsageError, match="workers"):
            ExperimentConfig(kind="walk-critical", trials=1, workers=0)

    def test_bad_format(self):
        with pytest.raises(UsageError, match="format"):
            ExperimentConfig(kind="walk-critical", trials=1, format="xml")

    def test_bad_device_parameter(self):
        with pytest.raises(UsageError, match="t_decoherence_s"):
            ExperimentConfig(kind="accessibility", t_decoherence_s=0.0)


class TestRunExperiment:
    def test_deterministic_rows(self):
        a = run_experiment(ExperimentConfig(**WALK))
        b = run_experiment(ExperimentConfig(**WALK))
        assert a.rows == b.rows

    def test_worker_count_invariance(self):
        serial = run_experiment(ExperimentConfig(**WALK))
        fanned = run_experiment(ExperimentConfig(**{**WALK, "workers": 2}))
        assert serial.rows == fanned.rows

    def test_walk_row_shape(self):
        res = run_experiment(ExperimentConfig(**WALK))
        assert len(res.rows) == 4
        row = res.rows[0]
        assert set(row) == {"qubits", "steps", "trial", "critical_delta_s", "censored"}
        assert row["qubits"] == 1 and row["steps"] == 3
        assert 0.0 < row["critical_delta_s"] <= math.pi / 2
        assert res.fits == ()
        assert res.metadata["seed"] == 42
        assert res.metadata["config"]["trials"] == 4

    def test_accessibility_row(self):
        res = run_experiment(ExperimentConfig(kind="accessibility", qubits=(100,)))
        (row,) = res.rows
        assert row["index"] == pytest.approx(141.42, abs=1.0)
        assert row["passes"] is True
        assert row["n_max"] == pytest.approx(7.4e4, rel=0.05)

    def test_concentration_rows(self):
        res = run_experiment(
            ExperimentConfig(
                kind="concentration",
                qubits=(3, 4),
                samples=2000,
                epsilon_mode="fixed",
                epsilon=0.1,
                seed=7,
            )
        )
        dims = [row["dimension"] for row in res.rows]
        assert dims == [8, 16]
        for row in res.rows:
            assert row["samples"] == 2000
            assert 0.0 <= row["empirical"] <= 1.0

    def test_fit_kind_attaches_fits_and_weighting(self):
        res = run_experiment(
            ExperimentConfig(kind="fit", qubits=(1,), steps=(3, 5, 8), trials=5, seed=3)
        )
        assert len(res.fits) == 1
        fit = res.fits[0]
        assert fit["fit"] == "stride-power-law"
        assert fit["n_points"] == 3
        assert fit["amplitude"] > 0.0
        assert res.metadata["fit_weighting"] == "unweighted"

    def test_plain_kind_has_no_fit_metadata(self):
        res = run_experiment(ExperimentConfig(**WALK))
        assert "fit_weighting" not in res.metadata


class TestSerialization:
    def _walk_result(self):
        return run_experiment(ExperimentConfig(**WALK))

    def test_csv_round_trip(self, tmp_path):
        res = self._walk_result()
        path = str(tmp_path / "walk.csv")
        emit(res, "csv", path)
        back = read_result(path)
        assert back.metadata == res.metadata
        assert back.rows == res.rows
        assert back.fits == res.fits
        assert render(back, "csv") == render(res, "csv")

    def test_json_round_trip(self, tmp_path):
        res = self._walk_result()
        path = str(tmp_path / "walk.json")
        emit(res, "json", path)
        back = read_result(path)
        assert back.rows == res.rows
        assert render(back, "json") == render(res, "json")

    def test_none_cells_round_trip(self, tmp_path):
        res = run_experiment(
            ExperimentConfig(
                kind="percolation-critical", qubits=(1,), steps=(2,), samples=6, seed=0
            )
        )
        assert any(row["is_none"] for row in res.rows)
        path = str(tmp_path / "perc.csv")
        emit(res, "csv", path)
        back = read_result(path)
        assert back.rows == res.rows
        none_row = next(r for r in back.rows if r["is_none"])
        assert none_row["critical_delta_s"] is None

    def test_fit_lines_round_trip(self, tmp_path):
        res = run_experiment(
            ExperimentConfig(kind="fit", qubits=(1,), steps=(3, 5, 8), trials=5, seed=3)
        )
        for fmt in ("csv", "json"):
            path = str(tmp_path / f"fit.{fmt}")
            emit(res, fmt, path)
            back = read_result(path)
            assert back.fits == res.fits

    def test_empty_rows_render_header_only(self, tmp_path):
        res = run_experiment(ExperimentConfig(kind="accessibility", qubits=(10,)))
        empty = ResultSet(metadata=res.metadata, rows=())
        text = render(empty, "csv")
        lines = text.strip().splitlines()
        assert lines[0].startswith("# qspan-result ")
        assert lines[-1] == "qubits,j_over_h_hz,t_d_s,t_f_s,index,passes,n_max"
        assert len(lines) == 2
        path = str(tmp_path / "empty.csv")
        emit(empty, "csv", path)
        assert read_result(path).rows == ()

    def test_seventeen_digit_floats(self):
        res = run_experiment(ExperimentConfig(kind="accessibility", qubits=(100,)))
        text = render(res, "csv")
        assert "141.42135623730951" in text
        assert "73680.629972807699" in text


class TestFloatEcho:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_integral_floats_read_back_as_floats(self, tmp_path, fmt):
        res = run_experiment(ExperimentConfig(kind="accessibility", qubits=(10,)))
        path = str(tmp_path / f"a.{fmt}")
        emit(res, fmt, path)
        config = read_result(path).metadata["config"]
        for name in ("j_over_h_hz", "t_decoherence_s", "t_evolution_s", "c_constant"):
            assert type(config[name]) is float
            assert config[name] == res.metadata["config"][name]
        assert type(config["seed"]) is int
        assert '"j_over_h_hz": 5000000000.0' in render(res, "csv")


class TestConfigFile:
    def test_file_provides_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# survey settings\n"
            "experiment = accessibility\n"
            "qubits = 100\n"
            "seed = 9\n"
        )
        out = tmp_path / "a.csv"
        code = main(["--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert code == 0
        res = read_result(str(out))
        assert res.metadata["seed"] == 3
        assert res.metadata["config"]["qubits"] == [100]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = accessibility\nbananas = 7\n")
        assert main(["--config", str(cfg)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 2


class TestMain:
    def test_success_to_stdout(self, capsys):
        assert main(["--experiment", "accessibility", "--qubits", "100"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "qubits,j_over_h_hz,t_d_s,t_f_s,index,passes,n_max"
        assert "141.42135623730951" in out

    def test_missing_experiment_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_fit_without_source_is_usage_error(self, capsys):
        assert main(["--experiment", "fit"]) == 2

    def test_single_point_cloud_is_usage_error(self, capsys):
        code = main(
            ["--experiment", "percolation-critical", "--qubits", "2",
             "--steps", "1", "--samples", "2"]
        )
        assert code == 2

    def test_all_none_survey_is_runtime_failure(self, capsys):
        # two-point clouds of one qubit at seed 2: all three samples
        # come back without a threshold
        code = main(
            ["--experiment", "percolation-critical", "--qubits", "1",
             "--steps", "2", "--samples", "3", "--seed", "2"]
        )
        assert code == 1
        assert "failed" in capsys.readouterr().err

    def test_unwritable_output_is_runtime_failure(self, capsys):
        code = main(
            ["--experiment", "accessibility", "--qubits", "10",
             "--out", "/no-such-directory/x.csv"]
        )
        assert code == 1

    def test_bad_epsilon_text(self, capsys):
        code = main(
            ["--experiment", "walk-critical", "--trials", "1", "--epsilon", "tiny"]
        )
        assert code == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qspan.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("qspan ")


class TestOutOfRangeInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--experiment", "walk-critical", "--trials", "1", "--epsilon", "5"],
            ["--experiment", "walk-critical", "--trials", "1", "--epsilon", "nan"],
            ["--experiment", "walk-critical", "--trials", "1", "--epsilon", "inf"],
            ["--experiment", "walk-critical", "--trials", "1", "--epsilon", "0"],
            ["--experiment", "fit", "--trials", "2", "--steps", "3,5", "--epsilon", "1.6"],
            ["--experiment", "concentration", "--samples", "10", "--epsilon", "0.1"],
            ["--experiment", "concentration", "--samples", "1000", "--epsilon", "-1"],
            ["--experiment", "concentration", "--samples", "1000", "--epsilon", "nan"],
            ["--experiment", "accessibility", "--epsilon=-inf"],
            ["--experiment", "accessibility", "--j-over-h-hz", "inf"],
            ["--experiment", "accessibility", "--t-evolution-s", "inf"],
            ["--experiment", "accessibility", "--c-constant", "nan"],
        ],
    )
    def test_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qspan: error: ")
        assert "Traceback" not in err

    def test_walk_bound_is_pi_over_two(self):
        ExperimentConfig(kind="walk-critical", trials=1, epsilon_mode="fixed", epsilon=math.pi / 2)
        with pytest.raises(UsageError, match="epsilon"):
            ExperimentConfig(
                kind="walk-critical", trials=1, epsilon_mode="fixed", epsilon=math.pi / 2 + 1e-9
            )

    def test_concentration_deviation_may_exceed_pi_over_two(self):
        ExperimentConfig(kind="concentration", samples=1000, epsilon_mode="fixed", epsilon=2.0)
        ExperimentConfig(kind="fit", samples=5, epsilon_mode="fixed", epsilon=2.0)


class TestConfigFileBooleans:
    def _exact_step(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"experiment = accessibility\nqubits = 10\nexact_step = {text}\n")
        out = tmp_path / "a.csv"
        code = main(["--config", str(cfg), "--out", str(out)])
        if code != 0:
            return code, None
        return code, read_result(str(out)).metadata["config"]["exact_step"]

    @pytest.mark.parametrize(
        "text, value",
        [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
         ("0", False), ("false", False), ("NO", False), ("Off", False)],
    )
    def test_accepted_spellings(self, tmp_path, text, value):
        assert self._exact_step(tmp_path, text) == (0, value)

    @pytest.mark.parametrize("text", ["banana", "", "2", "truthy"])
    def test_other_text_is_usage_error(self, tmp_path, text, capsys):
        assert self._exact_step(tmp_path, text) == (2, None)
        assert capsys.readouterr().err.startswith("qspan: error: config: ")


def _exit_worker(*args, **kwargs):
    os._exit(3)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched trial function reaches the workers only through fork",
)
def test_crashed_worker_is_runtime_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "critical_step_for_trial", _exit_worker)
    code = main(["--experiment", "walk-critical", "--trials", "2", "--workers", "2"])
    assert code == 1
    assert capsys.readouterr().err.startswith("qspan: failed: ")


#: A valid value for every option, as config-file text, each one unlike
#: the value the base run gets without it.
OPTION_VALUES = {
    "experiment": "accessibility",
    "qubits": "2,3",
    "steps": "4,5",
    "trials": "3",
    "samples": "2000",
    "epsilon": "0.25",
    "exact_step": "true",
    "seed": "9",
    "workers": "2",
    "out": "x.csv",
    "format": "json",
    "j_over_h_hz": "1e9",
    "t_decoherence_s": "2e-8",
    "t_evolution_s": "1e-6",
    "c_constant": "2.5",
}
BASE_OPTIONS = {"experiment": "concentration", "samples": "1000", "epsilon": "0.5"}


def _config_from_flags(values: dict) -> ExperimentConfig:
    argv = []
    for key, text in values.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if key == "exact_step" else [flag, text]
    return cli._config_from_args(cli._build_parser().parse_args(argv))


def _config_from_file(values: dict, path) -> ExperimentConfig:
    path.write_text("".join(f"{key} = {text}\n" for key, text in values.items()))
    return cli._config_from_args(cli._build_parser().parse_args(["--config", str(path)]))


class TestOptionTable:
    def test_every_option_has_a_value_here(self):
        assert set(OPTION_VALUES) == set(cli._OPTIONS)

    @pytest.mark.parametrize("key", sorted(OPTION_VALUES))
    def test_flag_and_config_file_agree(self, key, tmp_path):
        values = {**BASE_OPTIONS, key: OPTION_VALUES[key]}
        by_flag = _config_from_flags(values)
        assert by_flag == _config_from_file(values, tmp_path / "run.cfg")
        assert by_flag != _config_from_flags(BASE_OPTIONS)

    @pytest.mark.parametrize("key", sorted(OPTION_VALUES))
    def test_help_lists_option(self, key):
        assert "--" + key.replace("_", "-") in cli._build_parser().format_help()

    def test_dashed_config_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = accessibility\nj-over-h-hz = 1e9\n")
        config = cli._config_from_args(cli._build_parser().parse_args(["--config", str(path)]))
        assert config.j_over_h_hz == 1e9
