"""Tests for the experiment runner and serialization (qspan.cli)."""

import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspan import cli
from qspan.accessibility import DeviceParams, _index_at, max_qubits
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

#: Positive finite device parameters, log-uniform over the float range
#: (subnormals included), or any positive finite float hypothesis draws.
_DEVICE_VALUES = st.one_of(
    st.floats(-320.0, 308.0).map(lambda e: 10.0**e),
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
)


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
        top = ExperimentConfig(kind="walk-critical", trials=1, seed=np.uint64(2**64 - 1))
        assert top.seed == 2**64 - 1

    def test_bad_workers(self):
        with pytest.raises(UsageError, match="workers"):
            ExperimentConfig(kind="walk-critical", trials=1, workers=0)

    def test_bad_format(self):
        with pytest.raises(UsageError, match="format"):
            ExperimentConfig(kind="walk-critical", trials=1, format="xml")

    @pytest.mark.parametrize("value", [1, b"a.csv"])
    def test_out_must_be_a_path_string(self, value):
        # open() would take the int 1 for stdout's descriptor and close it
        with pytest.raises(UsageError, match="out"):
            ExperimentConfig(kind="accessibility", out=value)

    def test_bad_device_parameter(self):
        with pytest.raises(UsageError, match="t_decoherence_s"):
            ExperimentConfig(kind="accessibility", t_decoherence_s=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("qubits", "12"),
            ("qubits", (1.5,)),
            ("steps", (3, 5.0)),
            ("trials", True),
            ("trials", 2.5),
            ("trials", "3"),
            ("workers", 1.0),
            ("seed", True),
            ("seed", 3.0),
            ("seed", "3"),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(UsageError, match=field):
            ExperimentConfig(**{**WALK, field: value})

    def test_integer_like_counts_stored_as_ints(self):
        config = ExperimentConfig(
            kind="walk-critical", qubits=np.array([1, 2]), steps=(np.int32(3),),
            trials=np.int64(4), workers=np.int8(1), seed=np.uint64(3),
        )
        echo = config.as_dict()
        assert echo["qubits"] == [1, 2] and echo["steps"] == [3]
        for name in ("qubits", "steps"):
            assert all(type(v) is int for v in echo[name])
        for name in ("trials", "workers", "seed"):
            assert type(echo[name]) is int
        text = render(run_experiment(config), "csv")
        assert '"trials": 4' in text and '"seed": 3,' in text

    @pytest.mark.parametrize("value", ["no", "", 0, 1, None, np.array(True)])
    def test_exact_step_must_be_a_bool(self, value):
        with pytest.raises(UsageError, match="exact_step"):
            ExperimentConfig(kind="walk-critical", trials=1, exact_step=value)

    def test_numpy_bool_exact_step_stored_as_bool(self):
        config = ExperimentConfig(kind="accessibility", exact_step=np.True_)
        assert type(config.exact_step) is bool and config.exact_step
        assert '"exact_step": true' in render(run_experiment(config), "csv")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epsilon", True),
            ("epsilon", np.True_),
            ("epsilon", "0.1"),
            pytest.param("epsilon", 10**400, id="epsilon-overflows-float"),
            ("j_over_h_hz", False),
            ("t_evolution_s", "5e-6"),
        ],
    )
    def test_reals_must_be_numbers(self, field, value):
        with pytest.raises(UsageError, match=field):
            ExperimentConfig(**{**WALK, field: value})

    def test_real_like_scalars_stored_as_floats(self):
        config = ExperimentConfig(
            kind="accessibility", epsilon=np.int64(1), j_over_h_hz=np.float32(5e9),
        )
        echo = config.as_dict()
        for name in ("epsilon", "j_over_h_hz", "t_decoherence_s", "t_evolution_s"):
            assert type(echo[name]) is float
        assert '"epsilon": 1.0,' in render(run_experiment(config), "csv")


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

    @pytest.mark.parametrize(
        "config, stream",
        [
            (WALK, 4),
            (dict(kind="fit", qubits=(1,), steps=(3, 5), trials=2), 4),
            (dict(kind="fit", qubits=(2,), steps=(3, 5), samples=2), None),
            (dict(kind="percolation-critical", qubits=(2,), steps=(3,), samples=2), None),
            (dict(kind="accessibility", qubits=(100,)), None),
            (WALK | dict(exact_step=True), 4),
        ],
    )
    def test_walk_rows_record_their_stream_version(self, config, stream):
        metadata = run_experiment(ExperimentConfig(**config)).metadata
        assert metadata.get("walk_stream") == stream


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
        for name in ("j_over_h_hz", "t_decoherence_s", "t_evolution_s"):
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--experiment", "percolation-critical", "--qubits", "10", "--steps", "200,1",
             "--samples", "300"],
            ["--experiment", "fit", "--steps", "1,5", "--samples", "3"],
        ],
    )
    def test_one_point_cloud_refused_before_sampling(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a cloud was sampled")

        monkeypatch.setattr(cli, "critical_threshold_sample", refuse)
        assert main(argv) == 2
        assert "steps: percolation clouds need >= 2 points" in capsys.readouterr().err

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
            ["--experiment", "walk-critical", "--trials", "1", "--epsilon", "1.5707963267948966"],
            ["--experiment", "fit", "--trials", "1", "--steps", "3,5",
             "--epsilon", "1.5707963267948966"],
            ["--experiment", "accessibility", "--j-over-h-hz", "1e308",
             "--t-decoherence-s", "1e308"],
            ["--experiment", "accessibility", "--j-over-h-hz", "1e250"],
            ["--experiment", "accessibility", "--j-over-h-hz", "1.2064630423315639e-109",
             "--t-decoherence-s", "2.3741339035618108e-226",
             "--t-evolution-s", "6.503127303907095e-38"],
            ["--experiment", "fit", "--steps", "10,10", "--trials", "1"],
            ["--experiment", "walk-critical", "--qubits", "1,1", "--trials", "1"],
            ["--experiment", "concentration", "--qubits", "2,2", "--samples", "1000",
             "--epsilon", "0.1"],
        ],
    )
    def test_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qspan: error: ")
        assert "Traceback" not in err

    def test_walk_bound_is_pi_over_two(self):
        below = math.nextafter(math.pi / 2, 0)
        ExperimentConfig(kind="walk-critical", trials=1, epsilon=below)
        for refused in (math.pi / 2, math.pi / 2 + 1e-9):
            with pytest.raises(UsageError, match="epsilon"):
                ExperimentConfig(kind="walk-critical", trials=1, epsilon=refused)

    def test_walk_margin_just_below_pi_over_two_runs(self, capsys):
        eps = repr(math.nextafter(math.pi / 2, 0))
        assert main(["--experiment", "walk-critical", "--trials", "1", "--epsilon", eps]) == 0

    def test_weak_device_reports_break_even_below_one_qubit(self, capsys):
        assert main(["--experiment", "accessibility", "--j-over-h-hz", "1e6"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert row[5] == "false"
        assert float(row[6]) == pytest.approx(0.8618, abs=1e-4)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_DEVICE_VALUES, min_size=3, max_size=3))
    def test_break_even_is_exact_or_refused(self, values):
        # Any positive finite device gives an N_max at which the index
        # is 1, or a ValueError that the config reports as a usage error.
        j, t_d, t_e = values
        device = DeviceParams(1, j, t_d, t_e)
        config = dict(kind="accessibility", j_over_h_hz=j, t_decoherence_s=t_d, t_evolution_s=t_e)
        try:
            n_max = max_qubits(device)
        except ValueError:
            with pytest.raises(UsageError, match="device"):
                ExperimentConfig(**config)
        else:
            assert 0.0 < n_max < math.inf
            assert abs(_index_at(device, n_max) - 1.0) <= 1e-9
            ExperimentConfig(**config)

    def test_concentration_deviation_may_exceed_pi_over_two(self):
        ExperimentConfig(kind="concentration", samples=1000, epsilon=2.0)
        ExperimentConfig(kind="fit", samples=5, epsilon=2.0)


class TestMemoryGuard:
    @pytest.fixture(autouse=True)
    def no_survey_runs(self, monkeypatch):
        # Should the guard let a run through, fail at once instead of
        # allocating arrays of 2**40 amplitudes.
        def refuse(*args, **kwargs):
            raise AssertionError("survey ran past the memory guard")

        for name in ("critical_step_for_trial", "critical_threshold_sample",
                     "empirical_concentration"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--experiment", "walk-critical", "--steps", "3", "--trials", "1"],
            ["--experiment", "walk-critical", "--steps", "3", "--trials", "1", "--exact-step"],
            ["--experiment", "percolation-critical", "--steps", "5", "--samples", "2"],
            ["--experiment", "concentration", "--samples", "1000", "--epsilon", "0.1"],
            ["--experiment", "fit", "--steps", "3,5", "--trials", "1"],
            ["--experiment", "fit", "--steps", "3,5", "--samples", "2"],
        ],
    )
    def test_forty_qubits_is_a_usage_error(self, argv, capsys):
        assert main(argv + ["--qubits", "1,40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qspan: error: memory: ")
        assert "Traceback" not in err

    def test_accessibility_allocates_nothing(self, capsys):
        assert main(["--experiment", "accessibility", "--qubits", "40"]) == 0

    @pytest.mark.parametrize(
        "config, largest",
        [
            # 64 probes * 100 steps * 2(D - 1) float64 normals, with or
            # without exact steps
            (dict(kind="walk-critical", qubits=(4,), steps=(100,), trials=1), 64 * 100 * 30 * 8),
            (dict(kind="walk-critical", qubits=(4,), steps=(100,), trials=1, exact_step=True),
             64 * 100 * 30 * 8),
            # the larger of (points x 16) complex amplitudes and the points^2 Gram matrix
            (dict(kind="percolation-critical", qubits=(4,), steps=(8,), samples=1), 8 * 16 * 16),
            (dict(kind="percolation-critical", qubits=(4,), steps=(200,), samples=1),
             200 * 200 * 16),
            # min(8192, samples) pairs of 2D float64 normals
            (dict(kind="concentration", qubits=(4,), samples=1000, epsilon=0.1),
             1000 * 2 * 32 * 8),
            # at one step the exact-step bracket scan's 64 probes * 8 scales
            # complex rows of D outweigh the 64 * 1 * 2(D - 1) normals
            (dict(kind="walk-critical", qubits=(4,), steps=(1,), trials=1, exact_step=True),
             64 * 8 * 16 * 16),
        ],
    )
    def test_refuses_exactly_above_physical_memory(self, monkeypatch, config, largest):
        monkeypatch.setattr(cli, "_physical_memory", lambda: float(largest))
        ExperimentConfig(**config)
        monkeypatch.setattr(cli, "_physical_memory", lambda: float(largest - 1))
        with pytest.raises(UsageError, match="memory"):
            ExperimentConfig(**config)


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


def test_pool_capped_at_task_and_cpu_counts(monkeypatch, tmp_path):
    sizes = []

    class InlinePool:
        """Runs the map in this process and records the pool size asked for."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    argv = ["--experiment", "walk-critical", "--steps", "3", "--trials", "4"]
    rows = {}
    for workers in ("1", "100000"):
        out = str(tmp_path / f"w{workers}.csv")
        assert main(argv + ["--workers", workers, "--out", out]) == 0
        rows[workers] = read_result(out).rows
    assert len(sizes) == 1
    assert 1 <= sizes[0] <= min(4, os.cpu_count() or 1)
    assert rows["100000"] == rows["1"]


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

    def test_c_constant_is_not_an_option(self, tmp_path, capsys):
        # the accessibility rows never read the heuristic margin constant
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", "accessibility", "--c-constant", "2"])
        assert exc.value.code == 2
        path = tmp_path / "run.cfg"
        path.write_text("experiment = accessibility\nc_constant = 2\n")
        assert main(["--config", str(path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_dashed_config_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("experiment = accessibility\nj-over-h-hz = 1e9\n")
        config = cli._config_from_args(cli._build_parser().parse_args(["--config", str(path)]))
        assert config.j_over_h_hz == 1e9
