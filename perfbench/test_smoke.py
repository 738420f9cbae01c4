"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit, that clean tiny surveys pass their output checks, that corrupted
rows are caught, and that the benchmark refuses to run without the
qspan sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    assert "rows_sha256 " in proc.stdout and "error_rate 0 " in proc.stdout


def _tiny_result(workload: str):
    from qspan import cli

    spec = workloads.WORKLOADS[workload]
    return spec, cli.run_experiment(cli.ExperimentConfig(seed=5, **spec.tiny))


def _with_row(result, index: int, **changes):
    rows = list(result.rows)
    rows[index] = dict(rows[index], **changes)
    return dataclasses.replace(result, rows=tuple(rows))


@pytest.mark.parametrize("workload, corrupt", [
    ("walk-survey", lambda r: _with_row(r, 1, critical_delta_s=r.rows[1]["critical_delta_s"]
                                        + workloads.GRID / 3)),
    ("walk-exact", lambda r: _with_row(r, 0, censored=True)),
    ("percolation-survey", lambda r: _with_row(r, 5, critical_delta_s=2.0)),
])
def test_corrupted_row_drives_error_rate_above_zero(workload, corrupt):
    spec, result = _tiny_result(workload)
    clean = spec.check(result)
    assert clean.failed == 0 and clean.attempted == len(result.rows)
    bad = spec.check(corrupt(result))
    assert bad.failed / bad.attempted > 0


def test_missing_fit_fails_the_survey():
    spec, result = _tiny_result("walk-survey")
    bad = spec.check(dataclasses.replace(result, fits=result.fits[:-1]))
    assert bad.failed == bad.attempted


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("walk-survey", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
