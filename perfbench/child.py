"""One measured process: import qspan, then run surveys of one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and OpenBLAS pinned to one thread.  The child prints one line as
soon as ``qspan.cli`` is imported and a minimal survey has run (the
parent times set-up up to that line), then one JSON line with its
results.  With ``--setup-only`` it stops after the set-up line and the
speed sample that scales it.

Untraced, surveys run back to back until ``--seconds`` have passed and
at least ``MIN_SURVEYS`` have run.
Traced, each of the workload's ``trace_surveys`` inputs runs twice, first
untraced and then traced, so the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import workloads
from calibrate import SpeedProbe
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fewest surveys a run's medians are taken over.  Only walk-survey, at
#: about 10 s a survey, needs more than --seconds 20 to reach it; over
#: five seeds its wall_s spread was 9 % with three surveys, 3 % with four.
MIN_SURVEYS = 4
#: Kernel runs right after set-up, which scale the set-up time.
SETUP_KERNELS = 10
#: Per-operation entry points of qspan.cli before which the speed probe
#: may sample.
PROBED = ("critical_step_for_trial", "critical_threshold_sample")


def _import_qspan():
    import qspan
    import qspan.cli

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.realpath(qspan.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"perfbench: qspan imported from {qspan.__file__}, not {src}")
    return qspan.cli


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _config(cli, spec, seed: int, tiny: bool):
    kwargs = spec.tiny if tiny else spec.config
    return cli.ExperimentConfig(seed=seed, workers=1, **kwargs)


def _run_survey(cli, spec, cfg, probe: SpeedProbe, tracer=None, k=0) -> dict:
    """Time run_experiment + render for one survey and check its output.

    Untraced, the speed probe samples before operations and its time is
    taken out of the survey's; traced, the tracer alone is installed.
    """
    patched = []
    if tracer is not None:
        tracer.install(k)
    else:
        for name in PROBED:
            if hasattr(cli, name):
                patched.append((name, getattr(cli, name)))
                setattr(cli, name, probe.wrap(getattr(cli, name)))
    probe.sample(force=True)
    first, spent = len(probe.samples) - 1, probe.spent
    start = time.perf_counter()
    try:
        result = cli.run_experiment(cfg)
        text = cli.render(result, "csv")
    finally:
        wall = time.perf_counter() - start - (probe.spent - spent)
        if tracer is not None:
            tracer.uninstall()
        for name, original in patched:
            setattr(cli, name, original)
    probe.sample(force=True)
    out = spec.check(result)
    return {
        "seed": cfg.seed,
        "wall_s": wall,
        "scale": probe.scale(first),
        "attempted": out.attempted,
        "failed": out.failed,
        "work": out.work,
        "rows": len(result.rows),
        "probes": {f"q{n}_m{m}": p for (n, m), p in out.probes.items()},
        "useful_probes": out.useful_probes,
        "none_rate": out.none_rate,
        "unconverged": out.unconverged,
        "problems": out.problems,
        "rows_sha256": workloads.rows_sha256(text),
        "traced": tracer is not None,
    }


def _expected_rows(kwargs: dict) -> int:
    return len(kwargs["qubits"]) * len(kwargs["steps"]) * kwargs.get("trials", kwargs.get("samples"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]

    cli = _import_qspan()
    warm = cli.ExperimentConfig(kind="walk-critical", qubits=(1,), steps=(1,), trials=1)
    cli.render(cli.run_experiment(warm), "csv")
    print("ready", flush=True)
    probe = SpeedProbe()
    for _ in range(SETUP_KERNELS):
        probe.sample(force=True)
    setup_scale = probe.scale()
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    surveys = []
    tracer = Tracer() if args.trace else None
    error = None
    begin = time.perf_counter()
    k = 0
    try:
        while True:
            cfg = _config(cli, spec, workloads.survey_seed(args.seed, k), args.tiny)
            surveys.append(_run_survey(cli, spec, cfg, probe))
            if tracer is not None:
                surveys.append(_run_survey(cli, spec, cfg, probe, tracer, k))
            k += 1
            if tracer is not None and k >= spec.trace_surveys:
                break
            if tracer is None and k >= MIN_SURVEYS and time.perf_counter() - begin >= args.seconds:
                break
    except Exception:
        # A raise fails every operation of the run, the attempted survey included.
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        rows = _expected_rows(spec.tiny if args.tiny else spec.config)
        surveys.append({"attempted": rows, "failed": rows,
                        "problems": [error.strip().splitlines()[-1]], "traced": False})

    report = {
        "setup_scale": setup_scale,
        "environment": _environment(),
        "surveys": surveys,
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["trace"] = {
            name: {"calls": s.calls, "total": s.total, "self": s.self,
                   "raises": s.raises, "extra": s.extra}
            for name, s in tracer.stats.items()
        }
        report["layer_self"] = tracer.layer_self
        report["trial_ms"] = [1e3 * d for d in tracer.durations("walk.critical_step_for_trial")]
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        name = f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(os.path.join(ROOT, ".perfbench", name), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("trace", "id", "parent", "name", "start_s", "end_s"),
                    span[:4] + (span[4] - begin, span[5] - begin)))) + "\n")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
