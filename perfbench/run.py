"""qspan benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload walk-survey --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed over four fresh
processes (three that only set up, then the measured one); the measured
process runs the workload's surveys (see ``workloads.py``) and checks
every output.  End-to-end times are in reference seconds: measured
seconds scaled by the machine-speed probe of ``calibrate.py``.  The
measured seconds are printed alongside.

The human-readable report comes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Spans of the traced run are
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0

HILBERT = ("to_coords", "metric_tensor", "random_tangent_step", "state_from_angles",
           "fs_distance", "random_state")
PERCOLATION = ("random_cloud", "pairwise_distances", "critical_threshold")
FITS = ("fit_power_law", "fit_exponent_scaling", "fit_saturating_power_law")
WALK_CELLS = [(n, m) for n in (1, 2, 3, 4) for m in (3, 10, 30, 100)]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list, timeout: float):
    """Run the child; return (seconds until its 'ready' line, its other output)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=_child_env())
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(timeout - ready, 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"child failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return ready, out


def _qspan_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "qspan", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def _tail(values: list):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return 0, 0.0
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _per_call(stat: dict, unit: float) -> float:
    return stat["total"] / stat["calls"] * unit if stat["calls"] else 0.0


def _layer_metrics(child: dict, traced: list, untraced: list) -> dict:
    """Per-layer metrics of a traced run; times in measured seconds."""
    s = child["trace"]
    m = {}
    for name in HILBERT:
        m[f"hilbert.{name}.calls"] = (s[f"hilbert.{name}"]["calls"], "count")
        m[f"hilbert.{name}.us_per_call"] = (_per_call(s[f"hilbert.{name}"], 1e6), "us")
    m["hilbert.random_tangent_step.degenerate_raises"] = (
        s["hilbert.random_tangent_step"]["raises"].get("DegenerateFrameError", 0), "count")
    trial_ms = child["trial_ms"]
    pct, tail = _tail(trial_ms)
    m["walk.critical_step_for_trial.calls"] = (len(trial_ms), "count")
    m["walk.critical_step_for_trial.ms_p50"] = (statistics.median(trial_ms) if trial_ms else 0.0, "ms")
    m["walk.critical_step_for_trial.ms_tail"] = (tail, "ms")
    m["walk.critical_step_for_trial.tail_pct"] = (pct, "%")
    m["walk.run_walk.calls"] = (s["walk.run_walk"]["calls"], "count")
    m["walk.run_walk.ms_per_call"] = (_per_call(s["walk.run_walk"], 1e3), "ms")
    for n, steps in WALK_CELLS:
        p = [t["probes"][f"q{n}_m{steps}"] for t in traced if f"q{n}_m{steps}" in t["probes"]]
        m[f"walk.probes_per_trial.q{n}_m{steps}"] = (statistics.mean(p) if p else 0.0, "count")
    runs = s["walk.run_walk"]["calls"]
    useful = sum(t["useful_probes"] for t in traced)
    m["walk.useful_probe_ratio"] = (useful / runs if runs else 0.0, "ratio")
    m["walk.brentq.calls"] = (s["walk.brentq"]["calls"], "count")
    m["walk.minimize_scalar.calls"] = (s["walk.minimize_scalar"]["calls"], "count")
    for name in PERCOLATION:
        m[f"percolation.{name}.calls"] = (s[f"percolation.{name}"]["calls"], "count")
        m[f"percolation.{name}.ms_per_call"] = (_per_call(s[f"percolation.{name}"], 1e3), "ms")
    m["percolation.none_rate"] = (statistics.mean(t["none_rate"] for t in traced), "ratio")
    for name in FITS:
        m[f"analysis.{name}.us_per_call"] = (_per_call(s[f"analysis.{name}"], 1e6), "us")
    sat = s["analysis.fit_saturating_power_law"]
    m["analysis.fit_saturating_power_law.iterations"] = (
        sat["extra"].get("iterations", 0) / sat["calls"] if sat["calls"] else 0.0, "count")
    m["analysis.fit_saturating_power_law.unconverged"] = (
        sum(t["unconverged"] for t in traced), "count")
    for layer in ("hilbert", "walk", "percolation"):
        m[f"{layer}.self_s"] = (child["layer_self"][layer], "s")
    m["cli.run_experiment.self_s"] = (s["cli.run_experiment"]["self"], "s")
    m["cli.render.ms"] = (_per_call(s["cli.render"], 1e3), "ms")
    m["cli.rows"] = (sum(t["rows"] for t in traced), "count")
    m["trace.overhead_s"] = (statistics.mean(t["wall_s"] * t["scale"] for t in traced)
                             - statistics.mean(u["wall_s"] * u["scale"] for u in untraced), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qspan", "cli.py")):
        print(f"perfbench: no qspan sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload] + (["--tiny"] if args.tiny else [])
    setup = []
    try:
        for _ in range(SETUP_PROBES):
            ready, out = _spawn(common + ["--setup-only"], 60.0)
            setup.append((ready, json.loads(out)["setup_scale"]))
        ready, out = _spawn(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], CHILD_TIMEOUT_S)
        child = json.loads(out)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setup.append((ready, child["setup_scale"]))
    spec = workloads.WORKLOADS[args.workload]

    surveys = child["surveys"]
    attempted = sum(t["attempted"] for t in surveys)
    failed = attempted if child["error"] else sum(t["failed"] for t in surveys)
    done = [t for t in surveys if "wall_s" in t]
    env = child["environment"]
    blas = env["blas"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"env python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={blas['name']} {blas['version']} blas_threads={blas['threads']} "
          f"nproc={env['nproc']} affinity={env['affinity']} seed={args.seed} "
          f"qspan_lines={_qspan_lines()}")
    for k, t in enumerate(done):
        print(f"survey {k} seed={t['seed']} traced={int(t['traced'])} raw_s={t['wall_s']:.4f} "
              f"scale={t['scale']:.4f} "
              f"work={t['work']:.0f} "
              f"rows={t['rows']} failed={t['failed']} unconverged={t['unconverged']}")
    for t in surveys:
        for problem in t["problems"]:
            print(f"check failed: {problem}")
    if done:
        print(f"rows_sha256 {done[0]['rows_sha256']} (survey 0, wall_clock_s masked)")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")

    plain = [t for t in done if not t["traced"]]
    traced = [t for t in done if t["traced"]]
    if not (traced if args.trace else plain):
        metrics = {}
    elif args.trace:
        metrics = _layer_metrics(child, traced, plain)
    else:
        metrics = {
            "setup_s": (statistics.median(r * f for r, f in setup), "s"),
            "wall_s": (statistics.median(t["wall_s"] * t["scale"] for t in plain), "s"),
            "work_per_s": (sum(t["work"] for t in plain)
                           / sum(t["wall_s"] * t["scale"] for t in plain), "1/s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        }
        print(f"setup_s median of {len(setup)} processes; raw s: "
              + " ".join(f"{r:.3f}" for r, _ in setup))
        pct, tail = _tail([t["wall_s"] * t["scale"] for t in plain])
        print(f"wall_s median of {len(plain)} surveys, "
              + (f"p{pct} {tail:.4f} s" if pct else "no tail percentile (fewer than 11 surveys)")
              + "; raw s: " + " ".join(f"{t['wall_s']:.3f}" for t in plain))
        print(f"work_per_s counts {spec.work_unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and child["error"] is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
