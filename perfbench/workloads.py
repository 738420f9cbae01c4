"""The benchmark workloads: inputs from a seed, and output checks.

Each workload is one closed batch survey, repeated back to back with
fresh survey seeds derived from the workload seed.  The check functions
take a ``ResultSet`` as returned by ``qspan.cli.run_experiment`` and
re-derive everything they test from first principles (the walk's stride
grid, the Fubini-Study range), so a change to qspan cannot move the
yardstick along with the answer.

An operation is one row: a walk trial or a percolation sample.  A row
that fails its check fails one operation; a missing or non-finite fit
fails every operation of its survey, because the survey's answer is
then wrong.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

HALF_PI = np.pi / 2
#: Probe spacing of the per-trial stride scan (qspan's default bracket).
GRID = 1e-3 * HALF_PI
#: Acceptance grid of the percolation survey (tests/test_acceptance.py).
PERC_POINTS = (2, 3, 5, 8, 12, 20, 30, 50, 80, 120, 200)


def survey_seed(seed: int, k: int) -> int:
    """Master seed of survey ``k`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def rows_sha256(text: str) -> str:
    """Digest of a rendered CSV result with its wall-clock field masked."""
    masked = re.sub(r'"wall_clock_s": [^,}]+', '"wall_clock_s": null', text)
    return hashlib.sha256(masked.encode()).hexdigest()


@dataclass
class Outcome:
    """What the checks found in one survey."""

    attempted: int
    failed: int = 0
    #: Useful work units (see ``Workload.work_unit``).
    work: float = 0.0
    #: (qubits, steps) -> useful probes per trial, walk workloads only.
    probes: dict = field(default_factory=dict)
    useful_probes: int = 0
    none_rate: float = 0.0
    #: Saturating fits that stopped unconverged.  Reported, not failed:
    #: with four noisy amplitudes the three-parameter model is often
    #: underdetermined (the ceiling drifts off along a flat valley), and
    #: the program flags that honestly rather than computing it wrongly.
    unconverged: int = 0
    problems: list = field(default_factory=list)

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        if len(self.problems) < 5:
            self.problems.append(problem)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_fits(result, out: Outcome, labels: list) -> None:
    found = [fit["fit"] for fit in result.fits]
    if sorted(found) != sorted(labels):
        out.fail(out.attempted - out.failed, f"fits {found}, expected {labels}")
        return
    for fit in result.fits:
        bad = [k for k, v in fit.items() if k not in ("fit", "converged") and not _finite(v)]
        if bad or not isinstance(fit.get("converged", False), bool):
            out.fail(out.attempted - out.failed, f"fit {fit['fit']} not finite: {bad}")
            return
        out.unconverged += fit.get("converged") is False


def paper_epsilon(qubits: int) -> float:
    return float(HALF_PI - np.arccos(2.0 ** (-qubits / 2.0)))


def useful_probes(value: float, qubits: int, steps: int):
    """Probes a sequential scan runs to return ``value``; None if off-grid.

    Replays the scan: strides from the floor (pi/2 - epsilon) / steps
    upward in steps of GRID, then pi/2 itself as the top probe.
    """
    s = (HALF_PI - paper_epsilon(qubits)) / steps
    k = 0
    while s < HALF_PI:
        k += 1
        if abs(s - value) <= 1e-12:
            return k
        s += GRID
    return k + 1 if value == HALF_PI else None


def check_walk(result) -> Outcome:
    out = Outcome(attempted=len(result.rows))
    per_cell: dict = {}
    for row in result.rows:
        n, m, v = row["qubits"], row["steps"], row["critical_delta_s"]
        probes = useful_probes(v, n, m) if _finite(v) else None
        if probes is None or row["censored"] is not False:
            out.fail(1, f"trial {n},{m},{row['trial']}: stride {v} censored={row['censored']}")
            continue
        out.work += probes * m
        out.useful_probes += probes
        per_cell.setdefault((n, m), []).append(probes)
    out.probes = {cell: sum(p) / len(p) for cell, p in per_cell.items()}
    if result.metadata["kind"] == "fit":
        qubits = result.metadata["config"]["qubits"]
        _check_fits(result, out, ["stride-power-law"] * len(qubits)
                    + ["amplitude-vs-qubits", "exponent-vs-qubits"])
    return out


def check_percolation(result) -> Outcome:
    out = Outcome(attempted=len(result.rows))
    found = {}
    nones = 0
    for row in result.rows:
        cell = (row["qubits"], row["points"])
        v = row["critical_delta_s"]
        found.setdefault(cell, False)
        if row["is_none"]:
            nones += 1
            if v is not None:
                out.fail(1, f"sample {cell}: none flag with value {v}")
            continue
        if not (_finite(v) and 0.0 < v <= HALF_PI):
            out.fail(1, f"sample {cell}: threshold {v} outside (0, pi/2]")
            continue
        found[cell] = True
        p = row["points"]
        out.work += p * (p - 1) // 2
    for cell, any_found in found.items():
        if not any_found:
            out.fail(sum(1 for r in result.rows if (r["qubits"], r["points"]) == cell),
                     f"cell {cell}: no sample percolates")
    out.none_rate = nones / max(len(result.rows), 1)
    qubits = result.metadata["config"]["qubits"]
    _check_fits(result, out, ["threshold-power-law"] * len(qubits)
                + ["exponent-vs-dimension", "amplitude-saturation"])
    return out


@dataclass(frozen=True)
class Workload:
    #: Keyword arguments of ExperimentConfig, without the seed.
    config: dict
    #: Much smaller inputs for the smoke test.
    tiny: dict
    check: object
    work_unit: str
    #: Surveys the traced run repeats (untraced, then traced, same seed).
    trace_surveys: int


WORKLOADS = {
    "walk-survey": Workload(
        config=dict(kind="fit", qubits=(1, 2, 3, 4), steps=(3, 10, 30, 100), trials=1),
        tiny=dict(kind="fit", qubits=(1, 2), steps=(3, 30), trials=1),
        check=check_walk,
        work_unit="useful walk steps",
        trace_surveys=1,
    ),
    "walk-exact": Workload(
        config=dict(kind="walk-critical", qubits=(1, 2), steps=(3, 10), trials=4, exact_step=True),
        tiny=dict(kind="walk-critical", qubits=(1,), steps=(3,), trials=2, exact_step=True),
        check=check_walk,
        work_unit="useful walk steps",
        trace_surveys=2,
    ),
    "percolation-survey": Workload(
        config=dict(kind="fit", qubits=(7, 8, 9, 10), steps=PERC_POINTS, samples=30),
        tiny=dict(kind="fit", qubits=(7, 8, 9, 10), steps=(2, 5, 20), samples=2),
        check=check_percolation,
        work_unit="pairwise distances",
        trace_surveys=2,
    ),
}
