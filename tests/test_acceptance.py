"""End-to-end acceptance survey.

Runs the headline scaling experiments at desk scale and checks each
measured number against its tolerance window.  One PASS/FAIL line per
criterion is written straight to the terminal (bypassing capture) so a
plain ``pytest tests/test_acceptance.py`` run reads as a checklist.

The walk survey (criteria 1 and 2) is the long pole at about twenty
seconds on one core; the percolation survey takes under ten seconds
and everything else finishes in seconds.
"""

import math
import sys
import time

import numpy as np
import pytest

from qspan.accessibility import DeviceParams, accessibility_index, assess
from qspan.analysis import (
    empirical_concentration,
    fit_exponent_scaling,
    fit_power_law,
    fit_saturating_power_law,
    overlap_probability_bound,
)
from qspan.hilbert import (
    HypersphericalCoords,
    from_coords,
    fs_distance,
    metric_tensor,
    random_state,
    to_coords,
)
from qspan.percolation import (
    DistanceMatrix,
    build_clusters,
    critical_threshold_experiment,
)
from qspan.walk import UnitaryProbe, critical_step_length, unitary_span

WALK_QUBITS = (1, 2, 3, 4)
WALK_STEPS = (3, 10, 30, 100)
WALK_TRIALS = 100
WALK_BUDGET_S = 900.0

PERC_QUBITS = (7, 8, 9, 10)
PERC_POINTS = (2, 3, 5, 8, 12, 20, 30, 50, 80, 120, 200)
PERC_SAMPLES = 100
PERC_BUDGET_S = 1200.0

REFERENCE_DEVICE = DeviceParams(
    n_qubits=100, j_over_h=5e9, t_decoherence=1e-8, t_evolution=5e-6
)


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})\n"
    with capsys.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, line.strip()


@pytest.fixture(scope="module")
def walk_survey():
    """Per-qubit stride fits over the full (N, M) grid, plus wall time."""
    start = time.perf_counter()
    fits = {}
    censored = 0
    for n in WALK_QUBITS:
        means = []
        for m in WALK_STEPS:
            res = critical_step_length(
                n, m, WALK_TRIALS, np.random.SeedSequence([777, n, m])
            )
            censored += res.censored_count
            means.append(res.mean)
        fits[n] = fit_power_law(WALK_STEPS, means)
    return fits, censored, time.perf_counter() - start


def test_criterion_1_walk_exponent(walk_survey, capsys):
    fits, censored, elapsed = walk_survey
    exponents = [fits[n].exponent for n in WALK_QUBITS]
    ok = (
        all(0.42 <= b <= 0.53 for b in exponents)
        and censored == 0
        and elapsed <= WALK_BUDGET_S
    )
    detail = (
        "B(N)=" + "/".join(f"{b:.3f}" for b in exponents)
        + f" in [0.42, 0.53], {censored} censored, survey {elapsed:.0f}s"
    )
    _report(capsys, 1, ok, detail)


def test_criterion_2_walk_amplitude(walk_survey, capsys):
    fits, _, _ = walk_survey
    amplitudes = [fits[n].amplitude for n in WALK_QUBITS]
    growth = fit_exponent_scaling(WALK_QUBITS, amplitudes)
    ok = 0.23 <= amplitudes[0] <= 0.39 and 0.56 <= growth.exponent <= 0.96
    detail = (
        f"A(1)={amplitudes[0]:.3f} in [0.23, 0.39], "
        f"A growth exponent {growth.exponent:.3f} in [0.56, 0.96]"
    )
    _report(capsys, 2, ok, detail)


def test_criterion_3_percolation_scaling(capsys):
    start = time.perf_counter()
    amplitudes = []
    exponents = []
    for n in PERC_QUBITS:
        means = []
        for p in PERC_POINTS:
            res = critical_threshold_experiment(
                n, p, PERC_SAMPLES, np.random.SeedSequence([777, n, p])
            )
            means.append(res.mean)
        fit = fit_power_law(PERC_POINTS, means)
        amplitudes.append(fit.amplitude)
        exponents.append(fit.exponent)
    dims = [2.0**n for n in PERC_QUBITS]
    beta = -fit_exponent_scaling(dims, exponents).exponent
    saturation = fit_saturating_power_law(dims, amplitudes)
    elapsed = time.perf_counter() - start
    ok = (
        0.42 <= beta <= 0.62
        and saturation.converged
        and 0.98 <= saturation.gamma <= 1.02
        and elapsed <= PERC_BUDGET_S
    )
    detail = (
        f"decay-exponent beta={beta:.3f} in [0.42, 0.62], "
        f"amplitude ceiling gamma={saturation.gamma:.4f} in [0.98, 1.02], "
        f"survey {elapsed:.0f}s"
    )
    _report(capsys, 3, ok, detail)


def test_criterion_4_concentration(capsys):
    lb64 = overlap_probability_bound(64)
    lb128 = overlap_probability_bound(128)
    analytic_ok = round(lb64, 4) == 0.9267 and round(lb128, 4) == 0.9987
    bound_ok = True
    mean_ok = True
    for dim in (16, 64, 256):
        rep = empirical_concentration(
            dim, 0.25, 100000, np.random.SeedSequence([777, 4, dim])
        )
        bound_ok = bound_ok and rep.empirical_probability <= rep.bound
        se = rep.overlap_sq_std / math.sqrt(rep.samples)
        mean_ok = mean_ok and abs(rep.overlap_sq_mean - 1.0 / dim) <= 3 * se
    ok = analytic_ok and bound_ok and mean_ok
    detail = (
        f"P_LB {lb64:.4f}/{lb128:.4f}, empirical<=bound at D=16/64/256: "
        f"{bound_ok}, mean overlap within 3 SE: {mean_ok}"
    )
    _report(capsys, 4, ok, detail)


def test_criterion_5_accessibility(capsys):
    report = assess(REFERENCE_DEVICE)
    at_break_even = accessibility_index(
        DeviceParams(
            n_qubits=report.n_max, j_over_h=5e9, t_decoherence=1e-8, t_evolution=5e-6
        )
    )
    ok = (
        abs(report.index - 141.0) <= 1.0
        and 100.0 <= report.index < 1000.0
        and abs(report.n_max - 7.4e4) / 7.4e4 <= 0.05
        and abs(at_break_even - 1.0) <= 1e-9
    )
    detail = (
        f"index={report.index:.2f} (141 +- 1), n_max={report.n_max:.0f} "
        f"(7.4e4 +- 5%), index(n_max)-1={at_break_even - 1.0:.1e}"
    )
    _report(capsys, 5, ok, detail)


def test_criterion_6_short_time_span(capsys):
    # 100 probes, each a pair of non-commuting random Hermitian
    # generators applied in sequence, scaled so dt * dispersion = 1e-3.
    rng = np.random.default_rng(4242)
    dims = (4, 8, 16)

    def hermitian(d):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (a + a.conj().T) / 2.0

    deviations = {1.0: [], 0.5: []}
    for k in range(100):
        d = dims[k % len(dims)]
        psi = random_state(d, rng)
        pair = (hermitian(d), hermitian(d))
        sigma = UnitaryProbe(pair, 1.0).generator_dispersion(psi)
        dt = 1e-3 / sigma
        for scale, acc in deviations.items():
            span, predicted = unitary_span(psi, UnitaryProbe(pair, dt * scale))
            acc.append(abs(span / predicted - 1.0))
    worst = max(deviations[1.0])
    ratio = np.mean(deviations[1.0]) / np.mean(deviations[0.5])
    ok = worst <= 1e-2 and 1.4 <= ratio <= 2.6
    detail = (
        f"max |span/(dt*sigma) - 1| = {worst:.1e} <= 1e-2, "
        f"halving dt shrinks deviation by {ratio:.2f} in [1.4, 2.6]"
    )
    _report(capsys, 6, ok, detail)


def _closure_partition(d: np.ndarray, threshold: float) -> list:
    n = d.shape[0]
    reach = (d <= threshold) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    labels = [-1] * n
    label = 0
    for i in range(n):
        if labels[i] < 0:
            for j in range(n):
                if reach[i, j]:
                    labels[j] = label
            label += 1
    return labels


def test_criterion_7_geometry_oracles(capsys):
    # (a) metric quadratic form against finite differences of the
    # squared distance, with cubic-or-better error decay in step size
    worst_decay = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.choice([2, 4, 8]))
        psi = random_state(dim, rng)
        coords = to_coords(psi)
        theta = np.asarray(coords.theta)
        g = metric_tensor(coords)
        u = rng.standard_normal(theta.size)
        u /= np.linalg.norm(u)
        quad = float(u @ g @ u)

        def residual(t):
            moved = from_coords(HypersphericalCoords(theta=theta + t * u, dim=dim))
            return abs(fs_distance(psi, moved) ** 2 - quad * t * t)

        r_full, r_half = residual(1e-3), residual(5e-4)
        if r_full > 0.0:
            worst_decay = max(worst_decay, r_half / (r_full / 8.0))
    decay_ok = worst_decay <= 1.5

    # (b) coordinate round-trip
    worst_trip = 0.0
    for seed in range(40):
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.choice([2, 4, 8, 16]))
        psi = random_state(dim, rng)
        worst_trip = max(worst_trip, fs_distance(psi, from_coords(to_coords(psi))))
    trip_ok = worst_trip <= 1e-10

    # (c) union-find partition vs brute-force transitive closure
    closure_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        d = rng.uniform(0.0, math.pi / 2, size=(n, n))
        d = np.triu(d, 1)
        dist = DistanceMatrix(d + d.T)
        threshold = float(rng.uniform(0.0, math.pi / 2))
        clusters = build_clusters(dist, threshold)
        expect = _closure_partition(dist.values, threshold)
        mine = [int(clusters.parent[i]) for i in range(n)]
        same = all(
            (expect[i] == expect[j]) == (mine[i] == mine[j])
            for i in range(n)
            for j in range(n)
        )
        closure_ok = closure_ok and same

    ok = decay_ok and trip_ok and closure_ok
    detail = (
        f"quadratic-form decay factor {worst_decay:.2f} <= 1.5 (cubic), "
        f"round-trip {worst_trip:.1e} <= 1e-10, closure match: {closure_ok}"
    )
    _report(capsys, 7, ok, detail)
