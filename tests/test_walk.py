"""Tests for fixed-stride walks and their critical stride (qspan.walk)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspan.walk
from qspan.hilbert import StateVector, fs_distance, metric_tensor, random_state, to_coords
from qspan.walk import (
    _chart,
    _exact_stride,
    _tangent,
    BRACKET_REL_WIDTH,
    CriticalStepResult,
    TrialCritical,
    UnitaryProbe,
    WalkConfig,
    critical_step_for_trial,
    critical_step_length,
    dimension_factor,
    heuristic_critical_step,
    heuristic_span,
    paper_epsilon,
    run_walk,
    unitary_span,
)

HALF_PI = np.pi / 2

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("qubits", [1.5, True, "2", None])
def test_paper_epsilon_refuses_non_integer_qubits(qubits):
    with pytest.raises(ValueError, match="qubits"):
        paper_epsilon(qubits)


def test_paper_epsilon_closed_forms():
    # arccos(1/sqrt(2)) = pi/4 and arccos(1/2) = pi/3 exactly
    assert paper_epsilon(1) == pytest.approx(np.pi / 4, abs=1e-15)
    assert paper_epsilon(2) == pytest.approx(np.pi / 6, abs=1e-15)
    assert paper_epsilon(np.int64(2)) == paper_epsilon(2)
    with pytest.raises(ValueError):
        paper_epsilon(0)


class TestWalkConfig:
    def test_paper_mode_fills_epsilon(self):
        cfg = WalkConfig(qubits=2, steps=5, delta_s=0.1)
        assert cfg.epsilon == pytest.approx(paper_epsilon(2))
        assert cfg.dim == 4

    def test_explicit_epsilon_is_kept(self):
        # paper_epsilon(1) is pi/4; any margin in (0, pi/2] may replace it
        for eps in (0.2, 0.3, HALF_PI):
            assert WalkConfig(qubits=1, steps=5, delta_s=0.1, epsilon=eps).epsilon == eps
        for eps in (0.0, -1.0, math.nan, HALF_PI + 1e-9):
            with pytest.raises(ValueError):
                WalkConfig(qubits=1, steps=5, delta_s=0.1, epsilon=eps)

    def test_none_is_the_paper_epsilon(self):
        for qubits in (1, 2, 3, 4):
            implied = WalkConfig(qubits=qubits, steps=5, delta_s=0.1)
            stated = WalkConfig(qubits=qubits, steps=5, delta_s=0.1, epsilon=paper_epsilon(qubits))
            assert implied == stated

    @pytest.mark.parametrize("delta_s", [0.0, -1.0, HALF_PI + 1e-6])
    def test_stride_range(self, delta_s):
        with pytest.raises(ValueError):
            WalkConfig(qubits=1, steps=5, delta_s=delta_s)

    @pytest.mark.parametrize(
        "field, value",
        [("qubits", 1.5), ("qubits", True), ("steps", "5"), ("steps", 5.0),
         ("delta_s", "0.1"), ("delta_s", False), ("epsilon", "0.2"), ("epsilon", 10**400),
         ("exact_step", "no"), ("exact_step", 1), ("exact_step", None)],
    )
    def test_argument_types(self, field, value):
        kwargs = dict(qubits=1, steps=5, delta_s=0.1) | {field: value}
        with pytest.raises(ValueError, match=field):
            WalkConfig(**kwargs)

    def test_numpy_scalars_stored_as_plain_ones(self):
        cfg = WalkConfig(
            qubits=np.int64(2), steps=np.uint8(5), delta_s=np.float32(0.25),
            epsilon=np.float64(0.5), exact_step=np.True_,
        )
        assert cfg == WalkConfig(qubits=2, steps=5, delta_s=0.25, epsilon=0.5, exact_step=True)
        for name, kind in (("qubits", int), ("steps", int), ("delta_s", float),
                           ("epsilon", float), ("exact_step", bool)):
            assert type(getattr(cfg, name)) is kind


class TestScanArgumentTypes:
    """critical_step_for_trial refuses bad types through WalkConfig, before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan drew before checking its arguments")

        monkeypatch.setattr("qspan.walk.random_state", refuse)
        monkeypatch.setattr("qspan.walk.spawn", refuse)

    def test_exact_step_string_is_refused(self):
        with pytest.raises(ValueError, match="exact_step"):
            critical_step_for_trial(1, 3, 9, exact_step="no")

    def test_fractional_qubits_are_refused(self):
        with pytest.raises(ValueError, match="qubits"):
            critical_step_for_trial(1.5, 3, 9)

    def test_fractional_steps_are_refused(self):
        with pytest.raises(ValueError, match="steps"):
            critical_step_for_trial(1, 2.5, 9)

    def test_fractional_trials_are_refused(self):
        with pytest.raises(ValueError, match="trials"):
            critical_step_length(1, 3, 2.5, 9)


def test_scan_accepts_numpy_scalars():
    want = critical_step_for_trial(1, 3, 9, exact_step=True)
    assert critical_step_for_trial(np.int64(1), np.int32(3), 9, exact_step=np.True_) == want


class TestRunWalk:
    def test_span_starts_at_zero_and_stays_in_range(self):
        initial = random_state(4, np.random.default_rng(1))
        cfg = WalkConfig(qubits=2, steps=20, delta_s=0.2)
        rec = run_walk(initial, cfg, np.random.default_rng(2))
        assert rec.spans[0] == 0.0
        assert rec.spans.shape == (21,)
        assert np.all((rec.spans >= 0.0) & (rec.spans <= HALF_PI))

    def test_bitwise_deterministic(self):
        initial = random_state(4, np.random.default_rng(3))
        cfg = WalkConfig(qubits=2, steps=15, delta_s=0.1)
        a = run_walk(initial, cfg, np.random.default_rng(99))
        b = run_walk(initial, cfg, np.random.default_rng(99))
        assert np.array_equal(a.spans, b.spans)
        assert a.reached == b.reached

    def test_dimension_mismatch(self):
        initial = random_state(2, np.random.default_rng(4))
        cfg = WalkConfig(qubits=2, steps=3, delta_s=0.1)
        with pytest.raises(ValueError, match="dimension"):
            run_walk(initial, cfg, np.random.default_rng(5))

    def test_exact_step_first_span_equals_stride(self):
        initial = random_state(4, np.random.default_rng(6))
        cfg = WalkConfig(qubits=2, steps=1, delta_s=0.37, exact_step=True)
        rec = run_walk(initial, cfg, np.random.default_rng(7))
        assert rec.spans[1] == pytest.approx(0.37, rel=1e-6)

    def test_exact_step_triangle_bounds(self):
        initial = random_state(4, np.random.default_rng(8))
        delta_s = 0.25
        cfg = WalkConfig(qubits=2, steps=30, delta_s=delta_s, exact_step=True)
        rec = run_walk(initial, cfg, np.random.default_rng(9))
        slack = delta_s * (1 + 1e-6)
        diffs = np.diff(rec.spans)
        assert np.all(diffs <= slack)
        assert np.all(diffs >= -slack)
        t = np.arange(rec.spans.size)
        assert np.all(rec.spans <= t * slack + 1e-12)

    def test_qubit_mean_overlap_follows_product_law(self):
        # One qubit is the 2-sphere in disguise: a stride delta_s turns
        # the Bloch vector by 2*delta_s about a uniformly random axis in
        # the tangent plane, so after M independent steps
        #     E[cos(2 L_M)] = cos(2 delta_s)^M,
        # i.e. E|<psi_0|psi_M>|^2 = (1 + cos(2 delta_s)^M) / 2.
        delta_s, steps, n_walks = 0.3, 5, 400
        rng = np.random.default_rng(1234)
        cfg = WalkConfig(qubits=1, steps=steps, delta_s=delta_s, exact_step=True)
        overlap_sq = np.empty(n_walks)
        for i in range(n_walks):
            initial = random_state(2, rng)
            rec = run_walk(initial, cfg, rng)
            overlap_sq[i] = math.cos(rec.final_span) ** 2
        expected = (1 + math.cos(2 * delta_s) ** steps) / 2
        se = overlap_sq.std(ddof=1) / math.sqrt(n_walks)
        assert abs(overlap_sq.mean() - expected) <= 4 * se


#: States on the chart's edges: the last amplitude zero (m_D = 0), with
#: and without further zeros, and a zero interior amplitude (v_d = 0).
EDGE_STATES = {
    "basis": [1, 0, 0, 0],
    "last-zero": [0.6, 0.8j, 0, 0],
    "last-and-interior-zero": [0.6, 0, 0.8, 0],
    "interior-zero": [0.6, 0, 0.48j, 0.64],
}


def tangent_draws(amplitudes, delta_s, k, seed):
    """k chart displacements of the walk kernel at one state."""
    a = np.asarray(amplitudes, dtype=complex)
    _, m, tail = _chart(np.broadcast_to(a, (k, a.size)))
    xi = np.random.default_rng(seed).standard_normal((k, 2 * (a.size - 1)))
    return _tangent(m, tail, np.full(k, delta_s), xi)


def metric_at(amplitudes):
    return metric_tensor(to_coords(StateVector.from_array(amplitudes)))


class TestTangentSampler:
    """The closed-form draw against the metric tensor of qspan.hilbert."""

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_metric_length_equals_stride(self, dim):
        a = random_state(dim, np.random.default_rng(dim)).amplitudes
        d = tangent_draws(a, 0.3, 50, seed=1)
        lengths = np.einsum("ki,ij,kj->k", d, metric_at(a), d)
        np.testing.assert_allclose(lengths, 0.3**2, rtol=1e-10)

    @pytest.mark.parametrize("name", sorted(EDGE_STATES))
    def test_metric_length_on_chart_edges(self, name):
        a = StateVector.from_array(EDGE_STATES[name]).amplitudes
        d = tangent_draws(a, 0.3, 50, seed=2)
        lengths = np.einsum("ki,ij,kj->k", d, metric_at(a), d)
        np.testing.assert_allclose(lengths, 0.3**2, rtol=1e-10)
        assert np.all(np.isfinite(d))

    def test_covariance_is_inverse_metric(self):
        # d_theta = delta * S u with S S^T = g^-1 and u uniform on the unit
        # sphere of R^p, so cov(d_theta) * p / delta^2 = g^-1.  Entry
        # tolerance: five standard errors of a Gaussian sample covariance,
        # which bounds the (smaller) one of a sphere-uniform draw.
        dim, delta_s, k = 4, 0.5, 20000
        a = random_state(dim, np.random.default_rng(3)).amplitudes
        d = tangent_draws(a, delta_s, k, seed=4)
        p = d.shape[1]
        cov = d.T @ d / k * p / delta_s**2
        want = np.linalg.pinv(metric_at(a))
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / k)
        assert np.all(np.abs(cov - want) <= 5 * se)

    @pytest.mark.parametrize("name", ["haar"] + sorted(EDGE_STATES))
    def test_vanished_row_is_a_zero_step(self, name):
        if name in EDGE_STATES:
            a = StateVector.from_array(EDGE_STATES[name]).amplitudes
        else:
            a = random_state(4, np.random.default_rng(11)).amplitudes
        k, zero = 5, 2
        _, m, tail = _chart(np.broadcast_to(a, (k, a.size)))
        xi = np.random.default_rng(12).standard_normal((k, 6))
        xi[zero] = 0.0
        strides = np.linspace(0.1, 0.5, k)
        d = _tangent(m, tail, strides, xi)
        assert np.all(d[zero] == 0.0)
        rest = np.arange(k) != zero
        alone = _tangent(m[rest], tail[rest], strides[rest], xi[rest])
        assert np.array_equal(d[rest].view(np.int64), alone.view(np.int64))

    @pytest.mark.parametrize("exact_step", [False, True])
    def test_walk_takes_a_vanished_draw_as_a_zero_step(self, exact_step):
        # zero all 6 normals of step 1; the basis state's chart angles
        # are all 0, so their amplitudes give the basis state back exactly
        initial = StateVector.from_array(EDGE_STATES["basis"])
        cfg = WalkConfig(qubits=2, steps=6, delta_s=0.3, exact_step=exact_step)
        rec = run_walk(initial, cfg, ZeroedNormals(10, set(range(6))))
        assert np.all(np.isfinite(rec.spans))
        assert rec.spans[1] == rec.spans[0] == 0.0
        assert rec.spans[2] > 0.0

    @pytest.mark.parametrize("name", sorted(EDGE_STATES))
    @pytest.mark.parametrize("exact_step", [False, True])
    def test_walks_from_chart_edges(self, name, exact_step):
        initial = StateVector.from_array(EDGE_STATES[name])
        cfg = WalkConfig(qubits=2, steps=12, delta_s=0.3, exact_step=exact_step)
        rec = run_walk(initial, cfg, np.random.default_rng(10))
        assert np.all(np.isfinite(rec.spans))
        assert np.all((rec.spans >= 0.0) & (rec.spans <= HALF_PI))
        if exact_step:
            assert rec.spans[1] == pytest.approx(0.3, rel=1e-6)


class TestExactStride:
    """One stacked exact step against each of its rows stepped alone."""

    @pytest.mark.parametrize("qubits", [1, 2, 3, 5])
    def test_stacked_step_equals_lone_rows(self, monkeypatch, qubits):
        dim = 2**qubits
        rng = np.random.default_rng(qubits)
        starts = [random_state(dim, rng).amplitudes for _ in range(12)]
        if dim == 4:
            starts += [StateVector.from_array(v).amplitudes for v in EDGE_STATES.values()]
        a = np.array(starts)
        k = len(a)
        # pi/2 is not reachable along a generic chart ray, so those rows
        # take the minimize_scalar fallback
        strides = np.resize([0.01, 0.2, 0.7, 1.3, HALF_PI], k)
        theta, m, tail = _chart(a)
        d_theta = _tangent(m, tail, strides, rng.standard_normal((k, 2 * (dim - 1))))
        fallbacks = []
        minimize_scalar = qspan.walk.minimize_scalar

        def counted(*args, **kwargs):
            fallbacks.append(kwargs["bounds"])
            return minimize_scalar(*args, **kwargs)

        monkeypatch.setattr(qspan.walk, "minimize_scalar", counted)
        stacked = _exact_stride(a, theta, d_theta, strides)
        stacked_fallbacks = len(fallbacks)
        assert 0 < stacked_fallbacks < k
        lone = np.concatenate([
            _exact_stride(a[i:i + 1], theta[i:i + 1], d_theta[i:i + 1], strides[i:i + 1])
            for i in range(k)
        ])
        assert len(fallbacks) == 2 * stacked_fallbacks
        assert np.array_equal(stacked.view(float), lone.view(float))
        realized = np.array([
            fs_distance(StateVector(x), StateVector(y)) for x, y in zip(a, stacked)
        ])
        reached = strides < HALF_PI
        np.testing.assert_allclose(realized[reached], strides[reached], rtol=1e-11)
        assert np.all(realized[~reached] <= HALF_PI)


class TestCriticalStep:
    def test_single_exact_step_lands_in_terminal_band(self):
        # With one stride available the walk succeeds iff the stride
        # itself reaches within epsilon of pi/2.
        eps = paper_epsilon(1)
        for seed in (0, 1, 2):
            trial = critical_step_for_trial(1, 1, seed, exact_step=True)
            assert not trial.censored
            assert HALF_PI - eps <= trial.value <= HALF_PI

    def test_deterministic_per_seed(self):
        a = critical_step_for_trial(1, 10, 4242)
        b = critical_step_for_trial(1, 10, 4242)
        assert a == b

    def test_value_sits_on_the_probe_grid(self):
        trial = critical_step_for_trial(1, 10, 77)
        floor = (HALF_PI - paper_epsilon(1)) / 10
        grid = BRACKET_REL_WIDTH * HALF_PI
        k = (trial.value - floor) / grid
        assert trial.value == pytest.approx(HALF_PI, abs=1e-12) or \
            k == pytest.approx(round(k), abs=1e-6)

    def test_mean_between_extremes(self):
        res = critical_step_length(1, 5, trials=12, seed=11)
        kept = res.values[~res.censored]
        assert kept.min() <= res.mean <= kept.max()
        assert res.n_trials == 12
        assert res.censored_count == 0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            critical_step_length(1, 5, trials=0, seed=0)

    def test_mean_matches_published_stride_scale(self):
        # N=1, M=100: mean critical stride should sit within 25% of
        # (pi/2) * 0.309 * 100**-0.473.
        res = critical_step_length(1, 100, trials=30, seed=777)
        target = HALF_PI * 0.309 * 100**-0.473
        assert res.censored_count == 0
        assert abs(res.mean / target - 1) <= 0.25

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, HALF_PI, 2.0])
    def test_bad_epsilon_arguments_raise_value_error(self, epsilon):
        # at pi/2 the scan's floor stride (pi/2 - epsilon) / steps is zero
        with pytest.raises(ValueError):
            critical_step_for_trial(1, 3, 5, epsilon=epsilon)

    def test_seed_sequence_is_not_consumed(self):
        ss = np.random.SeedSequence(3)
        a = critical_step_length(1, 3, 3, ss)
        b = critical_step_length(1, 3, 3, ss)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, critical_step_length(1, 3, 3, 3).values)

    def test_all_censored_statistics_are_nan(self):
        values = np.full(3, HALF_PI)
        censored = np.ones(3, dtype=bool)
        res = CriticalStepResult(
            values=values, censored=censored, mean=math.nan, std_error=math.nan
        )
        assert res.censored_count == 3
        assert math.isnan(res.mean)


def oracle_trial(qubits, steps, seed, exact_step=False):
    """The probe scan walked one probe at a time through the public run_walk."""
    init_ss, dir_ss = np.random.SeedSequence(seed).spawn(2)
    initial = random_state(2**qubits, np.random.default_rng(init_ss))
    rng = np.random.default_rng(dir_ss)

    def reaches(delta_s):
        cfg = WalkConfig(qubits=qubits, steps=steps, delta_s=delta_s, exact_step=exact_step)
        return run_walk(initial, cfg, rng).reached

    s = (HALF_PI - paper_epsilon(qubits)) / steps
    while s < HALF_PI:
        if reaches(s):
            return TrialCritical(value=s, censored=False)
        s += BRACKET_REL_WIDTH * HALF_PI
    return TrialCritical(value=HALF_PI, censored=not reaches(HALF_PI))


class ZeroedNormals:
    """A default_rng stand-in whose normals at chosen stream positions are 0.0.

    It has no ``bit_generator``, so a walk that read or set generator
    state would fail.
    """

    def __init__(self, seed, zeros):
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._zeros = zeros
        self._pos = 0

    def standard_normal(self, size):
        x = self._gen.standard_normal(size)
        flat = x.reshape(-1)
        for i in self._zeros:
            if 0 <= i - self._pos < flat.size:
                flat[i - self._pos] = 0.0
        self._pos += flat.size
        return x


class TestLockstepScan:
    @settings(max_examples=30, deadline=None)
    @given(
        qubits=st.integers(1, 3),
        steps=st.integers(1, 12),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_probe_by_probe_scan(self, qubits, steps, seed):
        assert critical_step_for_trial(qubits, steps, seed) == oracle_trial(qubits, steps, seed)

    # the oracle's exact steps root-find one walker per call, about 2 ms
    # a step, so exact examples are fewer and shorter
    @settings(max_examples=8, deadline=None)
    @given(
        qubits=st.integers(1, 3),
        steps=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_probe_by_probe_scan_with_exact_steps(self, qubits, steps, seed):
        got = critical_step_for_trial(qubits, steps, seed, exact_step=True)
        assert got == oracle_trial(qubits, steps, seed, exact_step=True)

    @pytest.mark.parametrize(
        "qubits, steps, exact_step",
        [(2, 3, True), (5, 2, False)],  # p = 62 normals per step
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_probe_by_probe_scan_off_the_drawn_grid(
        self, qubits, steps, exact_step, seed
    ):
        got = critical_step_for_trial(qubits, steps, seed, exact_step=exact_step)
        assert got == oracle_trial(qubits, steps, seed, exact_step=exact_step)

    @pytest.mark.parametrize(
        "trial_seed, draw, exact_step",
        [
            pytest.param(9, 4, False, id="4"),
            pytest.param(9, 11, False, id="11"),
            pytest.param(9, 40, False, id="40"),
            # seed 242 needs 79 probes, and draw 199 is step 1 of probe
            # 66, so the zero step falls in the second 64-probe block
            pytest.param(242, 199, False, id="199-second-block"),
            # with exact steps seed 9 needs 16 probes, and draw 40 is
            # step 1 of probe 13, inside the first 64-probe block
            pytest.param(9, 40, True, id="40-exact"),
        ],
    )
    def test_vanished_draw_is_a_zero_step_as_in_the_sequential_scan(
        self, monkeypatch, trial_seed, draw, exact_step
    ):
        # One qubit has p = 2 active directions; zeroing both normals of
        # direction draw ``draw`` makes that step's norm exactly 0, so
        # the probe it falls in takes a zero step there.
        made = []

        def zeroed_rng(seed):
            made.append(ZeroedNormals(seed, {2 * draw, 2 * draw + 1}))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", zeroed_rng)
        want = oracle_trial(1, 3, trial_seed, exact_step)
        assert made[1]._pos > 2 * draw  # the oracle walked through the zero draw
        assert critical_step_for_trial(1, 3, trial_seed, exact_step=exact_step) == want


class TestHeuristics:
    def test_dimension_factor(self):
        assert dimension_factor(1) == pytest.approx(10.5)
        assert dimension_factor(4) == pytest.approx(10.5 / 8)

    def test_span_example_value(self):
        # (2/pi) * 0.1 * sqrt(100 * 10.5) = 2.0629...
        assert heuristic_span(0.1, 100, 1) == pytest.approx(2.063, abs=5e-4)

    def test_span_inversion_is_exact(self):
        for steps, qubits in ((10, 1), (100, 3), (7, 2)):
            stride = heuristic_critical_step(steps, qubits)
            assert heuristic_span(stride, steps, qubits) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_steps_scales_by_sqrt2(self):
        s1 = heuristic_span(0.2, 50, 2)
        s2 = heuristic_span(0.2, 100, 2)
        assert s2 / s1 == pytest.approx(math.sqrt(2), rel=1e-12)


class TestUnitarySpan:
    def test_eigenvector_is_stationary(self):
        probe = UnitaryProbe(hamiltonians=(SIGMA_Z,), dt=0.8)
        psi = StateVector.from_array([1.0, 0.0])
        s, prediction = unitary_span(psi, probe)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert prediction == pytest.approx(0.0, abs=1e-12)

    def test_qubit_rotation_is_exact(self):
        # exp(-i t sigma_z) |+> stays at angle t from |+> while the
        # dispersion of sigma_z in |+> is exactly 1.
        psi = StateVector.from_array([1.0, 1.0])
        dt = 0.3
        probe = UnitaryProbe(hamiltonians=(SIGMA_Z,), dt=dt)
        s, prediction = unitary_span(psi, probe)
        assert prediction == pytest.approx(dt, rel=1e-12)
        assert s == pytest.approx(dt, rel=1e-12)

    def test_small_step_tracks_dispersion(self):
        rng = np.random.default_rng(55)
        h = random_hermitian(4, rng)
        psi = random_state(4, rng)
        sigma = UnitaryProbe(hamiltonians=(h,), dt=1.0).generator_dispersion(psi)
        dt = 1e-3 / sigma
        s, prediction = unitary_span(psi, UnitaryProbe(hamiltonians=(h,), dt=dt))
        assert prediction == pytest.approx(1e-3, rel=1e-12)
        assert abs(s / prediction - 1) <= 1e-2

    def test_maximal_step_time(self):
        # dt = (pi/2)/sigma makes the predicted span exactly pi/2.
        rng = np.random.default_rng(56)
        h = random_hermitian(4, rng)
        psi = random_state(4, rng)
        sigma = UnitaryProbe(hamiltonians=(h,), dt=1.0).generator_dispersion(psi)
        probe = UnitaryProbe(hamiltonians=(h,), dt=HALF_PI / sigma)
        _, prediction = unitary_span(psi, probe)
        assert prediction == pytest.approx(HALF_PI, rel=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            UnitaryProbe(hamiltonians=(np.array([[0, 1], [0, 0]], dtype=complex),), dt=0.1)

    def test_rejects_bad_dt_and_empty(self):
        with pytest.raises(ValueError):
            UnitaryProbe(hamiltonians=(SIGMA_Z,), dt=0.0)
        with pytest.raises(ValueError):
            UnitaryProbe(hamiltonians=(), dt=0.1)

    def test_first_order_convergence_with_composed_generators(self):
        # With two non-commuting generators the prediction uses the
        # summed dispersion while the product of exponentials differs
        # from exp of the sum at second order, so the relative deviation
        # scales linearly in dt: halving dt should roughly halve it.
        rng = np.random.default_rng(57)
        ratios = []
        for _ in range(100):
            dim = int(rng.choice([4, 8, 16]))
            h1, h2 = random_hermitian(dim, rng), random_hermitian(dim, rng)
            psi = random_state(dim, rng)
            sigma = UnitaryProbe(hamiltonians=(h1, h2), dt=1.0).generator_dispersion(psi)
            dt = 1e-3 / sigma
            devs = []
            for scale in (1.0, 0.5):
                s, prediction = unitary_span(
                    psi, UnitaryProbe(hamiltonians=(h1, h2), dt=scale * dt)
                )
                devs.append(abs(s / prediction - 1))
            ratios.append(devs[1] / devs[0])
        assert 0.3 <= np.mean(ratios) <= 0.7
