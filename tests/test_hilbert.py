"""Tests for the pure-state geometry layer (qspan.hilbert)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qspan.hilbert import (
    HypersphericalCoords,
    StateVector,
    from_coords,
    fs_distance,
    metric_tensor,
    random_state,
    state_from_angles,
    to_coords,
)
from qspan.hilbert import _amplitudes, _chart, _fs_distances, _sine_prefix

HALF_PI = np.pi / 2


def ket(*amps):
    return StateVector.from_array(np.asarray(amps, dtype=complex))


#: Real or imaginary part of an amplitude: exactly zero often, so chart
#: edges come up, and otherwise clear of the subnormal range.
_PART = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))


@st.composite
def states(draw, dim):
    parts = np.array(draw(st.lists(_PART, min_size=2 * dim, max_size=2 * dim).filter(any)))
    return StateVector.from_array(parts[0::2] + 1j * parts[1::2])


@st.composite
def state_stacks(draw):
    dim = draw(st.integers(1, 64))
    return [draw(states(dim)) for _ in range(draw(st.integers(1, 8)))]


def bits(x):
    return np.asarray(x).view(np.uint64)


@st.composite
def state_pairs(draw):
    dim = draw(st.integers(2, 32))
    return draw(states(dim)), draw(states(dim))


class TestStateVector:
    def test_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_from_array_normalizes(self):
        psi = StateVector.from_array([3.0, 4.0j])
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-14)
        assert psi.dim == 2

    def test_from_array_rejects_zero(self):
        with pytest.raises(ValueError):
            StateVector.from_array([0.0, 0.0])

    def test_amplitudes_read_only(self):
        psi = ket(1.0, 0.0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5


class TestRandomState:
    def test_dimension_one_has_unit_modulus(self):
        psi = random_state(1, np.random.default_rng(0))
        assert abs(psi.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_at_dimension_sixteen(self):
        psi = random_state(16, np.random.default_rng(1))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_state(0, np.random.default_rng(0))

    @pytest.mark.parametrize("dim", [2.0, 4.5, True, False, "4"])
    def test_dimension_must_be_an_integer(self, dim):
        with pytest.raises(ValueError, match="dim"):
            random_state(dim, np.random.default_rng(0))

    @pytest.mark.parametrize("dim", [np.int64(4), np.uint8(4)])
    def test_numpy_integer_dimension(self, dim):
        want = random_state(4, np.random.default_rng(2)).amplitudes
        assert np.array_equal(random_state(dim, np.random.default_rng(2)).amplitudes, want)

    def test_mean_squared_overlap_is_one_over_dim(self):
        # E |<psi|phi>|^2 = 1/D for independent Haar pairs; D = 8,
        # 10^5 pairs, fixed seed, 3 standard errors.
        dim = 8
        rng = np.random.default_rng(12345)
        n = 100_000
        x = rng.standard_normal((2 * n, 2 * dim))
        z = x[:, 0::2] + 1j * x[:, 1::2]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        overlap_sq = np.abs(np.einsum("ij,ij->i", z[0::2].conj(), z[1::2])) ** 2
        se = overlap_sq.std(ddof=1) / np.sqrt(n)
        assert abs(overlap_sq.mean() - 1.0 / dim) <= 3 * se

    def test_unitary_invariance_of_overlap_distribution(self):
        # Rotating the samples by a fixed unitary leaves the overlap
        # distribution with a fixed reference state unchanged.
        dim = 4
        rng = np.random.default_rng(7)
        reference = random_state(dim, rng)
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        unitary, _ = np.linalg.qr(gauss)
        plain = []
        rotated = []
        for seed in range(600):
            psi = random_state(dim, np.random.default_rng(1000 + seed)).amplitudes
            plain.append(abs(np.vdot(reference.amplitudes, psi)) ** 2)
            psi = random_state(dim, np.random.default_rng(5000 + seed)).amplitudes
            rotated.append(abs(np.vdot(reference.amplitudes, unitary @ psi)) ** 2)
        result = stats.ks_2samp(plain, rotated)
        assert result.pvalue > 0.01


class TestFsDistance:
    def test_identical_states(self):
        psi = ket(0.6, 0.8j)
        assert fs_distance(psi, psi) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fs_distance(ket(1, 0), ket(0, 1)) == pytest.approx(HALF_PI)

    def test_equal_superposition(self):
        plus = ket(1 / np.sqrt(2), 1 / np.sqrt(2))
        assert fs_distance(ket(1, 0), plus) == pytest.approx(np.pi / 4)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = random_state(8, rng), random_state(8, rng)
        assert fs_distance(a, b) == pytest.approx(fs_distance(b, a), abs=1e-15)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(4)
        a, b = random_state(8, rng), random_state(8, rng)
        b2 = StateVector(b.amplitudes * np.exp(1j * 1.234))
        assert fs_distance(a, b2) == pytest.approx(fs_distance(a, b), abs=1e-14)

    def test_range_and_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (random_state(4, rng) for _ in range(3))
            dab, dbc, dac = fs_distance(a, b), fs_distance(b, c), fs_distance(a, c)
            for d in (dab, dbc, dac):
                assert 0.0 <= d <= HALF_PI
            assert dac <= dab + dbc + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fs_distance(ket(1, 0), ket(1, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(state_pairs())
    def test_range_symmetry_and_self_distance(self, pair):
        a, b = pair
        d = fs_distance(a, b)
        assert 0.0 <= d <= HALF_PI
        assert d == pytest.approx(fs_distance(b, a), abs=1e-14)
        assert fs_distance(a, a) <= 1e-12


class TestChartKernel:
    """The public chart functions are rows of the raw-array kernel, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(state_stacks(), st.floats(-10.0, 10.0))
    # dim 1: numpy once rounded a lone row's distance unlike the same row in a batch
    @example([ket(1 + 1j), ket(1j)], 0.0)
    def test_public_functions_match_kernel_rows(self, stack, shift):
        amps = np.array([psi.amplitudes for psi in stack])
        theta = _chart(amps)[0]
        angles = theta + shift  # off the canonical ranges too
        moved = _amplitudes(angles)
        spans = _fs_distances(stack[0].amplitudes, amps)
        for k, psi in enumerate(stack):
            np.testing.assert_array_equal(bits(to_coords(psi).theta), bits(theta[k]))
            np.testing.assert_array_equal(
                bits(state_from_angles(angles[k]).amplitudes), bits(moved[k])
            )
            assert bits(fs_distance(stack[0], psi)) == bits(spans[k])


#: A magnitude angle off the canonical [0, pi/2]: either sign, up to three
#: half-turns away, and with |sin| >= 0.01, so a product of 63 sines stays
#: clear of underflow; or one of the chart's edge angles 0 and pi/2.
_MAGNITUDE = st.one_of(
    st.sampled_from([0.0, HALF_PI]),
    st.builds(
        lambda x, sign, turns: sign * x + turns * np.pi,
        st.floats(0.01, np.pi - 0.01), st.sampled_from([-1.0, 1.0]), st.integers(-3, 3),
    ),
)


@st.composite
def angle_stacks(draw):
    """(K, 2(D - 1)) chart angles for D = 2..64, off the canonical ranges."""
    n = draw(st.integers(1, 63))
    rows = draw(st.integers(1, 4))
    mag = draw(st.lists(_MAGNITUDE, min_size=rows * n, max_size=rows * n))
    ph = draw(st.lists(st.floats(-50.0, 50.0), min_size=rows * n, max_size=rows * n))
    return np.concatenate((np.reshape(mag, (rows, n)), np.reshape(ph, (rows, n))), axis=1)


class TestSinePrefix:
    """The moduli and tail norms the walk reads off its angles."""

    @settings(max_examples=100, deadline=None)
    @given(angle_stacks())
    def test_matches_the_chart_of_the_amplitudes(self, theta):
        prefix, moduli = _sine_prefix(theta)
        _, m, tail = _chart(_amplitudes(theta))
        np.testing.assert_allclose(np.abs(moduli), m, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.abs(prefix), tail, rtol=1e-12, atol=0.0)


class TestCoordinates:
    def test_basis_state_maps_to_zero_angles(self):
        coords = to_coords(ket(1, 0))
        assert coords.theta == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_quarter_angle_gives_equal_superposition(self):
        psi = state_from_angles(np.array([np.pi / 4, 0.0]))
        assert psi.amplitudes == pytest.approx(
            np.array([1, 1]) / np.sqrt(2), abs=1e-15
        )

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_round_trip(self, dim):
        for seed in range(25):
            psi = random_state(dim, np.random.default_rng(seed))
            back = from_coords(to_coords(psi))
            assert fs_distance(back, psi) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 32).flatmap(states))
    def test_round_trip_property(self, psi):
        assert fs_distance(from_coords(to_coords(psi)), psi) <= 1e-10

    def test_round_trip_with_zero_amplitudes(self):
        psi = ket(0.0, 0.6, 0.0, 0.8j)
        back = from_coords(to_coords(psi))
        assert fs_distance(back, psi) <= 1e-10

    def test_dimension_one(self):
        coords = to_coords(ket(1.0))
        assert coords.theta.shape == (0,)
        assert fs_distance(from_coords(coords), ket(1.0)) <= 1e-12

    def test_canonical_ranges_enforced(self):
        coords = to_coords(random_state(8, np.random.default_rng(11)))
        mag, ph = coords.magnitude_angles, coords.phase_angles
        assert np.all((mag >= 0) & (mag <= HALF_PI))
        assert np.all((ph >= 0) & (ph < 2 * np.pi))
        with pytest.raises(ValueError):
            HypersphericalCoords(np.array([-0.1, 0.0]), 2)
        with pytest.raises(ValueError):
            HypersphericalCoords(np.array([0.1, 2 * np.pi]), 2)

    def test_angle_vector_length_checked(self):
        with pytest.raises(ValueError):
            HypersphericalCoords(np.zeros(3), 2)
        with pytest.raises(ValueError, match="dim"):
            HypersphericalCoords(np.zeros(2), 2.0)


class TestMetricTensor:
    def test_qubit_magnitude_component_is_one(self):
        for theta1 in (0.2, 0.7, 1.1):
            g = metric_tensor(HypersphericalCoords(np.array([theta1, 0.3]), 2))
            assert g[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_qubit_phase_component(self):
        # g_22 = cos^2(theta) sin^2(theta), = 1/4 at theta = pi/4
        g = metric_tensor(HypersphericalCoords(np.array([np.pi / 4, 0.0]), 2))
        assert g[1, 1] == pytest.approx(0.25, abs=1e-12)

    def test_qubit_off_diagonal_vanishes(self):
        for theta in (0.1, 0.9, 1.4):
            g = metric_tensor(HypersphericalCoords(np.array([theta, 1.0]), 2))
            assert g[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_symmetry_and_reconstruction(self):
        # Rebuilt from the moduli m and tail norms t of the state:
        # diag(t_k^2) on the magnitudes, diag(v) - v v^T with v = m^2
        # on the phases, zero across.
        psi = random_state(8, np.random.default_rng(21))
        g = metric_tensor(to_coords(psi))
        assert np.max(np.abs(g - g.T)) <= 1e-12
        _, m, tail = _chart(psi.amplitudes[None])
        v = m[0, :-1] ** 2
        rebuilt = np.zeros_like(g)
        n = v.size
        rebuilt[:n, :n] = np.diag(tail[0, :n] ** 2)
        rebuilt[n:, n:] = np.diag(v) - np.outer(v, v)
        assert np.max(np.abs(rebuilt - g)) <= 1e-12

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(22)
        g = metric_tensor(to_coords(random_state(8, rng)))
        for _ in range(100):
            delta = rng.standard_normal(g.shape[0])
            assert delta @ g @ delta >= -1e-10

    def test_quadratic_form_matches_distance(self):
        # fs_distance(psi(theta), psi(theta + delta))^2 = delta^T g delta
        # up to O(|delta|^3): the residual should shrink by ~8x per halving.
        rng = np.random.default_rng(23)
        psi = random_state(8, rng)
        coords = to_coords(psi)
        g = metric_tensor(coords)
        direction = rng.standard_normal(g.shape[0])
        direction /= np.linalg.norm(direction)

        def residual(scale):
            moved = state_from_angles(coords.theta + scale * direction)
            quad = scale**2 * (direction @ g @ direction)
            return abs(fs_distance(psi, moved) ** 2 - quad)

        r1, r2 = residual(1e-3), residual(5e-4)
        assert r2 <= r1 / 8 * 1.5

    def test_global_phase_leaves_spectrum(self):
        psi = random_state(4, np.random.default_rng(24))
        rotated = StateVector(psi.amplitudes * np.exp(1j * 0.77))
        h1 = np.linalg.eigvalsh(metric_tensor(to_coords(psi)))
        h2 = np.linalg.eigvalsh(metric_tensor(to_coords(rotated)))
        assert np.max(np.abs(h1 - h2)) <= 1e-10

    def test_degenerate_directions_flagged(self):
        # theta_1 = 0 kills the phase direction of a qubit
        g = metric_tensor(HypersphericalCoords(np.array([0.0, 0.0]), 2))
        assert g[1, 1] == 0.0

    def test_dimension_one_empty_frame(self):
        g = metric_tensor(to_coords(ket(1.0)))
        assert g.shape == (0, 0)
