"""Tests for the device quantumness assessment (qspan.accessibility)."""

import math

import pytest

from qspan.accessibility import (
    DeviceParams,
    QuantumnessReport,
    accessibility_index,
    assess,
    max_qubits,
    quantumness_margin,
)

REFERENCE = DeviceParams(
    n_qubits=100,
    j_over_h=5e9,
    t_decoherence=1e-8,
    t_evolution=5e-6,
)


class TestAccessibilityIndex:
    def test_reference_device(self):
        # 4 * 5e9 * sqrt(5e-6 * 1e-8) / 100^(3/4) collapses to 100*sqrt(2).
        index = accessibility_index(REFERENCE)
        assert index == pytest.approx(100.0 * math.sqrt(2.0), rel=1e-12)
        assert abs(index - 141.42) <= 1.0

    def test_scales_with_coupling(self):
        doubled = DeviceParams(100, 1e10, 1e-8, 5e-6)
        assert accessibility_index(doubled) == pytest.approx(
            2.0 * accessibility_index(REFERENCE), rel=1e-12
        )

    def test_sixteenfold_qubits_costs_factor_eight(self):
        bigger = DeviceParams(1600, 5e9, 1e-8, 5e-6)
        assert accessibility_index(bigger) == pytest.approx(
            accessibility_index(REFERENCE) / 8.0, rel=1e-12
        )

    def test_depends_on_time_product_only(self):
        swapped = DeviceParams(100, 5e9, 5e-6, 1e-8)
        assert accessibility_index(swapped) == pytest.approx(
            accessibility_index(REFERENCE), rel=1e-15
        )

    def test_time_rescaling_invariance(self):
        # t_f -> k t_f together with J/h -> J/(k h) ... the index moves
        # as sqrt(k)/k; check the exact combination that cancels.
        k = 7.3
        scaled = DeviceParams(100, 5e9 / math.sqrt(k), 1e-8, 5e-6 * k)
        assert accessibility_index(scaled) == pytest.approx(
            accessibility_index(REFERENCE), rel=1e-12
        )


class TestQuantumnessMargin:
    def test_coincides_with_index_at_unit_constant(self):
        margin, passes = quantumness_margin(REFERENCE)
        assert margin == pytest.approx(accessibility_index(REFERENCE), rel=1e-12)
        assert passes

    def test_inverse_in_heuristic_constant(self):
        margin_c, _ = quantumness_margin(
            DeviceParams(100, 5e9, 1e-8, 5e-6, c_constant=2.5)
        )
        margin_1, _ = quantumness_margin(REFERENCE)
        assert margin_c == pytest.approx(margin_1 / 2.5, rel=1e-12)

    def test_fails_for_large_constant(self):
        margin, passes = quantumness_margin(
            DeviceParams(100, 5e9, 1e-8, 5e-6, c_constant=200.0)
        )
        assert margin < 1.0
        assert not passes

    def test_grows_as_sqrt_of_evolution_time(self):
        slow = DeviceParams(100, 5e9, 1e-8, 4 * 5e-6)
        assert quantumness_margin(slow)[0] == pytest.approx(
            2.0 * quantumness_margin(REFERENCE)[0], rel=1e-12
        )


class TestMaxQubits:
    def test_reference_value(self):
        n_max = max_qubits(REFERENCE)
        assert n_max == pytest.approx(73680.6299728077, rel=1e-10)
        assert abs(n_max - 7.4e4) / 7.4e4 <= 0.05

    def test_index_at_break_even_is_one(self):
        n_max = max_qubits(REFERENCE)
        at = accessibility_index(
            DeviceParams(n_max, 5e9, 1e-8, 5e-6)
        )
        assert abs(at - 1.0) <= 1e-9

    def test_quadrupling_evolution_time(self):
        longer = DeviceParams(100, 5e9, 1e-8, 4 * 5e-6)
        assert max_qubits(longer) == pytest.approx(
            max_qubits(REFERENCE) * 4.0 ** (2.0 / 3.0), rel=1e-12
        )

    def test_independent_of_stated_qubit_count(self):
        other = DeviceParams(7, 5e9, 1e-8, 5e-6)
        assert max_qubits(other) == max_qubits(REFERENCE)


class TestAssess:
    def test_reference_report(self):
        report = assess(REFERENCE)
        assert report.index == pytest.approx(100.0 * math.sqrt(2.0), rel=1e-12)
        assert report.passes
        assert report.margin == pytest.approx(report.index, rel=1e-12)
        assert report.n_max == pytest.approx(73680.6299728077, rel=1e-10)
        assert report.n_max_floor == 73680

    def test_failing_device(self):
        # A very lossy device: t_D of 0.1 ps pushes the index under one.
        report = assess(DeviceParams(100, 5e9, 1e-13, 5e-6))
        assert report.index < 1.0
        assert not report.passes

    def test_weak_device_breaks_even_below_one_qubit(self):
        report = assess(DeviceParams(1, 1e6, 1e-8, 5e-6))
        assert report.n_max == pytest.approx(0.8618, abs=1e-4)
        assert report.n_max_floor == 0
        assert not report.passes

    def test_break_even_must_be_finite_and_positive(self):
        with pytest.raises(ValueError, match="break-even"):
            max_qubits(DeviceParams(1, 1e308, 1e308, 5e-6))
        with pytest.raises(ValueError, match="break-even"):
            max_qubits(DeviceParams(1, 1e-300, 1e-300, 1e-300))

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            QuantumnessReport(
                index=2.0, passes=False, margin=2.0, n_max=10.0, n_max_floor=10
            )


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DeviceParams(0, 5e9, 1e-8, 5e-6)
        with pytest.raises(ValueError):
            DeviceParams(100, 0.0, 1e-8, 5e-6)
        with pytest.raises(ValueError):
            DeviceParams(100, 5e9, -1e-8, 5e-6)
        with pytest.raises(ValueError):
            DeviceParams(100, 5e9, 1e-8, 0.0)
        with pytest.raises(ValueError):
            DeviceParams(100, 5e9, 1e-8, 5e-6, c_constant=0.0)
        with pytest.raises(ValueError, match="n_qubits"):
            DeviceParams("a", 1, 1, 1)
        with pytest.raises(ValueError, match="n_qubits"):
            DeviceParams(math.inf, 5e9, 1e-8, 5e-6)
        with pytest.raises(ValueError, match="t_evolution"):
            assess(DeviceParams(2, 1e9, 1e-8, math.inf))

    def test_fractional_qubit_count_allowed(self):
        params = DeviceParams(1.5, 5e9, 1e-8, 5e-6)
        assert accessibility_index(params) > 0.0
