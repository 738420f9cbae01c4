"""Tests for scaling fits and overlap concentration (qspan.analysis)."""

import math

import numpy as np
import pytest
from scipy import optimize, stats

from qspan.analysis import (
    FitError,
    concentration_bound,
    empirical_concentration,
    fit_exponent_scaling,
    fit_power_law,
    fit_saturating_power_law,
    overlap_probability_bound,
)
from qspan.hilbert import random_state

HALF_PI = np.pi / 2


class TestFitPowerLaw:
    def test_recovers_noiseless_data_exactly(self):
        m = np.arange(3, 101, dtype=float)
        ds = HALF_PI * 0.5 * m**-0.3
        fit = fit_power_law(m, ds)
        assert fit.amplitude == pytest.approx(0.5, rel=1e-12)
        assert fit.exponent == pytest.approx(0.3, rel=1e-12)
        assert fit.rss < 1e-20
        assert fit.n_points == 98

    def test_two_points_fit_exactly_with_zero_stderr(self):
        fit = fit_power_law([3.0, 30.0], [0.5, 0.17])
        assert fit.rss < 1e-28
        assert fit.amplitude_stderr == 0.0
        assert fit.exponent_stderr == 0.0

    def test_single_point_rejected(self):
        with pytest.raises(FitError):
            fit_power_law([10.0], [0.5])

    def test_non_positive_rejected(self):
        with pytest.raises(FitError):
            fit_power_law([3.0, 10.0], [0.5, 0.0])
        with pytest.raises(FitError):
            fit_power_law([-3.0, 10.0], [0.5, 0.2])

    def test_non_finite_rejected(self):
        with pytest.raises(FitError):
            fit_power_law([3.0, 10.0], [0.5, math.nan])

    def test_coincident_x_rejected(self):
        with pytest.raises(FitError):
            fit_power_law([10.0, 10.0, 10.0], [0.5, 0.4, 0.3])

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(8)
        m = np.array([3.0, 5.0, 8.0, 12.0, 20.0, 30.0])
        ds = HALF_PI * 0.31 * m**-0.47 * np.exp(rng.normal(0, 0.05, m.size))
        fit = fit_power_law(m, ds)
        perm = rng.permutation(m.size)
        shuffled = fit_power_law(m[perm], ds[perm])
        assert shuffled.amplitude == pytest.approx(fit.amplitude, rel=1e-12)
        assert shuffled.exponent == pytest.approx(fit.exponent, rel=1e-12)

    def test_matches_linregress_on_noisy_data(self):
        rng = np.random.default_rng(11)
        m = np.array([3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 50.0, 100.0])
        ds = HALF_PI * 0.31 * m**-0.47 * np.exp(rng.normal(0, 0.02, m.size))
        fit = fit_power_law(m, ds)
        lr = stats.linregress(np.log(m), np.log(ds / HALF_PI))
        assert fit.amplitude == pytest.approx(math.exp(lr.intercept), rel=1e-9)
        assert fit.exponent == pytest.approx(-lr.slope, rel=1e-9)
        assert fit.exponent_stderr == pytest.approx(lr.stderr, rel=1e-9)
        assert fit.amplitude_stderr == pytest.approx(
            math.exp(lr.intercept) * lr.intercept_stderr, rel=1e-9
        )


class TestFitExponentScaling:
    def test_recovers_positive_exponent(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = fit_exponent_scaling(x, 0.47 * x**0.02)
        assert fit.amplitude == pytest.approx(0.47, rel=1e-12)
        assert fit.exponent == pytest.approx(0.02, rel=1e-12)

    def test_recovers_negative_exponent(self):
        x = np.array([2.0, 4.0, 8.0, 16.0])
        fit = fit_exponent_scaling(x, 3.0 * x**-1.5)
        assert fit.exponent == pytest.approx(-1.5, rel=1e-12)

    def test_constant_data_has_zero_slope(self):
        fit = fit_exponent_scaling([1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0])
        assert fit.exponent == pytest.approx(0.0, abs=1e-14)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-14)


class TestFitSaturatingPowerLaw:
    def test_recovers_noiseless_model(self):
        x = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
        y = 1.0 - 0.33 * x**-0.47
        fit = fit_saturating_power_law(x, y)
        assert fit.converged
        assert fit.gamma == pytest.approx(1.0, abs=1e-8)
        assert fit.alpha == pytest.approx(0.33, abs=1e-8)
        assert fit.beta == pytest.approx(0.47, abs=1e-8)

    def test_three_points_rejected(self):
        with pytest.raises(FitError):
            fit_saturating_power_law([8.0, 16.0, 32.0], [0.8, 0.9, 0.95])

    def test_matches_curve_fit_on_noisy_data(self):
        rng = np.random.default_rng(11)
        x = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0])
        y = 1.0 - 0.33 * x**-0.47 + rng.normal(0.0, 1e-3, x.size)
        mine = fit_saturating_power_law(x, y)
        popt, pcov = optimize.curve_fit(
            lambda x, g, a, b: g - a * x**-b, x, y, p0=[1.01 * y.max(), 0.3, 0.5]
        )
        errs = np.sqrt(np.diag(pcov))
        assert mine.converged
        assert mine.gamma == pytest.approx(popt[0], rel=1e-6)
        assert mine.alpha == pytest.approx(popt[1], rel=1e-6)
        assert mine.beta == pytest.approx(popt[2], rel=1e-6)
        assert mine.gamma_stderr == pytest.approx(errs[0], rel=1e-3)
        assert mine.alpha_stderr == pytest.approx(errs[1], rel=1e-3)
        assert mine.beta_stderr == pytest.approx(errs[2], rel=1e-3)

    def test_non_positive_data_rejected(self):
        with pytest.raises(FitError):
            fit_saturating_power_law([8.0, 16.0, 32.0, 64.0], [0.5, 0.6, -0.1, 0.7])


    def test_subnormal_data_cannot_be_seeded(self):
        # 1.01 * 5e-324 rounds back to 5e-324, so gamma0 - y is zero.
        with pytest.raises(FitError, match="seed"):
            fit_saturating_power_law([8.0, 16.0, 32.0, 64.0], [5e-324] * 4)

    def test_unconverged_fit_is_flagged_and_finite(self):
        # Four amplitudes still rising at the largest x leave the ceiling
        # on a flat valley: the step test is not met within the cap.
        x = [128.0, 256.0, 512.0, 1024.0]
        y = [0.9592343932119902, 0.965505124900998, 0.9751694780972807, 0.9850930542053425]
        fit = fit_saturating_power_law(x, y)
        assert not fit.converged
        assert fit.n_iterations == 200
        values = [fit.gamma, fit.alpha, fit.beta, fit.rss,
                  fit.gamma_stderr, fit.alpha_stderr, fit.beta_stderr]
        assert all(math.isfinite(v) for v in values)


class TestConcentrationBound:
    def test_matches_closed_form(self):
        d, eps = 64, 0.03
        u = d * eps
        expected = 4.0 * math.exp(-(d / 4.0) * (u / (1.0 + u)) ** 2)
        assert concentration_bound(d, eps) == pytest.approx(expected, rel=1e-15)

    def test_lower_bound_frozen_values(self):
        assert overlap_probability_bound(64) == pytest.approx(
            0.9267374444450633, rel=1e-15
        )
        assert overlap_probability_bound(128) == pytest.approx(
            0.99865814948838995, rel=1e-15
        )
        # headline 4-decimal values
        assert round(overlap_probability_bound(64), 4) == 0.9267
        assert round(overlap_probability_bound(128), 4) == 0.9987

    def test_lower_bound_complements_bound_at_inverse_dimension(self):
        for d in (8, 64, 200):
            assert overlap_probability_bound(d) == pytest.approx(
                1.0 - concentration_bound(d, 1.0 / d), rel=1e-14
            )

    def test_large_epsilon_limit(self):
        assert concentration_bound(64, 1e9) == pytest.approx(
            4.0 * math.exp(-16.0), rel=1e-8
        )

    def test_monotone_decreasing_in_epsilon(self):
        eps = np.linspace(0.005, 0.5, 40)
        vals = [concentration_bound(64, e) for e in eps]
        assert np.all(np.diff(vals) < 0.0)

    def test_decreasing_in_dimension_at_fixed_eps_times_dim(self):
        vals = [concentration_bound(d, 1.0 / d) for d in (4, 8, 16, 32, 64)]
        assert np.all(np.diff(vals) < 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            concentration_bound(0, 0.1)
        with pytest.raises(ValueError):
            concentration_bound(8, 0.0)
        with pytest.raises(ValueError):
            overlap_probability_bound(0)


class TestEmpiricalConcentration:
    def test_matches_exact_beta_tail(self):
        # |<psi|phi>|^2 of independent random states is Beta(1, D-1), so
        # the deviation probability at eps = 1/D is exactly (1-2/D)^(D-1)
        # (the lower side has zero measure).  Binomial SE at 1e5 samples
        # is ~0.0011; allow 4 of them.
        rep = empirical_concentration(64, 1.0 / 64.0, 100000, 424242)
        exact = (1.0 - 2.0 / 64.0) ** 63
        assert abs(rep.empirical_probability - exact) <= 4 * 0.0011

    def test_empirical_within_bound_where_bound_is_sharp(self):
        # At deviation 0.25 the exponential bound really does dominate
        # the Beta tail; at D=16 the comparison is non-vacuous (the true
        # rate is ~3.6e-3 against a bound of ~0.31).
        for dim, seed in ((16, 1016), (64, 1064), (256, 1256)):
            rep = empirical_concentration(dim, 0.25, 100000, seed)
            assert rep.empirical_probability <= rep.bound
        assert rep.bound < 1.0

    def test_mean_overlap_near_inverse_dimension(self):
        rep = empirical_concentration(8, 0.1, 50000, 99)
        se = rep.overlap_sq_std / math.sqrt(rep.samples)
        assert abs(rep.overlap_sq_mean - 1.0 / 8.0) <= 3 * se

    def test_overlap_uniform_at_dimension_two(self):
        # At D=2 the squared overlap of independent random states is
        # uniform on [0, 1].
        rng = np.random.default_rng(321)
        overlap_sq = np.empty(100000)
        for i in range(overlap_sq.size):
            a = random_state(2, rng)
            b = random_state(2, rng)
            overlap_sq[i] = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        assert stats.kstest(overlap_sq, "uniform").pvalue > 0.01

    def test_deterministic_for_a_seed(self):
        a = empirical_concentration(16, 0.1, 2000, 5)
        b = empirical_concentration(16, 0.1, 2000, 5)
        assert a.empirical_probability == b.empirical_probability
        assert a.overlap_sq_mean == b.overlap_sq_mean

    def test_entropy_sequence_seed(self):
        a = empirical_concentration(4, 0.25, 1000, seed=[1, 2])
        b = empirical_concentration(4, 0.25, 1000, np.random.SeedSequence([1, 2]))
        assert a == b

    def test_seed_sequence_is_not_consumed(self):
        ss = np.random.SeedSequence(5)
        a = empirical_concentration(16, 0.1, 2000, ss)
        b = empirical_concentration(16, 0.1, 2000, ss)
        assert a == b == empirical_concentration(16, 0.1, 2000, 5)

    def test_report_fields(self):
        rep = empirical_concentration(16, 0.1, 3000, 5)
        assert rep.dim == 16
        assert rep.samples == 3000
        assert rep.bound == pytest.approx(concentration_bound(16, 0.1))
        assert rep.p_lower_bound == pytest.approx(overlap_probability_bound(16))
        assert 0.0 <= rep.empirical_probability <= 1.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            empirical_concentration(16, 0.1, 999, 0)

    @pytest.mark.parametrize(
        "dim, samples, field",
        [(4.0, 1000, "dim"), (True, 1000, "dim"), (4, 1000.5, "samples"), (4, "1000", "samples")],
    )
    def test_non_integer_counts_rejected(self, dim, samples, field):
        with pytest.raises(ValueError, match=field):
            empirical_concentration(dim, 0.1, samples, 0)

    def test_numpy_integer_counts_accepted(self):
        got = empirical_concentration(np.int64(4), 0.1, np.int32(1000), 0)
        assert got == empirical_concentration(4, 0.1, 1000, 0)
        assert type(got.dim) is int and type(got.samples) is int

    def test_quadrupling_samples_halves_standard_error(self):
        spread = {}
        for n in (2000, 8000):
            est = [
                empirical_concentration(8, 0.1, n, 9000 + k).empirical_probability
                for k in range(25)
            ]
            spread[n] = np.std(est, ddof=1)
        ratio = spread[2000] / spread[8000]
        assert 1.0 <= ratio <= 4.0
