import math

import numpy as np
import pytest

from rydsim.fitting import (
    fit_cosine,
    fit_damped_cosine,
    fit_decay,
    spectral_peak,
)
from rydsim.units import TWO_PI


def damped_cosine(t, offset, amp, f, phase, tau, gaussian=False):
    x = t / tau
    env = np.exp(-(x**2)) if gaussian else np.exp(-x)
    return offset + amp * np.cos(TWO_PI * f * t + phase) * env


class TestSpectralPeak:
    def test_pure_tone(self):
        t = np.arange(0, 5.0, 0.02)  # 50 MHz sampling for 5 us
        y = np.cos(TWO_PI * 2.0 * t)
        bin_width = 1.0 / (t.size * 0.02)
        assert abs(spectral_peak(t, y) - 2.0) <= bin_width

    def test_constant_signal_raises(self):
        t = np.linspace(0, 1, 32)
        with pytest.raises(ValueError, match="constant"):
            spectral_peak(t, np.full(32, 0.7))

    def test_two_tone_returns_dominant(self):
        t = np.arange(0, 6.0, 0.02)
        y = 1.0 * np.cos(TWO_PI * 2.83 * t) + 0.3 * np.cos(TWO_PI * 1.1 * t)
        bin_width = 1.0 / (t.size * 0.02)
        assert abs(spectral_peak(t, y) - 2.83) <= bin_width

    def test_requires_uniform_sampling(self):
        t = np.array([0.0, 0.1, 0.25, 0.4])
        with pytest.raises(ValueError, match="uniform"):
            spectral_peak(t, np.sin(t))

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            spectral_peak([0, 0.1, 0.2], [1, 2, 3])


class TestDampedCosineRoundTrip:
    @pytest.mark.parametrize("model,gaussian", [("exp_envelope", False),
                                                ("gauss_envelope", True)])
    def test_noiseless_recovery(self, model, gaussian):
        rng = np.random.default_rng(17)
        t = np.linspace(0.0, 10.0, 201)
        for _ in range(100):
            truth = {
                "offset": rng.uniform(0.2, 0.8),
                "amplitude": rng.uniform(0.2, 0.5),
                "frequency_mhz": rng.uniform(0.5, 4.0),
                "phase_rad": rng.uniform(0.3, 2.8) * rng.choice([-1, 1]),
                "tau_us": rng.uniform(2.0, 50.0),
            }
            y = damped_cosine(
                t, truth["offset"], truth["amplitude"], truth["frequency_mhz"],
                truth["phase_rad"], truth["tau_us"], gaussian=gaussian,
            )
            fit = fit_damped_cosine(t, y, model)
            assert fit.converged
            for name, value in truth.items():
                assert abs(fit.params[name] - value) / abs(value) < 1e-5, (name, truth)

    def test_rejects_sub_period_span(self):
        t = np.linspace(0, 0.2, 30)
        y = damped_cosine(t, 0.5, 0.4, 2.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            fit_damped_cosine(t, y)

    def test_rejects_unknown_model(self):
        t = np.linspace(0, 5, 50)
        with pytest.raises(ValueError):
            fit_damped_cosine(t, np.cos(t), model="lorentzian")

    def test_noise_stability(self):
        # contrast like the resonant-drive scan: tau recovered within 5%
        rng = np.random.default_rng(3)
        t = np.linspace(0.05, 12.05, 121)
        clean = damped_cosine(t, 0.5, 0.5, 2.0, math.pi, 27.0)
        noisy = clean + rng.normal(0, 0.01, t.size)
        fit = fit_damped_cosine(t, noisy, "exp_envelope")
        assert abs(fit.params["tau_us"] - 27.0) / 27.0 < 0.05

    def test_undamped_data_flags_no_decay(self):
        t = np.linspace(0.0, 6.0, 121)
        y = 0.5 + 0.5 * np.cos(TWO_PI * 2.0 * t)
        fit = fit_damped_cosine(t, y, "exp_envelope")
        assert fit.no_decay
        assert math.isinf(fit.params["tau_us"])


class TestDecayFits:
    def test_exponential_round_trip(self):
        t = np.linspace(0, 80, 40)
        y = 0.1 + 0.85 * np.exp(-t / 23.0)
        fit = fit_decay(t, y, "exponential")
        assert abs(fit.params["tau_us"] - 23.0) < 1e-6
        assert abs(fit.params["offset"] - 0.1) < 1e-7
        assert fit.converged

    def test_gaussian_round_trip(self):
        t = np.linspace(0, 12, 40)
        y = 0.5 + 0.45 * np.exp(-((t / 4.5) ** 2))
        fit = fit_decay(t, y, "gaussian")
        assert abs(fit.params["tau_us"] - 4.5) < 1e-6

    def test_fixed_floor(self):
        t = np.linspace(0, 60, 30)
        y = 0.5 + 0.5 * np.exp(-t / 31.0)
        fit = fit_decay(t, y, "exponential", floor=0.5)
        assert abs(fit.params["tau_us"] - 31.0) < 1e-6
        assert fit.params["offset"] == 0.5
        assert "offset" not in fit.covariance_diag

    def test_time_shift_leaves_tau_unchanged(self):
        t = np.linspace(0, 50, 60)
        y = 0.2 + 0.7 * np.exp(-t / 17.0)
        tau_a = fit_decay(t, y, "exponential").params["tau_us"]
        tau_b = fit_decay(t + 12.5, y, "exponential").params["tau_us"]
        assert abs(tau_a - tau_b) < 1e-9

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            fit_decay([0, 1, 2], [1.0, 0.5, 0.2])


class TestCosineFit:
    def test_round_trip_with_frequency_guess(self):
        t = np.linspace(0, 0.4, 41)
        y = 0.5 + 0.44 * np.cos(TWO_PI * 5.0 * t + 0.3)
        fit = fit_cosine(t, y, freq_guess_mhz=5.0)
        assert abs(fit.params["amplitude"] - 0.44) < 1e-9
        assert abs(fit.params["phase_rad"] - 0.3) < 1e-8
        assert abs(fit.params["frequency_mhz"] - 5.0) < 1e-7

    def test_amplitude_normalized_nonnegative(self):
        t = np.linspace(0, 2, 60)
        y = 0.5 - 0.3 * np.cos(TWO_PI * 1.5 * t)
        fit = fit_cosine(t, y, freq_guess_mhz=1.5)
        assert fit.params["amplitude"] >= 0
        assert abs(abs(fit.params["phase_rad"]) - math.pi) < 1e-7

    def test_negative_frequency_guess_reports_positive_frequency(self):
        # the fit lands on f = -1.5, phi = -0.4 and reports the canonical form
        t = np.linspace(0, 2, 41)
        y = 0.5 + 0.3 * np.cos(TWO_PI * 1.5 * t + 0.4)
        fit = fit_cosine(t, y, freq_guess_mhz=-1.5)
        assert abs(fit.params["frequency_mhz"] - 1.5) < 1e-9
        assert abs(fit.params["amplitude"] - 0.3) < 1e-9
        assert abs(fit.params["phase_rad"] - 0.4) < 1e-9

    def test_covariance_reported(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 4, 120)
        y = 0.5 + 0.3 * np.cos(TWO_PI * 1.5 * t) + rng.normal(0, 0.01, t.size)
        fit = fit_cosine(t, y, freq_guess_mhz=1.5)
        assert fit.covariance_diag["amplitude"] > 0
        assert fit.residual_norm > 0
