"""Log-linear camera fits and joint parameter sampling."""

import math

import numpy as np
import pytest

from rawnoise.calibration import (
    CameraModel,
    fit_iso_gain,
    fit_log_linear,
    sample_params,
    sample_params_at_iso,
)
from rawnoise.errors import (
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    MissingCalibrationError,
)
from rawnoise.noise_core import NoiseParams


def _param_set(points, mu_c=0.0):
    """NoiseParams tuples from (K, sigma) pairs, with sigma_r = sigma."""
    return [NoiseParams(K=k, sigma=sigma, mu_c=mu_c, sigma_r=sigma) for k, sigma in points]


def _ols_oracle(x, y):
    """Independent normal-equation solution used to cross-check the fit."""
    design = np.column_stack([x, np.ones_like(x)])
    coeffs = np.linalg.solve(design.T @ design, design.T @ y)
    residuals = y - design @ coeffs
    dof = max(len(x) - 2, 1)
    return coeffs[0], coeffs[1], math.sqrt(float(residuals @ residuals) / dof)


class TestFitLogLinear:
    def test_noiseless_line(self):
        """Points exactly on log sigma = log K give a=1, b=0, spread ~ 0."""
        points = [(k, k) for k in (0.5, 1.0, 2.0, 4.0, 8.0)]
        model = fit_log_linear(_param_set(points))
        assert abs(model.a - 1.0) <= 1e-12
        assert abs(model.b) <= 1e-12
        assert model.sigma_hat <= 1e-12
        assert model.K_min == 0.5 and model.K_max == 8.0

    def test_matches_normal_equations(self):
        """The worked point set reproduces the closed-form OLS solution."""
        points = [(1.0, 2.0), (2.0, 3.0), (4.0, 5.0), (8.0, 7.0)]
        model = fit_log_linear(_param_set(points))
        a, b, spread = _ols_oracle(
            np.log([k for k, _ in points]), np.log([s for _, s in points])
        )
        assert abs(model.a - a) <= 1e-12
        assert abs(model.b - b) <= 1e-12
        assert abs(model.sigma_hat - spread) <= 1e-12

    def test_random_sets_match_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            gains = rng.uniform(0.1, 10.0, size=n)
            gains[1] = gains[0] * 2.0  # guarantee distinct gains
            sigmas = rng.uniform(0.2, 8.0, size=n)
            sigma_rs = rng.uniform(0.1, 4.0, size=n)
            entries = [
                NoiseParams(K=gains[i], sigma=sigmas[i], mu_c=0.0, sigma_r=sigma_rs[i])
                for i in range(n)
            ]
            model = fit_log_linear(entries)
            a, b, spread = _ols_oracle(np.log(gains), np.log(sigmas))
            a_r, b_r, spread_r = _ols_oracle(np.log(gains), np.log(sigma_rs))
            assert abs(model.a - a) <= 1e-9
            assert abs(model.b - b) <= 1e-9
            assert abs(model.sigma_hat - spread) <= 1e-9
            assert abs(model.a_r - a_r) <= 1e-9
            assert abs(model.b_r - b_r) <= 1e-9
            assert abs(model.sigma_r_hat - spread_r) <= 1e-9

    def test_positive_slope_on_calibrated_sensor(self):
        """Tuples sampled from a gain-increasing camera refit with a > 0."""
        camera = CameraModel(
            a=0.7, b=0.3, a_r=0.6, b_r=-0.4, sigma_hat=0.05, sigma_r_hat=0.05,
            K_min=0.2, K_max=6.0, mu_c_model=0.1,
        )
        rng = np.random.default_rng(51)
        entries = [sample_params(camera, rng) for _ in range(200)]
        assert fit_log_linear(entries).a > 0.0

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            fit_log_linear(_param_set([(1.0, 1.0)]))
        with pytest.raises(DegenerateDesignError):
            fit_log_linear(_param_set([(2.0, 1.0), (2.0, 3.0)]))

    def test_zero_sigma_floored_with_warning(self, caplog):
        points = [(1.0, 0.0), (2.0, 3.0), (4.0, 5.0)]
        with caplog.at_level("WARNING"):
            model = fit_log_linear(_param_set(points))
        assert "flooring" in caplog.text
        assert np.isfinite(model.b)

    def test_mu_c_model_is_mean(self):
        entries = [
            NoiseParams(K=1.0, sigma=1.0, mu_c=-1.0, sigma_r=1.0),
            NoiseParams(K=2.0, sigma=2.0, mu_c=2.0, sigma_r=2.0),
        ]
        assert fit_log_linear(entries).mu_c_model == 0.5


class TestSampleParams:
    def test_degenerate_gain_range(self):
        model = CameraModel(
            a=0.5, b=0.0, a_r=0.5, b_r=0.0, sigma_hat=0.1, sigma_r_hat=0.1,
            K_min=2.0, K_max=2.0, mu_c_model=0.0,
        )
        rng = np.random.default_rng(52)
        assert all(sample_params(model, rng).K == 2.0 for _ in range(32))

    def test_zero_spread_lands_on_lines(self):
        model = CameraModel(
            a=0.8, b=0.2, a_r=0.4, b_r=-0.3, sigma_hat=0.0, sigma_r_hat=0.0,
            K_min=0.5, K_max=4.0, mu_c_model=0.25,
        )
        rng = np.random.default_rng(53)
        for _ in range(64):
            p = sample_params(model, rng)
            assert abs(math.log(p.sigma) - (0.8 * math.log(p.K) + 0.2)) <= 1e-12
            assert abs(math.log(p.sigma_r) - (0.4 * math.log(p.K) - 0.3)) <= 1e-12
            assert p.mu_c == 0.25

class TestIsoGain:
    def test_exact_proportionality(self):
        assert fit_iso_gain([(100.0, 0.5), (200.0, 1.0)]) == pytest.approx(0.005, abs=1e-15)

    def test_single_pair(self):
        assert fit_iso_gain([(800.0, 4.0)]) == pytest.approx(0.005, abs=1e-15)

    def test_noisy_pairs_match_closed_form(self):
        rng = np.random.default_rng(55)
        iso = rng.uniform(100, 6400, size=40)
        gain = 0.003 * iso * rng.uniform(0.9, 1.1, size=40)
        expected = float(np.sum(iso * gain) / np.sum(iso**2))
        assert fit_iso_gain(list(zip(iso, gain))) == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_iso_gain([])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            fit_iso_gain([(100.0, -1.0)])


class TestSampleAtIso:
    def _model(self, alpha=0.005):
        return CameraModel(
            a=0.7, b=0.1, a_r=0.5, b_r=-0.2, sigma_hat=0.1, sigma_r_hat=0.1,
            K_min=0.25, K_max=8.0, mu_c_model=0.0, alpha=alpha,
        )

    def test_gain_pinned(self):
        rng = np.random.default_rng(56)
        for _ in range(16):
            assert sample_params_at_iso(self._model(), 1600.0, rng).K == 8.0

    def test_invalid_iso_rejected(self):
        with pytest.raises(DomainError):
            sample_params_at_iso(self._model(), 0.0, np.random.default_rng(57))

    def test_missing_alpha(self):
        model = CameraModel(
            a=0.7, b=0.1, a_r=0.5, b_r=-0.2, sigma_hat=0.1, sigma_r_hat=0.1,
            K_min=0.25, K_max=8.0, mu_c_model=0.0,
        )
        with pytest.raises(MissingCalibrationError):
            sample_params_at_iso(model, 800.0, np.random.default_rng(58))

    def test_conditional_moments_at_fixed_gain(self):
        rng = np.random.default_rng(59)
        model = self._model()
        samples = [sample_params_at_iso(model, 400.0, rng) for _ in range(4 * 10**4)]
        log_k = math.log(0.005 * 400.0)
        log_sigma = np.log([p.sigma for p in samples])
        log_sigma_r = np.log([p.sigma_r for p in samples])
        n = len(samples)
        assert abs(log_sigma.mean() - (0.7 * log_k + 0.1)) <= 3.0 * 0.1 / math.sqrt(n)
        assert abs(log_sigma.std() - 0.1) <= 0.01 * 3
        assert abs(log_sigma_r.mean() - (0.5 * log_k - 0.2)) <= 3.0 * 0.1 / math.sqrt(n)


class TestModelInvariants:
    def test_fit_idempotence(self):
        """Sampling with zero spread and refitting recovers (a, b) to 1e-9."""
        model = CameraModel(
            a=0.65, b=0.12, a_r=0.45, b_r=-0.33, sigma_hat=0.0, sigma_r_hat=0.0,
            K_min=0.3, K_max=5.0, mu_c_model=0.0,
        )
        rng = np.random.default_rng(60)
        refit = fit_log_linear(sample_params(model, rng) for _ in range(100))
        assert abs(refit.a - 0.65) <= 1e-9
        assert abs(refit.b - 0.12) <= 1e-9
        assert abs(refit.a_r - 0.45) <= 1e-9
        assert abs(refit.b_r + 0.33) <= 1e-9

    def test_ols_scale_covariance(self):
        """Scaling all K by c leaves a fixed and shifts b by -a*log(c)."""
        rng = np.random.default_rng(61)
        gains = rng.uniform(0.2, 6.0, size=20)
        sigmas = rng.uniform(0.5, 5.0, size=20)
        sigma_rs = rng.uniform(0.2, 2.0, size=20)
        base = fit_log_linear(
            NoiseParams(K=gains[i], sigma=sigmas[i], mu_c=0.0, sigma_r=sigma_rs[i])
            for i in range(20)
        )
        c = 3.7
        scaled = fit_log_linear(
            NoiseParams(K=c * gains[i], sigma=sigmas[i], mu_c=0.0, sigma_r=sigma_rs[i])
            for i in range(20)
        )
        assert abs(scaled.a - base.a) <= 1e-9
        assert abs(scaled.b - (base.b - base.a * math.log(c))) <= 1e-9

    def test_fit_sample_refit_round_trip(self):
        """Refit on 10^4 sampled tuples recovers slopes within 3 OLS SEs."""
        model = CameraModel(
            a=0.7, b=0.15, a_r=0.5, b_r=-0.25, sigma_hat=0.12, sigma_r_hat=0.08,
            K_min=0.25, K_max=8.0, mu_c_model=0.3,
        )
        rng = np.random.default_rng(62)
        entries = [sample_params(model, rng) for _ in range(10**4)]
        refit = fit_log_linear(entries)
        log_k = np.log([p.K for p in entries])
        s_xx = float(np.sum((log_k - log_k.mean()) ** 2))
        for true_slope, true_icpt, slope, icpt, spread in (
            (0.7, 0.15, refit.a, refit.b, 0.12),
            (0.5, -0.25, refit.a_r, refit.b_r, 0.08),
        ):
            se_slope = spread / math.sqrt(s_xx)
            se_icpt = spread * math.sqrt(1.0 / len(entries) + log_k.mean() ** 2 / s_xx)
            assert abs(slope - true_slope) <= 3.0 * se_slope
            assert abs(icpt - true_icpt) <= 3.0 * se_icpt
