"""Round-trip recovery of generating parameters by the statistical oracle."""

import re
import warnings

import numpy as np
import pytest

from rawnoise.errors import DomainError, InsufficientDataError, ShapeError
from rawnoise.noise_core import NoiseParams, synthesize_noise
from rawnoise.oracle import (
    _checked_frames,
    estimate_bias_and_row_sigma,
    estimate_gain_and_read,
    estimate_params_oracle,
)
from rawnoise.streams import derive_stream

ZEROS = np.zeros((4, 16, 16))
FLATS = [(level, [np.full((4, 16, 16), level)] * 2) for level in (10.0, 40.0)]
# Each dark-set estimate, called with dark frames only.
DARK_ESTIMATORS = {
    "bias": lambda darks: estimate_bias_and_row_sigma(darks)[0],
    "row_sigma": lambda darks: estimate_bias_and_row_sigma(darks)[1],
    "oracle": lambda darks: estimate_params_oracle(FLATS, darks),
}
# Each flat-series estimator, called with a flat series only.
FLAT_ESTIMATORS = {
    "gain_and_read": estimate_gain_and_read,
    "oracle": lambda series: estimate_params_oracle(series, [np.zeros((4, 16, 16))] * 2),
}


def recorded_isfinite_shapes(monkeypatch) -> list:
    """The shape of every array np.isfinite is called on from now on."""
    shapes = []
    isfinite = np.isfinite

    def recording_isfinite(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recording_isfinite)
    return shapes


def make_flat_series(params, levels, frames_per_level, shape, rng):
    series = []
    for level in levels:
        clean = np.full(shape, float(level))
        frames = [synthesize_noise(clean, params, rng)[0] for _ in range(frames_per_level)]
        series.append((float(level), frames))
    return series


def make_dark_frames(params, count, shape, rng):
    clean = np.zeros(shape)
    return [synthesize_noise(clean, params, rng)[0] for _ in range(count)]


LEVELS = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


class TestGainAndRead:
    def test_recovery_low_gain(self):
        """(K=0.5, sigma=2, sigma_r=0.5): K and total std within 5%."""
        params = NoiseParams(K=0.5, sigma=2.0, mu_c=1.0, sigma_r=0.5)
        rng = derive_stream(100, 0)
        series = make_flat_series(params, LEVELS, 8, (4, 128, 128), rng)
        gain, sigma_total = estimate_gain_and_read(series)
        expected_total = np.hypot(2.0, 0.5)
        assert abs(gain - 0.5) <= 0.05 * 0.5
        assert abs(sigma_total - expected_total) <= 0.05 * expected_total

    def test_recovery_high_gain(self):
        params = NoiseParams(K=4.0, sigma=6.0, mu_c=0.0, sigma_r=1.0)
        rng = derive_stream(101, 0)
        series = make_flat_series(params, LEVELS, 8, (4, 128, 128), rng)
        gain, sigma_total = estimate_gain_and_read(series)
        expected_total = np.hypot(6.0, 1.0)
        assert abs(gain - 4.0) <= 0.05 * 4.0
        assert abs(sigma_total - expected_total) <= 0.05 * expected_total

    def test_noiseless_degenerate(self):
        """Constant frames: zero slope and zero intercept."""
        series = [
            (10.0, [np.full((4, 32, 32), 10.0)] * 3),
            (20.0, [np.full((4, 32, 32), 20.0)] * 3),
            (40.0, [np.full((4, 32, 32), 40.0)] * 3),
        ]
        gain, sigma_total = estimate_gain_and_read(series)
        assert abs(gain) <= 1e-9
        assert sigma_total <= 1e-9

    def test_insufficient_levels(self):
        with pytest.raises(InsufficientDataError):
            estimate_gain_and_read([(10.0, [np.zeros((4, 8, 8))] * 2)])

    def test_insufficient_frames(self):
        with pytest.raises(InsufficientDataError):
            estimate_gain_and_read(
                [(10.0, [np.zeros((4, 8, 8))]), (20.0, [np.zeros((4, 8, 8))] * 2)]
            )


class TestRowSigma:
    def test_no_row_noise(self):
        """With sigma_r = 0 the corrected estimate collapses below 0.05*sigma."""
        params = NoiseParams(K=1.0, sigma=2.0, mu_c=0.0, sigma_r=0.0)
        rng = derive_stream(102, 0)
        frames = make_dark_frames(params, 64, (4, 128, 128), rng)
        assert estimate_bias_and_row_sigma(frames)[1] <= 0.05 * 2.0

    def test_recovery_small(self):
        params = NoiseParams(K=1.0, sigma=2.0, mu_c=0.0, sigma_r=0.5)
        rng = derive_stream(103, 0)
        frames = make_dark_frames(params, 64, (4, 128, 128), rng)
        assert abs(estimate_bias_and_row_sigma(frames)[1] - 0.5) <= 0.10 * 0.5

    def test_recovery_dominant(self):
        params = NoiseParams(K=1.0, sigma=1.0, mu_c=-1.0, sigma_r=3.0)
        rng = derive_stream(104, 0)
        frames = make_dark_frames(params, 64, (4, 128, 128), rng)
        assert abs(estimate_bias_and_row_sigma(frames)[1] - 3.0) <= 0.10 * 3.0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_bias_and_row_sigma([])


class TestColorBias:
    def test_constant_frames_exact(self):
        assert estimate_bias_and_row_sigma([np.full((4, 8, 8), 5.0)] * 4)[0] == 5.0

    def test_gaussian_mean(self):
        params = NoiseParams(K=1.0, sigma=2.0, mu_c=1.0, sigma_r=0.0)
        rng = derive_stream(105, 0)
        frames = make_dark_frames(params, 16, (4, 128, 128), rng)  # > 10^6 px
        assert abs(estimate_bias_and_row_sigma(frames)[0] - 1.0) <= 0.01

    def test_negative_bias(self):
        params = NoiseParams(K=1.0, sigma=2.0, mu_c=-0.3, sigma_r=0.0)
        rng = derive_stream(106, 0)
        frames = make_dark_frames(params, 16, (4, 128, 128), rng)
        assert abs(estimate_bias_and_row_sigma(frames)[0] + 0.3) <= 0.01

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_bias_and_row_sigma([])

    def test_mixed_shapes_rejected(self):
        with pytest.raises(ShapeError):
            estimate_bias_and_row_sigma([np.zeros((4, 16, 16)), np.zeros((4, 16, 32))])


class TestComposedOracle:
    def _round_trip(self, params, seed):
        rng = derive_stream(seed, 0)
        series = make_flat_series(params, LEVELS, 8, (4, 128, 128), rng)
        darks = make_dark_frames(params, 64, (4, 128, 128), rng)
        return estimate_params_oracle(series, darks)

    def test_noiseless_degenerate(self):
        series = [
            (10.0, [np.full((4, 32, 32), 15.0)] * 3),
            (20.0, [np.full((4, 32, 32), 25.0)] * 3),
        ]
        darks = [np.full((4, 32, 32), 5.0)] * 4
        est = estimate_params_oracle(series, darks)
        assert est.K <= 1e-9  # floored just above zero
        assert est.sigma == 0.0
        assert est.sigma_r == 0.0
        assert est.mu_c == 5.0

    def test_estimates_respect_parameter_domain(self):
        """Flooring keeps K, sigma, sigma_r non-negative even when the
        row term exceeds the photon-transfer intercept."""
        params = NoiseParams(K=0.5, sigma=0.1, mu_c=0.0, sigma_r=2.0)
        est = self._round_trip(params, 109)
        assert est.K > 0.0 and est.sigma >= 0.0 and est.sigma_r >= 0.0

    def test_no_finite_frame_is_scanned(self, monkeypatch):
        """Finiteness is read off each frame's sum, so no dark or flat frame
        whose sum is finite gets a frame-wide isfinite pass."""
        params = NoiseParams(K=1.0, sigma=2.0, mu_c=0.5, sigma_r=0.8)
        rng = derive_stream(110, 0)
        series = make_flat_series(params, (10.0, 40.0), 2, (4, 16, 16), rng)
        darks = make_dark_frames(params, 3, (4, 16, 16), rng)
        scanned = recorded_isfinite_shapes(monkeypatch)
        estimate_params_oracle(series, darks)
        assert (4, 16, 16) not in scanned

    # Finite frames of +-1e308 whose sums overflow: each case's estimate, what it
    # gives once the overflow warning is ignored, and how many such frames it reads.
    OVERFLOWING = {
        "dark_positive": (
            lambda: estimate_bias_and_row_sigma([ZEROS, np.full((4, 16, 16), 1e308)]),
            (np.inf, 0.0),
            1,
        ),
        "dark_negative": (
            lambda: estimate_bias_and_row_sigma([ZEROS, np.full((4, 16, 16), -1e308)]),
            (-np.inf, 0.0),
            1,
        ),
        "flat": (
            lambda: estimate_gain_and_read([(5.0, [np.full((4, 16, 16), 1e308)] * 2), *FLATS]),
            (np.nan, np.nan),
            2,
        ),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_finite_frame_whose_sum_overflows(self, monkeypatch, case):
        """Such a frame alone is scanned, found finite and reduced as any other:
        its sum's overflow warning is raised, or once that is ignored the
        estimate goes on to an infinite or NaN statistic."""
        estimate, expected, overflowing = self.OVERFLOWING[case]
        with pytest.raises(RuntimeWarning, match="overflow encountered in reduce"):
            estimate()
        scanned = recorded_isfinite_shapes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            np.testing.assert_equal(estimate(), expected)
        assert scanned.count((4, 16, 16)) == overflowing


def pulled_through(frames, pulled):
    """A generator of ``frames`` that appends each frame to ``pulled`` as it is read."""
    for frame in frames:
        pulled.append(frame)
        yield frame


class TestFirstBadDarkFrame:
    """The dark pass refuses a set at its first bad frame, before the next is read."""

    CASES = {
        "unpacked_first": ([(3, 16, 16)], ShapeError, "must be packed"),
        "narrow_first": ([(4, 16, 4)], DomainError, "packed width >= 8, got 4"),
        "mixed_third": (
            [(4, 16, 16), (4, 16, 16), (4, 16, 32)],
            ShapeError,
            "dark frames differ in shape: frame 2 is (4, 16, 32), frame 0 is (4, 16, 16)",
        ),
        "non_finite_second": ([(4, 16, 16), None], DomainError, "non-finite"),
    }

    @pytest.mark.parametrize("estimator", sorted(DARK_ESTIMATORS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_at_the_first_bad_frame(self, estimator, case):
        shapes, error, message = self.CASES[case]
        frames = [np.zeros(shape) if shape else np.full((4, 16, 16), np.nan) for shape in shapes]
        frames += [np.zeros((4, 16, 16))] * 5  # never read
        pulled = []
        with pytest.raises(error, match=re.escape(message)):
            DARK_ESTIMATORS[estimator](pulled_through(frames, pulled))
        assert len(pulled) == len(shapes)


class TestFirstBadFlatFrame:
    """A flat level is refused at its first bad frame, before the next frame or level is read."""

    CASES = {
        "unpacked_first": ([(3, 16, 16)], ShapeError, "flats of level 5.0 must be packed"),
        "mixed_third": (
            [(4, 16, 16), (4, 16, 16), (4, 16, 32)],
            ShapeError,
            "flats of level 5.0 differ in shape: frame 2 is (4, 16, 32), frame 0 is (4, 16, 16)",
        ),
        "non_finite_second": (
            [(4, 16, 16), None], DomainError, "flats of level 5.0 contain non-finite values"
        ),
    }

    @pytest.mark.parametrize("estimator", sorted(FLAT_ESTIMATORS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_at_the_first_bad_frame(self, estimator, case):
        shapes, error, message = self.CASES[case]
        frames = [np.zeros(shape) if shape else np.full((4, 16, 16), np.nan) for shape in shapes]
        frames += [np.zeros((4, 16, 16))] * 5  # never read
        pulled = []
        series = [(level, pulled_through(f, pulled)) for level, f in [(5.0, frames), *FLATS]]
        with pytest.raises(error, match=re.escape(message)):
            FLAT_ESTIMATORS[estimator](series)
        assert len(pulled) == len(shapes)


class TestEstimatorProperties:
    def test_order_independence(self):
        """Permuting frames leaves every estimate bit-identical."""
        params = NoiseParams(K=1.5, sigma=1.0, mu_c=0.4, sigma_r=0.7)
        rng = derive_stream(110, 0)
        series = make_flat_series(params, (5.0, 20.0, 80.0), 6, (4, 32, 32), rng)
        darks = make_dark_frames(params, 12, (4, 32, 32), rng)

        perm_series = [(lvl, [frames[i] for i in (3, 0, 5, 1, 4, 2)]) for lvl, frames in series]
        perm_darks = [darks[i] for i in np.random.default_rng(7).permutation(12)]

        assert estimate_params_oracle(series, darks) == estimate_params_oracle(
            perm_series, perm_darks
        )

    def test_stacks_and_lists_agree(self):
        """A set given as one float64 stack is read as views and estimates identically."""
        params = NoiseParams(K=1.5, sigma=1.0, mu_c=0.4, sigma_r=0.7)
        rng = derive_stream(112, 0)
        series = make_flat_series(params, (5.0, 20.0, 80.0), 3, (4, 16, 16), rng)
        darks = make_dark_frames(params, 4, (4, 16, 16), rng)
        stacked = [(level, np.stack(frames)) for level, frames in series]
        dark_stack = np.stack(darks)

        for stack in (dark_stack, *(frames for _, frames in stacked)):
            views = [view for view, _ in _checked_frames(stack, "frames")]
            assert all(np.shares_memory(view, stack) for view in views)
        assert estimate_params_oracle(stacked, dark_stack) == estimate_params_oracle(series, darks)

    @pytest.mark.parametrize("estimator", sorted(DARK_ESTIMATORS))
    def test_lists_stacks_and_generators_give_the_same_bits(self, estimator):
        """A list, an (n, 4, H, W) stack and a one-shot generator of one dark set agree."""
        params = NoiseParams(K=1.5, sigma=1.0, mu_c=0.4, sigma_r=0.7)
        darks = make_dark_frames(params, 6, (4, 16, 16), derive_stream(114, 0))
        estimate = DARK_ESTIMATORS[estimator]
        expected = estimate(darks)
        assert estimate(np.stack(darks)) == expected
        assert estimate(frame for frame in darks) == expected

    def test_reductions_match_stack_wide_numpy(self):
        """Each per-frame reduction agrees with its stack-wide numpy formula."""
        rng = np.random.default_rng(113)
        n, height, width = 6, 16, 12
        darks = rng.normal(0.7, 2.0, size=(n, 4, height, width))
        darks += rng.normal(0.0, 1.5, size=(n, 4, height, 1))  # row offsets
        assert estimate_bias_and_row_sigma(darks)[0] == pytest.approx(darks.mean(), rel=1e-12)

        rows = np.concatenate([darks[:, 0:2].mean((1, 3)), darks[:, 2:4].mean((1, 3))], axis=1)
        cols = np.concatenate([darks[:, 0::2].mean((1, 2)), darks[:, 1::2].mean((1, 2))], axis=1)
        v_row = np.var(rows, axis=1, ddof=1).mean()
        v_col = np.var(cols, axis=1, ddof=1).mean()
        sigma_r = np.sqrt(v_row - 2 * height * v_col / (2 * width))
        assert estimate_bias_and_row_sigma(darks)[1] == pytest.approx(sigma_r, rel=1e-12)

        low = rng.normal(10.0, 3.0, size=(n, 4, 8, 8))
        high = rng.normal(40.0, 4.0, size=(n, 4, 8, 8))
        v_low, v_high = np.var(low, ddof=1), np.var(high, ddof=1)
        slope = (v_high - v_low) / 30.0
        gain, sigma_total = estimate_gain_and_read([(10.0, low), (40.0, high)])
        assert gain == pytest.approx(slope, rel=1e-12)
        assert sigma_total == pytest.approx(np.sqrt(v_low - 10.0 * slope), rel=1e-12)

    def test_consistency_under_more_frames(self):
        """Median recovery error shrinks as the frame budget quadruples."""
        params = NoiseParams(K=1.2, sigma=1.5, mu_c=0.5, sigma_r=0.8)
        shape = (4, 32, 32)
        levels = (5.0, 20.0, 60.0, 160.0)
        budgets = (16, 64, 256)
        errors = {b: {"K": [], "sigma": [], "mu_c": [], "sigma_r": []} for b in budgets}
        rng = derive_stream(111, 0)
        for trial in range(20):
            for budget in budgets:
                series = make_flat_series(params, levels, budget // 4, shape, rng)
                darks = make_dark_frames(params, budget, shape, rng)
                est = estimate_params_oracle(series, darks)
                errors[budget]["K"].append(abs(est.K - params.K))
                errors[budget]["sigma"].append(abs(est.sigma - params.sigma))
                errors[budget]["mu_c"].append(abs(est.mu_c - params.mu_c))
                errors[budget]["sigma_r"].append(abs(est.sigma_r - params.sigma_r))
        for component in ("K", "sigma", "mu_c", "sigma_r"):
            medians = [float(np.median(errors[b][component])) for b in budgets]
            assert medians[0] > medians[1] > medians[2], (component, medians)
