"""Statistical noise-parameter estimation from controlled frame sets.

These estimators calibrate the noise components one at a time from flat
and dark frames, exactly the way a camera noise-model dataset is built:
the color bias is the dark-frame mean, the row component is isolated from
dark-frame row statistics, and the gain plus the total signal-independent
std come from photon-transfer regression of per-level variance against
signal level.  Those variances do not move with the bias, so no frame is
bias-subtracted.  No learning is involved, so the composed estimate
doubles as the ground-truth oracle for the learned estimator.

Each frame set (the dark frames, or the flats of one level) is a validated
list of float64 ``(4, H, W)`` frames of one shape, never a stack.  Every
statistic is reduced frame by frame, and the per-frame values are added in
sorted order, making every estimate bit-identical under any permutation of
frames (or of frames within a level).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .calibration import ols_line
from .errors import DomainError, InsufficientDataError, ShapeError
from .noise_core import NUM_CHANNELS, NoiseParams

logger = logging.getLogger(__name__)

# NoiseParams requires K > 0; a vanishing photon-transfer slope is reported
# as this floor instead of zero.
GAIN_FLOOR = 1e-12

MIN_PACKED_WIDTH = 8  # 16 physical columns


class _FrameSet(list):
    """A frame list that ``_frame_stack`` has validated."""


def _frame_stack(frames, what: str, at_least: int = 1) -> _FrameSet:
    """One frame set, any iterable of packed frames, as a validated list of float64 frames.

    This is the one place a frame set is gathered; an iterable is consumed
    once, and the frames of a float64 ``(n, 4, H, W)`` stack are its views.
    A list this function returned is handed back as it is, so a set is
    checked once however many estimators read it.  Raises
    InsufficientDataError below ``at_least`` frames, ShapeError for mixed
    or unpacked shapes, and DomainError for non-finite values.
    """
    if isinstance(frames, _FrameSet) and len(frames) >= at_least:
        return frames
    frames = _FrameSet(np.asarray(f, dtype=np.float64) for f in frames)
    shapes = {f.shape for f in frames}
    if len(shapes) > 1:
        raise ShapeError(f"{what} differ in shape: {sorted(shapes)}")
    if len(frames) < at_least:
        raise InsufficientDataError(f"need at least {at_least} {what}, got {len(frames)}")
    shape = frames[0].shape
    if len(shape) != 3 or shape[0] != NUM_CHANNELS or 0 in shape[1:]:
        raise ShapeError(f"{what} must be packed (4, H, W) frames, got {shape}")
    if not all(np.isfinite(f).all() for f in frames):
        raise DomainError(f"{what} contain non-finite values")
    return frames


def _sorted_sum(values) -> float:
    # Adding the per-frame values in sorted order makes the total, and so
    # every estimate, bit-identical under any permutation of the frames.
    return float(np.sort(values).sum())


def _set_mean(frames: list[np.ndarray]) -> float:
    return _sorted_sum([f.sum() for f in frames]) / (len(frames) * frames[0].size)


def _physical_row_means(frame: np.ndarray) -> np.ndarray:
    """Means of the 2H physical bayer rows of one packed frame."""
    upper = frame[0:2].mean(axis=(0, 2))  # bayer rows 2j: channels R, Gr
    lower = frame[2:4].mean(axis=(0, 2))  # bayer rows 2j+1: channels Gb, B
    return np.concatenate([upper, lower])


def _physical_col_means(frame: np.ndarray) -> np.ndarray:
    """Means of the 2W physical bayer columns of one packed frame."""
    even = frame[0::2].mean(axis=(0, 1))  # bayer cols 2i: channels R, Gb
    odd = frame[1::2].mean(axis=(0, 1))  # bayer cols 2i+1: channels Gr, B
    return np.concatenate([even, odd])


def estimate_gain_and_read(flat_series) -> tuple[float, float]:
    """Photon-transfer estimate of (K, total signal-independent std).

    Args:
        flat_series: iterable of ``(clean_level, frames)`` with at least two
            distinct levels and two frames per level; ``frames`` is any
            iterable of packed patches synthesized/captured flat at that
            level, or their stack.

    Per-level pooled pixel variance is regressed against level: the slope
    is the gain K and the intercept is ``sigma^2 + sigma_r^2``.  A negative
    intercept is floored at zero with a warning.  Each level is reduced as
    it is read.
    """
    levels, variances = [], []
    for level, frames in flat_series:
        flats = _frame_stack(frames, f"flats of level {level}", 2)
        mean = _set_mean(flats)
        squares = _sorted_sum([np.square(f - mean).sum() for f in flats])
        levels.append(float(level))
        variances.append(squares / (len(flats) * flats[0].size - 1))
    if np.unique(levels).size < 2:
        raise InsufficientDataError("photon transfer needs >= 2 distinct flat levels")

    slope, intercept, _ = ols_line(np.array(levels), np.array(variances))
    if intercept < 0:
        logger.warning("negative photon-transfer intercept %g floored at 0", intercept)
        intercept = 0.0
    return slope, math.sqrt(intercept)


def estimate_row_sigma(dark_frames) -> float:
    """Row-noise std from dark frames via row-mean variance.

    The variance of physical-row means is ``sigma_r^2 + sigma^2 / W`` for
    W pixels per physical row; the per-pixel term is removed using the
    within-frame variance of physical-column means, whose expectation is
    ``sigma^2 / H`` (the shared row offsets cancel out of the within-frame
    spread).  The corrected value is floored at zero before the root.
    """
    darks = _frame_stack(dark_frames, "dark frames")
    _, height, width = darks[0].shape
    if width < MIN_PACKED_WIDTH:
        raise DomainError(f"row noise needs packed width >= {MIN_PACKED_WIDTH}, got {width}")

    v_row = _sorted_sum([np.var(_physical_row_means(f), ddof=1) for f in darks]) / len(darks)
    v_col = _sorted_sum([np.var(_physical_col_means(f), ddof=1) for f in darks]) / len(darks)
    sigma_sq = 2 * height * v_col
    return math.sqrt(max(0.0, v_row - sigma_sq / (2 * width)))


def estimate_color_bias(dark_frames) -> float:
    """Global mean of all dark-frame pixels."""
    return _set_mean(_frame_stack(dark_frames, "dark frames"))


def estimate_params_oracle(flat_series, dark_frames) -> NoiseParams:
    """Compose the component estimators into a full parameter tuple.

    The bias is the dark-frame mean; every later statistic is a variance,
    which the bias does not shift, so no frame is bias-subtracted.  The read
    std is recovered from the photon-transfer intercept by removing the row
    variance.  The returned tuple always satisfies the parameter invariants
    (K floored at ``GAIN_FLOOR``, sigmas at zero).  Each frame set (the
    darks, the flats of a level) is any iterable of packed frames, or their
    stack, and is held only while it is reduced.
    """
    darks = _frame_stack(dark_frames, "dark frames")
    mu_c = estimate_color_bias(darks)
    sigma_r = estimate_row_sigma(darks)
    del darks  # a lazily read dark set is freed before the flats are read

    gain, sigma_total = estimate_gain_and_read(flat_series)
    sigma = math.sqrt(max(0.0, sigma_total**2 - sigma_r**2))

    return NoiseParams(K=max(gain, GAIN_FLOOR), sigma=sigma, mu_c=mu_c, sigma_r=sigma_r)
