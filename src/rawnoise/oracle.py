"""Statistical noise-parameter estimation from controlled frame sets.

These estimators calibrate the noise components one at a time from flat
and dark frames, exactly the way a camera noise-model dataset is built:
the color bias is measured first and subtracted, the row component is
isolated from dark-frame row statistics, and the gain plus the total
signal-independent std come from photon-transfer regression of per-level
variance against signal level.  No learning is involved, so the composed
estimate doubles as the ground-truth oracle for the learned estimator.

Each frame set (the dark frames, or the flats of one level) is one
validated float64 ``(n, 4, H, W)`` stack, so all its frames share one shape.
All reductions sort their inputs first, making every estimate bit-identical
under any permutation of frames (or of frames within a level).
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


def _frame_stack(frames, what: str, at_least: int = 1) -> np.ndarray:
    """One frame set, any iterable of packed frames or their stack, as a validated float64 stack.

    This is the one place a frame set is gathered; an iterable is consumed
    once.  A float64 ``(n, 4, H, W)`` array is returned as is.  Raises
    InsufficientDataError below ``at_least`` frames, ShapeError for mixed
    or unpacked shapes, and DomainError for non-finite values.
    """
    if not isinstance(frames, np.ndarray):
        frames = [np.asarray(f, dtype=np.float64) for f in frames]
        if len({f.shape for f in frames}) > 1:
            raise ShapeError(f"{what} differ in shape: {sorted({f.shape for f in frames})}")
        frames = np.stack(frames) if frames else np.empty(0)
    if len(frames) < at_least:
        raise InsufficientDataError(f"need at least {at_least} {what}, got {len(frames)}")
    stack = np.asarray(frames, dtype=np.float64)
    if stack.ndim != 4 or stack.shape[1] != NUM_CHANNELS or 0 in stack.shape[2:]:
        raise ShapeError(f"{what} must stack to (n, 4, H, W), got {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise DomainError(f"{what} contain non-finite values")
    return stack


def _stable_mean(values: np.ndarray) -> float:
    # Sorting canonicalizes the summation order for any input permutation.
    return float(np.sort(values, axis=None).sum() / values.size)


def _stable_var(values: np.ndarray, ddof: int = 1) -> float:
    flat = np.sort(values, axis=None)
    mean = flat.sum() / flat.size
    dev = np.sort((flat - mean) ** 2)
    return float(dev.sum() / (flat.size - ddof))


def _physical_row_means(stack: np.ndarray) -> np.ndarray:
    """Means of the 2H physical bayer rows of each frame, shaped ``(n, 2H)``."""
    upper = stack[:, 0:2].mean(axis=(1, 3))  # bayer rows 2j: channels R, Gr
    lower = stack[:, 2:4].mean(axis=(1, 3))  # bayer rows 2j+1: channels Gb, B
    return np.concatenate([upper, lower], axis=1)


def _physical_col_means(stack: np.ndarray) -> np.ndarray:
    """Means of the 2W physical bayer columns of each frame, shaped ``(n, 2W)``."""
    even = stack[:, 0::2].mean(axis=(1, 2))  # bayer cols 2i: channels R, Gb
    odd = stack[:, 1::2].mean(axis=(1, 2))  # bayer cols 2i+1: channels Gr, B
    return np.concatenate([even, odd], axis=1)


def estimate_gain_and_read(flat_series) -> tuple[float, float]:
    """Photon-transfer estimate of (K, total signal-independent std).

    Args:
        flat_series: iterable of ``(clean_level, frames)`` with at least two
            distinct levels and two frames per level; ``frames`` is any
            iterable of packed patches synthesized/captured flat at that
            level, or their stack.

    Per-level pooled pixel variance is regressed against level: the slope
    is the gain K and the intercept is ``sigma^2 + sigma_r^2``.  A negative
    intercept is floored at zero with a warning.
    """
    series = [(float(lv), _frame_stack(fr, f"flats of level {lv}", 2)) for lv, fr in flat_series]
    levels = np.array([level for level, _ in series], dtype=np.float64)
    if np.unique(levels).size < 2:
        raise InsufficientDataError("photon transfer needs >= 2 distinct flat levels")

    variances = np.array([_stable_var(stack) for _, stack in series], dtype=np.float64)
    slope, intercept, _ = ols_line(levels, variances)
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
    _, _, height, width = darks.shape
    if width < MIN_PACKED_WIDTH:
        raise DomainError(f"row noise needs packed width >= {MIN_PACKED_WIDTH}, got {width}")

    v_row = _stable_mean(np.var(_physical_row_means(darks), axis=1, ddof=1))
    v_col = _stable_mean(np.var(_physical_col_means(darks), axis=1, ddof=1))
    sigma_sq = 2 * height * v_col
    return math.sqrt(max(0.0, v_row - sigma_sq / (2 * width)))


def estimate_color_bias(dark_frames) -> float:
    """Global mean of all dark-frame pixels."""
    return _stable_mean(_frame_stack(dark_frames, "dark frames"))


def estimate_params_oracle(flat_series, dark_frames) -> NoiseParams:
    """Compose the component estimators into a full parameter tuple.

    The bias is estimated first and subtracted from every frame before the
    remaining components are measured; the read std is recovered from the
    photon-transfer intercept by removing the row variance.  The returned
    tuple always satisfies the parameter invariants (K floored at
    ``GAIN_FLOOR``, sigmas at zero).  Each frame set (the darks, the flats
    of a level) is any iterable of packed frames, or their stack.
    """
    darks = _frame_stack(dark_frames, "dark frames")
    mu_c = estimate_color_bias(darks)
    sigma_r = estimate_row_sigma(darks - mu_c)

    flats = [(lv, _frame_stack(fr, f"flats of level {lv}") - mu_c) for lv, fr in flat_series]
    gain, sigma_total = estimate_gain_and_read(flats)
    sigma = math.sqrt(max(0.0, sigma_total**2 - sigma_r**2))

    return NoiseParams(K=max(gain, GAIN_FLOOR), sigma=sigma, mu_c=mu_c, sigma_r=sigma_r)
