"""Statistical noise-parameter estimation from controlled frame sets.

These estimators calibrate the noise components one at a time from flat
and dark frames, exactly the way a camera noise-model dataset is built:
the color bias is the dark-frame mean, the row component is isolated from
dark-frame row statistics, and the gain plus the total signal-independent
std come from photon-transfer regression of per-level variance against
signal level.  Those variances do not move with the bias, so no frame is
bias-subtracted.  No learning is involved, so the composed estimate
doubles as the ground-truth oracle for the learned estimator.

A frame set (the dark frames, or the flats of one level) is any iterable
of float64 ``(4, H, W)`` frames of one shape, or their stack; the packed
layout, its shape rule and its physical row and column means are
``noise_core``'s, and this module keeps only the statistics.  Every set
is read, checked and reduced one frame at a time, in one pass: each frame
gives a few per-frame values (its sum, and its row and column variances
or its within-frame sum of squares) and is dropped once the next has been
read, so memory does not grow with the number of frames.  The per-frame
values are added in sorted order, making every estimate bit-identical
under any permutation of frames (or of frames within a level).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator

import numpy as np

from .calibration import ols_line
from .errors import DomainError, InsufficientDataError, ShapeError
from .noise_core import NoiseParams, packed_shape, physical_col_means, physical_row_means

logger = logging.getLogger(__name__)

# NoiseParams requires K > 0; a vanishing photon-transfer slope is reported
# as this floor instead of zero.
GAIN_FLOOR = 1e-12

MIN_PACKED_WIDTH = 8  # 16 physical columns


def _checked_frames(frames, what: str) -> Iterator[np.ndarray]:
    """Each frame of a set as float64, checked before the next one is read.

    The frames of a float64 ``(n, 4, H, W)`` stack are its views.  Raises
    ShapeError for an unpacked first frame or a frame shaped unlike the
    first, and DomainError for non-finite values, at the first bad frame.
    """
    shape = None
    for index, frame in enumerate(frames):
        frame = np.asarray(frame, dtype=np.float64)
        if shape is None:
            shape = packed_shape(frame.shape, what)
        elif frame.shape != shape:
            raise ShapeError(
                f"{what} differ in shape: frame {index} is {frame.shape}, frame 0 is {shape}"
            )
        if not np.isfinite(frame).all():
            raise DomainError(f"{what} contain non-finite values")
        yield frame


def _sorted_sum(values) -> float:
    # Adding the per-frame values in sorted order makes the total, and so
    # every estimate, bit-identical under any permutation of the frames.
    return float(np.sort(values).sum())


def estimate_gain_and_read(flat_series) -> tuple[float, float]:
    """Photon-transfer estimate of (K, total signal-independent std).

    Args:
        flat_series: iterable of ``(clean_level, frames)`` with at least two
            distinct levels and two frames per level; ``frames`` is any
            iterable of packed patches synthesized/captured flat at that
            level, or their stack.

    Per-level pooled pixel variance is regressed against level: the slope
    is the gain K and the intercept is ``sigma^2 + sigma_r^2``.  A negative
    intercept is floored at zero with a warning.  Each frame of a level is
    reduced to its sum and its sum of squared deviations from its own mean,
    and is dropped once the next has been read; the level variance adds
    each frame's offset from the level mean to those sums.
    """
    levels, variances = [], []
    for level, frames in flat_series:
        what = f"flats of level {level}"
        sums, squares = [], []
        for frame in _checked_frames(frames, what):
            sums.append(frame.sum())
            deviations = frame - sums[-1] / frame.size
            deviations *= deviations  # in place: one frame-sized temporary, not two
            squares.append(deviations.sum())
        if len(sums) < 2:
            raise InsufficientDataError(f"need at least 2 {what}, got {len(sums)}")
        # Deviations from the level mean are the within-frame ones plus each
        # frame's mean offset, which counts once per pixel.
        size, count = frame.size, len(sums) * frame.size
        mean = _sorted_sum(sums) / count
        offsets = _sorted_sum([size * (s / size - mean) ** 2 for s in sums])
        levels.append(float(level))
        variances.append((_sorted_sum(squares) + offsets) / (count - 1))
    if np.unique(levels).size < 2:
        raise InsufficientDataError("photon transfer needs >= 2 distinct flat levels")

    slope, intercept, _ = ols_line(np.array(levels), np.array(variances))
    if intercept < 0:
        logger.warning("negative photon-transfer intercept %g floored at 0", intercept)
        intercept = 0.0
    return slope, math.sqrt(intercept)


def _dark_statistics(dark_frames) -> tuple[float, float]:
    """The color bias and the row-noise std ``(mu_c, sigma_r)`` of a dark set, in one pass.

    Each frame is read, checked and reduced to its sum and the ``ddof=1``
    variances of its physical-row and physical-column means, and is dropped
    once the next has been read, so memory does not grow with the number
    of frames.  A first frame narrower than ``MIN_PACKED_WIDTH`` is refused
    with DomainError before the next is read.
    """
    sums, row_variances, col_variances = [], [], []
    for frame in _checked_frames(dark_frames, "dark frames"):
        if not sums:
            size, (_, height, width) = frame.size, frame.shape
            if width < MIN_PACKED_WIDTH:
                raise DomainError(
                    f"row noise needs packed width >= {MIN_PACKED_WIDTH}, got {width}"
                )
        sums.append(frame.sum())
        row_variances.append(np.var(physical_row_means(frame), ddof=1))
        col_variances.append(np.var(physical_col_means(frame), ddof=1))
    if not sums:
        raise InsufficientDataError("need at least 1 dark frames, got 0")

    count = len(sums)
    v_row = _sorted_sum(row_variances) / count
    v_col = _sorted_sum(col_variances) / count
    sigma_sq = 2 * height * v_col
    sigma_r = math.sqrt(max(0.0, v_row - sigma_sq / (2 * width)))
    return _sorted_sum(sums) / (count * size), sigma_r


def estimate_row_sigma(dark_frames) -> float:
    """Row-noise std from dark frames via row-mean variance.

    The variance of physical-row means is ``sigma_r^2 + sigma^2 / W`` for
    W pixels per physical row; the per-pixel term is removed using the
    within-frame variance of physical-column means, whose expectation is
    ``sigma^2 / H`` (the shared row offsets cancel out of the within-frame
    spread).  The corrected value is floored at zero before the root.
    """
    return _dark_statistics(dark_frames)[1]


def estimate_color_bias(dark_frames) -> float:
    """Global mean of all dark-frame pixels."""
    return _dark_statistics(dark_frames)[0]


def estimate_params_oracle(flat_series, dark_frames) -> NoiseParams:
    """Compose the component estimators into a full parameter tuple.

    The bias is the dark-frame mean; every later statistic is a variance,
    which the bias does not shift, so no frame is bias-subtracted.  The read
    std is recovered from the photon-transfer intercept by removing the row
    variance.  The returned tuple always satisfies the parameter invariants
    (K floored at ``GAIN_FLOOR``, sigmas at zero).  The darks, and the
    flats of each level, are any iterable of packed frames, or their stack,
    and each set is reduced in one pass that holds one frame at a time.
    """
    mu_c, sigma_r = _dark_statistics(dark_frames)
    gain, sigma_total = estimate_gain_and_read(flat_series)
    sigma = math.sqrt(max(0.0, sigma_total**2 - sigma_r**2))

    return NoiseParams(K=max(gain, GAIN_FLOOR), sigma=sigma, mu_c=mu_c, sigma_r=sigma_r)
