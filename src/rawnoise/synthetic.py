"""Procedural clean scenes and virtual cameras for training, tests, demos.

The estimator trains on synthetic noisy images, so no photographs are
needed anywhere: clean patches are generated procedurally (flat fields,
linear gradients, random rectangles, smoothed random fields) and noise
parameters come from configurable virtual camera models.

The virtual-camera spans below are plausible configuration data for raw
sensors in DN units; nothing downstream treats them as ground truth --
round-trip tests always compare against the concrete generating values.
"""

from __future__ import annotations

import numpy as np

from .calibration import CameraModel
from .errors import ConfigurationError
from .noise_core import NUM_CHANNELS

DEFAULT_WHITE_LEVEL = 1023.0

SCENE_KINDS = ("flat", "gradient", "rectangles", "smooth")


def make_scene(
    rng: np.random.Generator,
    height: int = 64,
    width: int = 64,
    white_level: float = DEFAULT_WHITE_LEVEL,
    kind: str | None = None,
) -> np.ndarray:
    """One clean packed patch with values in [0, white_level].

    About a third of random scenes keep a true-black floor (exposure low
    endpoint at 0), which keeps the dark-frame signature of the color bias
    represented in training data.
    """
    if kind is None:
        kind = SCENE_KINDS[rng.integers(len(SCENE_KINDS))]
    if kind not in SCENE_KINDS:
        raise ConfigurationError(f"unknown scene kind {kind!r}; expected one of {SCENE_KINDS}")

    shape = (NUM_CHANNELS, height, width)
    if kind == "flat":
        base = np.full(shape, 0.5)
    elif kind == "gradient":
        yy = np.linspace(0.0, 1.0, height)[None, :, None]
        xx = np.linspace(0.0, 1.0, width)[None, None, :]
        wy, wx = rng.uniform(-1.0, 1.0, size=2)
        base = np.broadcast_to(wy * yy + wx * xx, shape).copy()
    elif kind == "rectangles":
        base = np.full(shape, rng.uniform(0.0, 1.0))
        for _ in range(int(rng.integers(2, 7))):
            y0, y1 = np.sort(rng.integers(0, height + 1, size=2))
            x0, x1 = np.sort(rng.integers(0, width + 1, size=2))
            base[:, y0:y1, x0:x1] = rng.uniform(0.0, 1.0)
    else:  # smooth random field; binomial blur kills pixel-scale texture
        base = rng.uniform(0.0, 1.0, size=shape)
        spare = np.empty(shape)
        for _ in range(4):
            for axis in (1, 2):
                _blur(base, spare, axis)
                base, spare = spare, base

    # Per-channel gains mimic white balance without changing structure.
    gains = rng.uniform(0.6, 1.0, size=(NUM_CHANNELS, 1, 1))
    base *= gains

    lo_frac = 0.0 if rng.uniform() < 1.0 / 3.0 else rng.uniform(0.0, 0.3)
    hi_frac = rng.uniform(lo_frac + 0.1, 1.0)
    low = base.min()
    span = base.max() - low
    if span == 0.0:
        base.fill((lo_frac + hi_frac) / 2.0)
    else:
        base -= low
        base /= span
        base *= hi_frac - lo_frac
        base += lo_frac
    base *= white_level
    return base


def _blur(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """``dst = (2 src + roll(src, 1) + roll(src, -1)) / 4`` along ``axis``, summed in that order.

    The rolls are slice adds, so no shifted copy of ``src`` is made.
    """
    src, dst = np.swapaxes(src, 0, axis), np.swapaxes(dst, 0, axis)
    np.multiply(src, 2.0, out=dst)
    dst[1:] += src[:-1]
    dst[:1] += src[-1:]
    dst[:-1] += src[1:]
    dst[-1:] += src[:1]
    dst /= 4.0


def make_scene_pool(
    rng: np.random.Generator,
    count: int,
    height: int = 64,
    width: int = 64,
    white_level: float = DEFAULT_WHITE_LEVEL,
) -> list[np.ndarray]:
    """A pool of clean patches cycling through all scene kinds."""
    if count < 1:
        raise ConfigurationError(f"scene pool size must be >= 1, got {count}")
    return [
        make_scene(rng, height, width, white_level, kind=SCENE_KINDS[i % len(SCENE_KINDS)])
        for i in range(count)
    ]


def default_camera_bank() -> list[CameraModel]:
    """Three well-separated virtual cameras spanning K in [0.08, 8] DN/e-.

    Low/mid/high gain regimes with distinct noise-level lines and color
    biases; residual spreads are wide enough that tuples sharing a gain
    still differ measurably.
    """
    return [
        CameraModel(
            a=0.60, b=0.74, a_r=0.55, b_r=-0.17,
            sigma_hat=0.22, sigma_r_hat=0.28,
            K_min=0.08, K_max=0.50, mu_c_model=-0.6,
        ),
        CameraModel(
            a=0.75, b=0.79, a_r=0.70, b_r=0.00,
            sigma_hat=0.22, sigma_r_hat=0.28,
            K_min=0.40, K_max=2.50, mu_c_model=0.0,
        ),
        CameraModel(
            a=0.90, b=0.70, a_r=0.85, b_r=0.00,
            sigma_hat=0.22, sigma_r_hat=0.28,
            K_min=2.00, K_max=8.00, mu_c_model=0.8,
        ),
    ]
