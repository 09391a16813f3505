"""Triplet augmentation for contrastive training.

A triplet is built entirely synthetically: a parameter tuple drawn from a
random camera corrupts two different clean scenes (anchor and positive,
same parameters, independent noise and scenes), while a freshly drawn
tuple corrupts a third scene (negative).  Scenes are drawn independently
precisely so the representation cannot key on scene content.

A batch stores its patches at rest as one float32 ``(3, B, 4, H, W)``
stack in [anchor, positive, negative] order, like NRAW tensors on disk.
Training convolves them in float32 as they are; inference and evaluation
upcast them to float64 as the first convolution copies them into its
padded buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..calibration import sample_params
from ..errors import ConfigurationError, DomainError
from ..noise_core import NoiseParams, add_noise


@dataclass(frozen=True)
class Triplet:
    """One anchor/positive/negative element with its generating tuples."""

    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray
    anchor_params: NoiseParams
    negative_params: NoiseParams


@dataclass(frozen=True)
class TripletBatch:
    """``patches`` is the float32 (3, B, 4, H, W) stack; one tuple per anchor."""

    patches: np.ndarray
    anchor_params: tuple

    def __post_init__(self):
        if self.patches.shape[:2] != (3, len(self.anchor_params)):
            raise DomainError("triplet batch stacks must share one size")

    def __len__(self) -> int:
        return len(self.anchor_params)


def augment_triplet(scene_pool, camera_bank, rng: np.random.Generator) -> Triplet:
    """Draw one triplet; redraws the negative tuple on exact collision."""
    if not scene_pool:
        raise ConfigurationError("scene pool is empty")
    if not camera_bank:
        raise ConfigurationError("camera bank is empty")

    camera = camera_bank[rng.integers(len(camera_bank))]
    params = sample_params(camera, rng)

    anchor = add_noise(scene_pool[rng.integers(len(scene_pool))], params, rng)
    positive = add_noise(scene_pool[rng.integers(len(scene_pool))], params, rng)

    for _ in range(100):
        neg_camera = camera_bank[rng.integers(len(camera_bank))]
        neg_params = sample_params(neg_camera, rng)
        if neg_params != params:
            break
    else:
        # only reachable with a fully degenerate bank (single point mass)
        raise ConfigurationError("camera bank cannot produce a distinct negative tuple")
    negative = add_noise(scene_pool[rng.integers(len(scene_pool))], neg_params, rng)

    return Triplet(
        anchor=anchor,
        positive=positive,
        negative=negative,
        anchor_params=params,
        negative_params=neg_params,
    )
