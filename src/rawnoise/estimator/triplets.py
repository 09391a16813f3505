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
padded buffer.  The stack is allocated first, and each triplet is drawn
straight into its slice ``patches[:, i]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..calibration import sample_params
from ..errors import ConfigurationError, DomainError
from ..noise_core import NoiseParams, add_noise


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


def draw_params(camera_bank, rng: np.random.Generator) -> NoiseParams:
    """Draw a random bank camera, then a tuple from it: the first draws of every triplet."""
    return sample_params(camera_bank[rng.integers(len(camera_bank))], rng)


def augment_triplet(scene_pool, camera_bank, rng: np.random.Generator, out) -> NoiseParams:
    """Draw one triplet into its (3, 4, H, W) stack slice ``out``; return the anchor tuple.

    The negative tuple is redrawn on exact collision.  A patch that is not
    finite once stored (a float32 ``out`` overflows past about 3.4e38) is
    refused with DomainError, as an NRAW writer refuses it.
    """
    params = draw_params(camera_bank, rng)
    with np.errstate(over="ignore"):  # an overflowing cast is refused below
        out[0] = add_noise(scene_pool[rng.integers(len(scene_pool))], params, rng)
        out[1] = add_noise(scene_pool[rng.integers(len(scene_pool))], params, rng)
        for _ in range(100):
            neg_params = draw_params(camera_bank, rng)
            if neg_params != params:
                break
        else:
            # only reachable with a fully degenerate bank (single point mass)
            raise ConfigurationError("camera bank cannot produce a distinct negative tuple")
        out[2] = add_noise(scene_pool[rng.integers(len(scene_pool))], neg_params, rng)
    if not np.isfinite(out).all():
        raise DomainError(f"triplet patch holds a value that is not finite as {out.dtype}")
    return params
