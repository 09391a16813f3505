"""Fine-grained raw-sensor noise model: parameters, patches, and samplers.

The per-image noise of a bayer raw capture is modeled as the sum of three
physical components on top of the clean signal ``C`` (all in digital
numbers, DN):

* shot noise -- Poisson photon statistics, scaled by the overall gain ``K``;
* row noise -- one Gaussian offset per physical readout row, shared by all
  pixels of that row (horizontal banding);
* read noise -- i.i.d. Gaussian with a non-zero mean ``mu_c`` (color bias).

Patches are planar 4-channel RGGB-packed arrays shaped ``(4, H, W)`` in
channel order (R, Gr, Gb, B); packed row ``j`` of channels (R, Gr) comes
from physical bayer row ``2j`` and packed row ``j`` of (Gb, B) from row
``2j + 1``.  All arithmetic is 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .records import Record

NUM_CHANNELS = 4


@dataclass(frozen=True)
class NoiseParams(Record, error=DomainError, ignore_unknown=True):
    """The four-tuple governing one image's noise distribution.

    Attributes:
        K: overall system gain, DN per electron (> 0).
        sigma: read-noise standard deviation, DN (>= 0).
        mu_c: read-noise color bias (mean offset), DN (any sign).
        sigma_r: row-noise standard deviation, DN (>= 0).
    """

    K: float
    sigma: float
    mu_c: float
    sigma_r: float

    def __post_init__(self):
        if not (self.K > 0 and math.isfinite(self.K)):
            raise DomainError(f"K must be a positive finite scalar, got {self.K}")
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise DomainError(f"sigma must be non-negative, got {self.sigma}")
        if not (self.sigma_r >= 0 and math.isfinite(self.sigma_r)):
            raise DomainError(f"sigma_r must be non-negative, got {self.sigma_r}")
        if not math.isfinite(self.mu_c):
            raise DomainError(f"mu_c must be finite, got {self.mu_c}")


@dataclass(frozen=True)
class NoiseSample:
    """Decomposed noise realization; ``total`` is ``shot + row + read``."""

    shot: np.ndarray
    row: np.ndarray
    read: np.ndarray
    total: np.ndarray


def as_patch(data) -> np.ndarray:
    """Validate and return a float64 4-channel packed patch.

    Raises ShapeError for anything that is not ``(4, H, W)`` with
    ``H, W >= 1``, and DomainError for non-finite values.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != NUM_CHANNELS:
        raise ShapeError(f"patch must be shaped (4, H, W), got {arr.shape}")
    if arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ShapeError(f"patch spatial dims must be >= 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("patch contains non-finite values")
    return arr


def _check_patch_shape(shape) -> tuple[int, int, int]:
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or shape[0] != NUM_CHANNELS or shape[1] < 1 or shape[2] < 1:
        raise ShapeError(f"expected a packed patch shape (4, H, W), got {shape}")
    return shape


def sample_shot(clean: np.ndarray, K: float, rng: np.random.Generator) -> np.ndarray:
    """Shot-noise term ``K * N_s`` for a clean signal.

    The digital signal is reversed to expected photon counts ``clean / K``,
    a Poisson count is drawn per pixel, and the result is scaled back, so
    ``clean + sample_shot(...)`` has mean ``clean`` and variance
    ``K * clean`` per pixel.  Real-valued rates are permitted; rates of
    zero produce exactly zero noise.  A rate beyond the Poisson sampler's
    range raises DomainError.
    """
    clean = np.asarray(clean, dtype=np.float64)
    if not (K > 0 and math.isfinite(K)):
        raise DomainError(f"K must be positive, got {K}")
    if np.any(clean < 0):
        raise DomainError("clean signal must be non-negative for shot sampling")
    try:
        counts = rng.poisson(clean / K)
    except ValueError as exc:
        raise DomainError(f"shot-noise rate clean / K is out of range (K={K}): {exc}") from exc
    shot = counts.astype(np.float64)
    shot *= K
    shot -= clean
    return shot


def sample_read(shape, mu_c: float, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Gaussian read noise with mean ``mu_c`` and std ``sigma``."""
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise DomainError(f"sigma must be non-negative, got {sigma}")
    if not math.isfinite(mu_c):
        raise DomainError(f"mu_c must be finite, got {mu_c}")
    return rng.normal(loc=mu_c, scale=sigma, size=tuple(shape))


def sample_row(shape, sigma_r: float, rng: np.random.Generator) -> np.ndarray:
    """Row noise: one Gaussian offset per physical bayer row.

    For a packed ``(4, H, W)`` patch there are ``2H`` physical rows; the
    offset of bayer row ``2j`` fills packed row ``j`` of channels (R, Gr)
    and the offset of row ``2j + 1`` fills packed row ``j`` of (Gb, B).
    Offsets are drawn in physical row order.
    """
    _, height, width = _check_patch_shape(shape)
    if not (sigma_r >= 0 and math.isfinite(sigma_r)):
        raise DomainError(f"sigma_r must be non-negative, got {sigma_r}")
    offsets = rng.normal(loc=0.0, scale=sigma_r, size=2 * height)
    out = np.empty((NUM_CHANNELS, height, width), dtype=np.float64)
    even = offsets[0::2][:, None]
    odd = offsets[1::2][:, None]
    out[0] = even
    out[1] = even
    out[2] = odd
    out[3] = odd
    return out


def synthesize_noise(
    clean: np.ndarray, params: NoiseParams, rng: np.random.Generator
) -> tuple[np.ndarray, NoiseSample]:
    """Compose the full noise model on a clean patch.

    Draw order is fixed (shot, row, read) so a given stream state always
    yields the same realization.  ``noisy`` is ``clean + parts.total`` with
    ``parts.total = shot + row + read`` evaluated in that order; the output
    is left unclamped and unquantized so downstream statistics stay pure.
    """
    clean = as_patch(clean)
    shot = sample_shot(clean, params.K, rng)
    row = sample_row(clean.shape, params.sigma_r, rng)
    read = sample_read(clean.shape, params.mu_c, params.sigma, rng)
    total = shot + row + read
    noisy = clean + total
    return noisy, NoiseSample(shot=shot, row=row, read=read, total=total)


def add_noise(clean: np.ndarray, params: NoiseParams, rng: np.random.Generator) -> np.ndarray:
    """The noisy patch of :func:`synthesize_noise`, bit for bit, without its parts.

    The same draws leave ``rng`` in the same state; the parts are summed in
    place into the shot array in the same order, and ``clean`` is added
    last, which is the same IEEE sum because addition commutes.
    """
    clean = as_patch(clean)
    noisy = sample_shot(clean, params.K, rng)
    noisy += sample_row(clean.shape, params.sigma_r, rng)
    noisy += sample_read(clean.shape, params.mu_c, params.sigma, rng)
    noisy += clean
    return noisy
