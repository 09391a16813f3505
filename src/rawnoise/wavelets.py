"""Single-level orthonormal 2-D Haar transform on packed patches.

Noise signatures live in distinct frequency bands -- row banding shows up
in the vertical-difference planes, pixel-level noise in the diagonal ones
-- so the estimator front end decomposes each CFA channel into the four
Haar subbands before feature extraction.

Convention (rows vertical, columns horizontal), for a 2x2 block
``[[p, q], [r, s]]``:

    LL = (p + q + r + s) / 2
    LH = (p - q + r - s) / 2
    HL = (p + q - r - s) / 2
    HH = (p - q - r + s) / 2

The 16 output planes are stacked channel-major: plane ``4c + k`` is
subband ``k`` (LL, LH, HL, HH) of CFA channel ``c``.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .noise_core import NUM_CHANNELS, packed_shape


def _butterfly(a, b, c, d):
    """The 2x2 Haar matrix, which is its own inverse, applied to four like arrays."""
    return (a + b + c + d) / 2, (a - b + c - d) / 2, (a + b - c - d) / 2, (a - b - c + d) / 2


def haar_dwt2(patch: np.ndarray) -> np.ndarray:
    """Forward transform: ``(..., 4, H, W) -> (..., 16, H/2, W/2)``, H and W even."""
    patch = np.asarray(patch, dtype=np.float64)
    _, height, width = packed_shape(patch.shape[-3:])
    if height % 2 or width % 2:
        raise ShapeError(f"Haar transform needs even dims, got {height}x{width}")

    p, q, r, s = (patch[..., i::2, j::2] for i in (0, 1) for j in (0, 1))

    out = np.empty((*patch.shape[:-3], 4 * NUM_CHANNELS, height // 2, width // 2))
    for k, band in enumerate(_butterfly(p, q, r, s)):
        out[..., k::4, :, :] = band
    return out


def haar_idwt2(subbands: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`haar_dwt2`: ``(..., 16, h, w) -> (..., 4, 2h, 2w)``.

    The transform is orthonormal, so this is also its adjoint:
    ``<haar_dwt2(x), y> == <x, haar_idwt2(y)>``.
    """
    subbands = np.asarray(subbands, dtype=np.float64)
    if subbands.ndim < 3 or subbands.shape[-3] != 4 * NUM_CHANNELS:
        raise ShapeError(f"expected (..., 16, h, w) subbands, got {subbands.shape}")

    ll, lh, hl, hh = (subbands[..., k::4, :, :] for k in range(4))

    h, w = subbands.shape[-2:]
    patch = np.empty((*subbands.shape[:-3], NUM_CHANNELS, 2 * h, 2 * w), dtype=np.float64)
    (patch[..., 0::2, 0::2], patch[..., 0::2, 1::2],
     patch[..., 1::2, 0::2], patch[..., 1::2, 1::2]) = _butterfly(ll, lh, hl, hh)
    return patch
