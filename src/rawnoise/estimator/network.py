"""The estimator network: Haar front end, conv extractor, projector, head.

The front end is a single-level Haar transform per channel, scaled by
``config.input_scale`` and then by a fixed per-plane gain, ``BAND_GAIN``.
The three detail planes, where noise is measured, get ``DETAIL_GAIN``; the
LL plane keeps unit gain because it carries the signal level the head
needs (shot variance is K times the clean level).  With unit gain on every
plane, LL sits one to two orders of magnitude above the detail planes,
every projection collapses onto the scene level, and the contrastive
stage stays at chance.

Everything is plain numpy with hand-written backward passes, so gradients
are exact analytic quantities that can be checked against finite
differences.  Training is bit-reproducible on the same machine with the
same numpy and BLAS build; a BLAS that picks its kernels per CPU (such as
OpenBLAS built with DYNAMIC_ARCH) may round differently elsewhere.

Convolutions are lowered to GEMM by im2col.  The input is copied once into
a zero-bordered buffer, and one copy from a sliding-window view of it
builds the column matrix, laid out ``(N, c*k*k, oh*ow)`` with rows ordered
(channel, kernel row, kernel column); the forward pass is one GEMM per
sample with the bias added in place.  In the backward pass, the weight
gradient is one GEMM per sample, summed in sample order, and col2im adds
the k*k column planes into each input pixel in (row, column) order,
starting from zero.  The first convolution's input gradient reaches no
parameter, so it is never computed.  The Haar front end upcasts float32
patches to float64 inside its first add.

Parameters live in a flat ``{name: float64 array}`` dict with names like
``extractor.0.weight`` / ``projector.1.bias``; convolutions store weights
as ``(out, in, k, k)`` and linear layers as ``(out, in)``.  Initialization
is fan-in-scaled uniform, ``U(-1/sqrt(fan_in), +1/sqrt(fan_in))``, drawn
in a fixed layer order from a stream derived from the config seed; biases
start at zero.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from ..noise_core import NUM_CHANNELS
from ..streams import derive_stream
from ..wavelets import haar_dwt2
from .config import EstimatorConfig

HAAR_PLANES = 4 * NUM_CHANNELS

# Per-plane gain after the Haar transform, in haar_dwt2's plane order
# (per channel: LL, then the three detail planes).
DETAIL_GAIN = 16.0
BAND_GAIN = np.tile([1.0, DETAIL_GAIN, DETAIL_GAIN, DETAIL_GAIN], NUM_CHANNELS)

# Spawn indices for streams derived from the config seed.
INIT_STREAM = 0
DATA_STREAM = 1
SHUFFLE_STREAM = 2


def parameter_shapes(config: EstimatorConfig) -> dict[str, tuple[int, ...]]:
    """Expected shape of every named parameter tensor, from config alone."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = HAAR_PLANES
    for i, stage in enumerate(config.extractor):
        shapes[f"extractor.{i}.weight"] = (stage.width, in_ch, stage.kernel, stage.kernel)
        shapes[f"extractor.{i}.bias"] = (stage.width,)
        in_ch = stage.width
    for prefix, widths in (("projector", config.projector), ("head", config.head)):
        fan_in = config.feature_dim
        for i, width in enumerate(widths):
            shapes[f"{prefix}.{i}.weight"] = (width, fan_in)
            shapes[f"{prefix}.{i}.bias"] = (width,)
            fan_in = width
    return shapes


def _conv_forward(x, weight, bias, stride):
    n, c, h, w = x.shape
    out_ch, _, k, _ = weight.shape
    pad = k // 2
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    windows = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    # (n, c, oh, ow, k, k) windows; reshaping the transposed view is the one copy.
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, oh * ow)
    y = np.matmul(weight.reshape(out_ch, -1), cols)
    y += bias[:, None]
    return y.reshape(n, out_ch, oh, ow), (x.shape, cols, oh, ow)


def _weight_grad(dy2, cols):
    """``sum_s dy2[s] @ cols[s].T``: one GEMM per sample, summed in sample order."""
    cols_t = cols.transpose(0, 2, 1)
    total = np.matmul(dy2[0], cols_t[0])
    term = np.empty_like(total)
    for s in range(1, dy2.shape[0]):
        np.matmul(dy2[s], cols_t[s], out=term)
        total += term
    return total


def _conv_backward(dy, weight, stride, cache, want_dx=True):
    """Gradients ``(dx, d_weight, d_bias)``; ``dx`` is None unless ``want_dx``."""
    x_shape, cols, oh, ow = cache
    n, c, h, w = x_shape
    out_ch, _, k, _ = weight.shape
    pad = k // 2
    dy2 = dy.reshape(n, out_ch, oh * ow)
    d_weight = _weight_grad(dy2, cols).reshape(weight.shape)
    d_bias = dy2.sum(axis=(0, 2))
    if not want_dx:
        return None, d_weight, d_bias
    dcols = np.matmul(weight.reshape(out_ch, -1).T, dy2).reshape(n, c, k, k, oh, ow)
    # col2im with (n, c) innermost, so each of the k*k adds runs over long
    # contiguous rows; every pixel still sums its terms in (i, j) order from 0.
    terms = np.ascontiguousarray(dcols.transpose(2, 3, 4, 5, 0, 1))
    dxp = np.zeros((h + 2 * pad, w + 2 * pad, n, c))
    for i in range(k):
        for j in range(k):
            dxp[i : i + stride * oh : stride, j : j + stride * ow : stride] += terms[i, j]
    dx = np.ascontiguousarray(dxp[pad : pad + h, pad : pad + w].transpose(2, 3, 0, 1))
    return dx, d_weight, d_bias


def _pool_forward(a):
    """Global mean+std pooling per channel: (N, C, h, w) -> (N, 2C)."""
    n, c = a.shape[:2]
    m = a.shape[2] * a.shape[3]
    flat = a.reshape(n, c, m)
    mean = flat.mean(axis=2)
    centered = flat - mean[:, :, None]
    std = np.sqrt((centered**2).mean(axis=2))
    return np.concatenate([mean, std], axis=1), (centered, std, a.shape)


def _pool_backward(dh, cache):
    centered, std, shape = cache
    c = shape[1]
    m = shape[2] * shape[3]
    d_mean = dh[:, :c]
    d_std = dh[:, c:]
    # d std / d a_i = centered_i / (m * std); zero subgradient at std == 0.
    safe = np.where(std > 0.0, std, 1.0)
    coeff = np.where(std > 0.0, d_std / (m * safe), 0.0)
    dflat = d_mean[:, :, None] / m + coeff[:, :, None] * centered
    return dflat.reshape(shape)


def _nonlin_forward(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0), z
    out = np.tanh(z)
    return out, out


def _nonlin_backward(da, kind, cache):
    if kind == "relu":
        return da * (cache > 0.0)
    return da * (1.0 - cache**2)


class EstimatorNetwork:
    """Feature extractor + projector + regression head over Haar subbands."""

    def __init__(self, config: EstimatorConfig, params: dict[str, np.ndarray]):
        """``params`` must match ``parameter_shapes(config)``, as a checkpoint's do."""
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: EstimatorConfig) -> "EstimatorNetwork":
        rng = derive_stream(config.seed, INIT_STREAM)
        params: dict[str, np.ndarray] = {}
        for name, shape in parameter_shapes(config).items():
            if name.endswith(".bias"):
                params[name] = np.zeros(shape, dtype=np.float64)
            else:
                fan_in = int(np.prod(shape[1:]))
                limit = 1.0 / np.sqrt(fan_in)
                params[name] = rng.uniform(-limit, limit, size=shape)
        return cls(config, params)

    def _check_input(self, patches: np.ndarray) -> np.ndarray:
        patches = np.asarray(patches)
        expected = (NUM_CHANNELS, self.config.patch_height, self.config.patch_width)
        if patches.ndim != 4 or patches.shape[1:] != expected:
            raise ShapeError(
                f"expected a batch shaped (N, {expected[0]}, {expected[1]}, {expected[2]}), "
                f"got {patches.shape}"
            )
        return patches

    def forward_batch(self, patches: np.ndarray, want_cache: bool = False):
        """Run the full network on a stack of patches.

        Returns ``(h, z, r, cache)`` where ``h`` is the pooled feature,
        ``z`` the projection, and ``r`` the head output in transformed
        parameter space; ``cache`` is None unless requested.
        """
        patches = self._check_input(patches)
        x = haar_dwt2(patches)
        x *= self.config.input_scale * BAND_GAIN[:, None, None]

        conv_caches = []
        for i, stage in enumerate(self.config.extractor):
            y, conv_cache = _conv_forward(
                x, self.params[f"extractor.{i}.weight"], self.params[f"extractor.{i}.bias"],
                stage.stride,
            )
            x, nl_cache = _nonlin_forward(y, stage.nonlinearity)
            conv_caches.append((conv_cache, nl_cache))

        h, pool_cache = _pool_forward(x)
        z, proj_caches = self._mlp_forward("projector", self.config.projector, h)
        r, head_caches = self._mlp_forward("head", self.config.head, h)

        cache = (conv_caches, pool_cache, proj_caches, head_caches, h) if want_cache else None
        return h, z, r, cache

    def _mlp_forward(self, prefix, widths, x):
        caches = []
        a = x
        for i in range(len(widths)):
            z = a @ self.params[f"{prefix}.{i}.weight"].T + self.params[f"{prefix}.{i}.bias"]
            caches.append(a)
            a = np.maximum(z, 0.0) if i < len(widths) - 1 else z
            if i < len(widths) - 1:
                caches.append(z)
        return a, caches

    def _mlp_backward(self, prefix, widths, caches, dout, grads):
        da = dout
        for i in reversed(range(len(widths))):
            if i < len(widths) - 1:
                da = da * (caches[2 * i + 1] > 0.0)
            a_in = caches[2 * i]
            grads[f"{prefix}.{i}.weight"] += da.T @ a_in
            grads[f"{prefix}.{i}.bias"] += da.sum(axis=0)
            da = da @ self.params[f"{prefix}.{i}.weight"]
        return da

    def backward_batch(self, cache, dz=None, dr=None) -> dict[str, np.ndarray]:
        """Analytic gradients for upstream gradients on z and/or r.

        Returns a dict covering every parameter (zeros where no gradient
        flows).  Pass ``dz``/``dr`` of shape (N, dim) or None to skip a
        path entirely.
        """
        conv_caches, pool_cache, proj_caches, head_caches, h = cache
        grads = {name: np.zeros_like(value) for name, value in self.params.items()}

        dh = np.zeros_like(h)
        if dz is not None:
            dh += self._mlp_backward("projector", self.config.projector, proj_caches, dz, grads)
        if dr is not None:
            dh += self._mlp_backward("head", self.config.head, head_caches, dr, grads)

        dx = _pool_backward(dh, pool_cache)
        for i in reversed(range(len(self.config.extractor))):
            stage = self.config.extractor[i]
            conv_cache, nl_cache = conv_caches[i]
            dy = _nonlin_backward(dx, stage.nonlinearity, nl_cache)
            # The input gradient of the first convolution reaches no parameter.
            dx, d_weight, d_bias = _conv_backward(
                dy, self.params[f"extractor.{i}.weight"], stage.stride, conv_cache, i > 0
            )
            grads[f"extractor.{i}.weight"] += d_weight
            grads[f"extractor.{i}.bias"] += d_bias
        return grads
