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

The Haar front end has no parameters, so it is folded into the first
convolution rather than run on every batch.  The transform is orthonormal
and linear, so a stage with kernel k, stride s and pad k//2 on the gained
Haar planes is a 2k kernel with stride 2s and pad 2*(k//2) on the 4 raw
channels, with weights ``haar_idwt2(weight * gain)``; its weight gradient
maps back as ``haar_dwt2(d_fold) * gain``.  The stored parameters stay
Haar-domain weights.

Activations are channel-major with the batch innermost, ``(C, H, W, N)``,
so every kernel-offset slice of a layer is a run of whole batch rows.
Convolutions are lowered to GEMM by im2col: the input is copied once into
a zero-bordered buffer (the first copy also moves the ``(N, 4, H, W)``
patches into this layout), and one copy from a sliding-window view builds
the ``(c*k*k, oh*ow*N)`` column matrix, rows ordered (channel, kernel row,
kernel column).  A layer is then one forward GEMM with the bias added in
place, one weight-gradient GEMM over the whole batch, and one column-
gradient GEMM whose col2im adds the k*k column planes into each input
pixel in (row, column) order, starting from zero.  The first
convolution's columns need no weights, so a caller may build them
beforehand (``im2col`` on a buffer bordered as ``first_conv_geometry``
says) and hand them to ``forward_batch``; training builds the next
batch's while the current one trains.  The first
convolution's input gradient reaches no parameter, so it is never
computed.

Training runs the convolutions in float32: the weights are cast once per
step, pooling hands float64 features to the MLPs and losses, and the conv
weight gradients are upcast before the float64 optimizer state sees
them.  Parameters, optimizer state and checkpoints stay float64, and
inference, evaluation and the exact-gradient ops compute in float64
throughout.

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
from ..streams import INIT_STREAM, derive_stream
from ..wavelets import haar_dwt2, haar_idwt2
from .config import EstimatorConfig

HAAR_PLANES = 4 * NUM_CHANNELS

# Per-plane gain after the Haar transform, in haar_dwt2's plane order
# (per channel: LL, then the three detail planes).
DETAIL_GAIN = 16.0
BAND_GAIN = np.tile([1.0, DETAIL_GAIN, DETAIL_GAIN, DETAIL_GAIN], NUM_CHANNELS)


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


def first_conv_geometry(config: EstimatorConfig) -> tuple[int, int, int]:
    """Kernel, stride and pad of the first convolution folded onto the raw channels."""
    stage = config.extractor[0]
    return 2 * stage.kernel, 2 * stage.stride, 2 * (stage.kernel // 2)


def im2col(xp, k, stride, out=None):
    """The ``(c*k*k, oh*ow*n)`` column matrix of a zero-bordered ``(c, h, w, n)`` input.

    ``out``, if given, is a flat buffer of at least that size whose start
    is filled and returned as the matrix; otherwise a new array is.
    """
    c, n = xp.shape[0], xp.shape[3]
    # (c, oh, ow, n, k, k) windows, transposed to the matrix's order; copying them is the one copy.
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    windows = windows.transpose(0, 4, 5, 1, 2, 3)
    shape = (c * k * k, windows.shape[3] * windows.shape[4] * n)
    if out is None:
        return windows.reshape(shape)
    out = out[: shape[0] * shape[1]]
    out.reshape(windows.shape)[...] = windows
    return out.reshape(shape)


def _conv_forward(x, weight, bias, stride, pad, cols=None):
    """Channel-major convolution: ``(c, h, w, n) -> (out, oh, ow, n)``.

    ``cols``, if given, is the column matrix of ``x`` built beforehand
    (see ``im2col``), and ``x`` is read for its shape only.
    """
    c, h, w, n = x.shape
    out_ch, _, k, _ = weight.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    if cols is None:
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=weight.dtype)
        xp[:, pad : pad + h, pad : pad + w] = x
        cols = im2col(xp, k, stride)
    y = weight.reshape(out_ch, -1) @ cols
    y += bias[:, None]
    return y.reshape(out_ch, oh, ow, n), (x.shape, cols, pad)


def _conv_backward(dy, weight, stride, cache, want_dx=True):
    """Gradients ``(dx, d_weight, d_bias)``; ``dx`` is None unless ``want_dx``."""
    (c, h, w, n), cols, pad = cache
    out_ch, _, k, _ = weight.shape
    oh, ow = dy.shape[1:3]
    dy2 = dy.reshape(out_ch, oh * ow * n)
    # cols @ dy2.T runs faster than dy2 @ cols.T in OpenBLAS; the transpose is small.
    d_weight = (cols @ dy2.T).T.reshape(weight.shape)
    d_bias = dy2.sum(axis=1)
    if not want_dx:
        return None, d_weight, d_bias
    dcols = (weight.reshape(out_ch, -1).T @ dy2).reshape(c, k, k, oh, ow, n)
    # col2im: every pixel sums its terms in (i, j) order, starting from zero.
    dxp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, i, j]
    return dxp[:, pad : pad + h, pad : pad + w], d_weight, d_bias


def _pool_forward(a):
    """Global mean+std pooling per channel: (C, h, w, N) -> float64 (N, 2C)."""
    c, n = a.shape[0], a.shape[3]
    flat = a.reshape(c, -1, n)
    mean = flat.mean(axis=1)
    centered = flat - mean[:, None, :]
    std = np.sqrt((centered**2).mean(axis=1))
    h = np.empty((n, 2 * c))
    h[:, :c] = mean.T
    h[:, c:] = std.T
    return h, (centered, std, a.shape)


def _pool_backward(dh, cache):
    centered, std, shape = cache
    c, m = centered.shape[:2]
    d_mean = dh[:, :c].T.astype(centered.dtype)
    d_std = dh[:, c:].T.astype(centered.dtype)
    # d std / d a_i = centered_i / (m * std); zero subgradient at std == 0.
    safe = np.where(std > 0.0, std, 1.0)
    coeff = np.where(std > 0.0, d_std / (m * safe), 0.0)
    dflat = d_mean[:, None, :] / m + coeff[:, None, :] * centered
    return dflat.reshape(shape)


def _nonlin_forward(z, kind):
    """Apply the nonlinearity in place; its output is also the backward cache."""
    return np.maximum(z, 0.0, out=z) if kind == "relu" else np.tanh(z, out=z)


def _nonlin_backward(da, kind, a):
    """``da`` through the nonlinearity whose output was ``a``."""
    if kind == "relu":
        return da * (a > 0.0)
    return da * (1.0 - a**2)


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

    def _front_gain(self) -> np.ndarray:
        """``input_scale * BAND_GAIN`` shaped to scale (..., 16, k, k) Haar planes."""
        return self.config.input_scale * BAND_GAIN[:, None, None]

    def _conv_stages(self, dtype):
        """``(weight, bias, stride, pad)`` in ``dtype`` per stage, the first one folded."""
        stages = []
        for i, stage in enumerate(self.config.extractor):
            weight = self.params[f"extractor.{i}.weight"]
            stride, pad = stage.stride, stage.kernel // 2
            if i == 0:
                weight = haar_idwt2(weight * self._front_gain())
                _, stride, pad = first_conv_geometry(self.config)
            bias = self.params[f"extractor.{i}.bias"]
            stages.append((weight.astype(dtype), bias.astype(dtype), stride, pad))
        return stages

    def forward_batch(self, patches: np.ndarray, dtype=np.float64, cols=None):
        """Run the full network on a stack of patches.

        Returns ``(h, z, r, cache)`` where ``h`` is the pooled feature,
        ``z`` the projection, ``r`` the head output in transformed
        parameter space, and ``cache`` what ``backward_batch`` reads.  The
        convolutions compute in ``dtype``; ``h`` and everything after it
        are float64.  ``cols``, if given, is the first convolution's column
        matrix of ``patches`` in ``dtype``, built beforehand with ``im2col``
        on a buffer bordered as ``first_conv_geometry`` says; the patches
        are then read for their shape only.
        """
        patches = self._check_input(patches)
        x = patches.transpose(1, 2, 3, 0)  # copied once, into the first padded buffer
        conv_caches = []
        for stage, (weight, bias, stride, pad) in zip(
            self.config.extractor, self._conv_stages(dtype)
        ):
            y, conv_cache = _conv_forward(x, weight, bias, stride, pad, cols)
            cols = None
            x = _nonlin_forward(y, stage.nonlinearity)
            conv_caches.append((conv_cache, x, weight, stride))

        h, pool_cache = _pool_forward(x)
        z, proj_caches = self._mlp_forward("projector", self.config.projector, h)
        r, head_caches = self._mlp_forward("head", self.config.head, h)

        return h, z, r, (conv_caches, pool_cache, proj_caches, head_caches)

    def _mlp_forward(self, prefix, widths, x):
        """The MLP output and each layer's input; ReLU between layers, none after the last."""
        inputs = []
        a = x
        for i in range(len(widths)):
            inputs.append(a)
            a = a @ self.params[f"{prefix}.{i}.weight"].T + self.params[f"{prefix}.{i}.bias"]
            if i < len(widths) - 1:
                a = np.maximum(a, 0.0)
        return a, inputs

    def _mlp_backward(self, prefix, widths, inputs, dout, grads):
        da = dout
        for i in reversed(range(len(widths))):
            if i < len(widths) - 1:
                # This layer's output is the next one's input, and relu(z) > 0 iff z > 0.
                da = da * (inputs[i + 1] > 0.0)
            grads[f"{prefix}.{i}.weight"] += da.T @ inputs[i]
            grads[f"{prefix}.{i}.bias"] += da.sum(axis=0)
            da = da @ self.params[f"{prefix}.{i}.weight"]
        return da

    def backward_batch(self, cache, dz, dr=None) -> dict[str, np.ndarray]:
        """Analytic gradients for upstream gradients ``dz`` on z and ``dr`` on r.

        Returns a dict covering every parameter (zeros where no gradient
        flows).  ``dz`` and ``dr`` are shaped (N, dim); ``dr=None`` skips
        the head entirely.
        """
        conv_caches, pool_cache, proj_caches, head_caches = cache
        grads = {name: np.zeros_like(value) for name, value in self.params.items()}

        dh = self._mlp_backward("projector", self.config.projector, proj_caches, dz, grads)
        if dr is not None:
            dh += self._mlp_backward("head", self.config.head, head_caches, dr, grads)

        dx = _pool_backward(dh, pool_cache)
        for i in reversed(range(len(self.config.extractor))):
            conv_cache, nl_cache, weight, stride = conv_caches[i]
            dy = _nonlin_backward(dx, self.config.extractor[i].nonlinearity, nl_cache)
            # The input gradient of the first convolution reaches no parameter.
            dx, d_weight, d_bias = _conv_backward(dy, weight, stride, conv_cache, i > 0)
            if i == 0:
                # The adjoint of the fold maps the raw-pixel kernel gradient
                # back onto the stored Haar-domain weight.
                d_weight = haar_dwt2(d_weight) * self._front_gain()
            grads[f"extractor.{i}.weight"] += d_weight
            grads[f"extractor.{i}.bias"] += d_bias
        return grads
