"""The convolution layers equal the k*k-loop im2col/col2im bit for bit.

Activations are channel-major with the batch innermost, ``(C, H, W, N)``.
The reference below is the plain lowering: pad, copy one strided slice per
kernel offset into the column matrix, run the same single GEMMs, and
scatter the column gradient back with one add per offset, in (i, j) order,
into a zeroed buffer.  The network's one-copy im2col must reproduce it
exactly in float64 and in float32, because training checkpoints are
compared byte for byte.

The first convolution also absorbs the Haar front end; the fold tests check
it against the unfolded Haar-then-convolve pipeline.
"""

import itertools

import numpy as np
import pytest
from conftest import toy_config

from rawnoise import synthetic
from rawnoise.estimator import (
    ConvStage,
    EstimatorCheckpoint,
    EstimatorConfig,
    EstimatorNetwork,
    backward,
    make_triplet_batch,
)
from rawnoise.estimator.losses import param_targets
from rawnoise.estimator.network import _conv_backward, _conv_forward, first_conv_geometry, im2col
from rawnoise.estimator.train import _losses, _stacked, _take
from rawnoise.streams import derive_stream
from rawnoise.wavelets import haar_dwt2


def _reference_forward(x, weight, bias, stride, pad):
    c, h, w, n = x.shape
    out_ch, _, k, _ = weight.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = np.empty((c, k, k, oh, ow, n), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
    cols = cols.reshape(c * k * k, oh * ow * n)
    y = weight.reshape(out_ch, -1) @ cols
    y += bias[:, None]
    return y.reshape(out_ch, oh, ow, n), cols


def _reference_backward(dy, weight, stride, pad, x_shape, cols):
    c, h, w, n = x_shape
    out_ch, _, k, _ = weight.shape
    oh, ow = dy.shape[1:3]
    dy2 = dy.reshape(out_ch, -1)
    d_weight = (cols @ dy2.T).T.reshape(weight.shape)
    d_bias = dy2.sum(axis=1)
    dcols = (weight.reshape(out_ch, -1).T @ dy2).reshape(c, k, k, oh, ow, n)
    dxp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=dy.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, i, j]
    return dxp[:, pad : pad + h, pad : pad + w], d_weight, d_bias


CASES = list(itertools.product((1, 2, 3, 4, 5), (1, 2, 3), ((7, 5), (8, 6)), (1, 3)))
# The folded first stage: a 2k kernel at stride 2s with pad 2*(k//2).
FOLDED = [(2 * k, 2 * s, 2 * (k // 2)) for k in (1, 2, 3) for s in (1, 2)]
MORE_CASES = [
    (k, s, k // 2, size, n, np.float32) for k, s, size, n in CASES
] + [
    (k, s, p, size, n, dtype)
    for (k, s, p), size, n, dtype in itertools.product(
        FOLDED, ((7, 5), (8, 6)), (1, 3), (np.float64, np.float32)
    )
]


def _case(kernel, stride, size, batch, dtype=np.float64):
    rng = np.random.default_rng([kernel, stride, size[0], batch])
    x = rng.normal(size=(3, *size, batch)).astype(dtype)
    weight = rng.normal(size=(4, 3, kernel, kernel)).astype(dtype)
    bias = rng.normal(size=4).astype(dtype)
    return x, weight, bias


def _check_against_loops(kernel, stride, pad, size, batch, dtype):
    x, weight, bias = _case(kernel, stride, size, batch, dtype)
    y_ref, cols_ref = _reference_forward(x, weight, bias, stride, pad)
    y, cache = _conv_forward(x, weight, bias, stride, pad)
    assert y.dtype == dtype
    assert np.array_equal(y, y_ref)

    dy = np.random.default_rng(kernel * 100 + stride).normal(size=y.shape).astype(dtype)
    dx_ref, dw_ref, db_ref = _reference_backward(dy, weight, stride, pad, x.shape, cols_ref)
    dx, d_weight, d_bias = _conv_backward(dy, weight, stride, cache)
    assert dx.shape == x.shape
    assert np.array_equal(dx, dx_ref)
    assert np.array_equal(d_weight, dw_ref)
    assert np.array_equal(d_bias, db_ref)


@pytest.mark.parametrize(
    "kernel,stride,size,batch", CASES, ids=[f"k{k}-s{s}-{h}x{w}-n{n}" for k, s, (h, w), n in CASES]
)
def test_matches_loop_lowering(kernel, stride, size, batch):
    _check_against_loops(kernel, stride, kernel // 2, size, batch, np.float64)


@pytest.mark.parametrize(
    "kernel,stride,pad,size,batch,dtype",
    MORE_CASES,
    ids=[f"k{k}-s{s}-p{p}-{h}x{w}-n{n}-{d.__name__}" for k, s, p, (h, w), n, d in MORE_CASES],
)
def test_float32_and_folded_geometry_match_loop_lowering(kernel, stride, pad, size, batch, dtype):
    _check_against_loops(kernel, stride, pad, size, batch, dtype)


@pytest.mark.parametrize("kernel,stride", [(3, 2), (3, 1), (5, 3), (2, 2)])
def test_skipping_dx_keeps_parameter_gradients(kernel, stride):
    x, weight, bias = _case(kernel, stride, (8, 6), 3)
    y, cache = _conv_forward(x, weight, bias, stride, kernel // 2)
    dy = np.random.default_rng(7).normal(size=y.shape)
    dx, d_weight, d_bias = _conv_backward(dy, weight, stride, cache)
    no_dx, d_weight_alone, d_bias_alone = _conv_backward(dy, weight, stride, cache, want_dx=False)
    assert dx is not None and no_dx is None
    assert np.array_equal(d_weight_alone, d_weight)
    assert np.array_equal(d_bias_alone, d_bias)


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("kernel,stride", list(itertools.product((1, 2, 3, 5), (1, 2))))
def test_folded_first_stage_equals_haar_then_conv(kernel, stride):
    """The raw-pixel kernel reproduces Haar, gain and the Haar-domain conv,
    and the Haar transform of its gradient, times the gain, is the
    Haar-domain weight gradient."""
    config = EstimatorConfig(
        patch_height=12, patch_width=12, extractor=(ConvStage(kernel, stride, 3),),
        feature_dim=6, projector=(4, 3), head=(4, 4), input_scale=1 / 64.0, seed=5,
    )
    net = EstimatorNetwork.initialize(config)
    rng = np.random.default_rng([kernel, stride])
    net.params["extractor.0.bias"] = rng.normal(size=3)
    patches = rng.uniform(0, 64, size=(5, 4, 12, 12))
    gain = net._front_gain()
    weight = net.params["extractor.0.weight"]
    bias = net.params["extractor.0.bias"]

    planes = (haar_dwt2(patches) * gain).transpose(1, 2, 3, 0)
    y_ref, cache_ref = _conv_forward(planes, weight, bias, stride, kernel // 2)
    ((folded, folded_bias, folded_stride, folded_pad),) = net._conv_stages(np.float64)
    assert folded.shape == (3, 4, 2 * kernel, 2 * kernel)
    assert (folded_stride, folded_pad) == (2 * stride, 2 * (kernel // 2))
    y, cache = _conv_forward(
        patches.transpose(1, 2, 3, 0), folded, folded_bias, folded_stride, folded_pad
    )
    assert y.shape == y_ref.shape
    assert _relative(y, y_ref) <= 1e-13

    dy = rng.normal(size=y.shape)
    _, d_folded, d_bias = _conv_backward(dy, folded, folded_stride, cache, want_dx=False)
    _, d_weight_ref, d_bias_ref = _conv_backward(dy, weight, stride, cache_ref, want_dx=False)
    assert _relative(haar_dwt2(d_folded) * gain, d_weight_ref) <= 1e-13
    assert _relative(d_bias, d_bias_ref) <= 1e-13


def test_float32_training_step_matches_float64_backward():
    """The float32 conv arithmetic of a training step stays within 1e-4 of
    the float64 gradients, tensor by tensor, on the toy geometry."""
    config = toy_config()
    scenes = synthetic.make_scene_pool(
        derive_stream(config.seed, 4), 8, config.patch_height, config.patch_width
    )
    batch = make_triplet_batch(scenes, synthetic.default_camera_bank(), derive_stream(3, 0), 32)
    net = EstimatorNetwork.initialize(config)
    exact = backward(batch, EstimatorCheckpoint(config=config, params=net.params))
    targets = param_targets(batch.anchor_params, config.param_weights)
    _, cache, dz, dr = _losses(net, batch, targets, np.float32)
    grads = net.backward_batch(cache, dz, dr)
    for name, value in exact.items():
        assert grads[name].dtype == np.float64
        error = np.linalg.norm(grads[name] - value) / np.linalg.norm(value)
        assert error <= 1e-4, (name, error)


@pytest.mark.parametrize("size", [5, 3])
def test_prebuilt_first_columns_give_the_same_forward_bytes(size):
    """Training builds a batch's first-convolution columns ahead of its step,
    in buffers sized for a full batch of 5, from a batch ``_take`` gathered
    batch-innermost into a zero-bordered buffer; ``forward_batch`` on those
    columns equals the plain pass bit for bit, a short batch of 3 included."""
    config = EstimatorConfig(
        patch_height=8, patch_width=8, extractor=(ConvStage(3, 2, 4), ConvStage(3, 1, 4)),
        feature_dim=8, projector=(6, 4), head=(6, 4), batch_size=5, input_scale=1 / 64.0, seed=7,
    )
    scenes = synthetic.make_scene_pool(derive_stream(8, 0), 4, 8, 8)
    dataset = make_triplet_batch(scenes, synthetic.default_camera_bank(), derive_stream(9, 0), 7)
    idx = np.array([6, 0, 3, 5, 1])[:size]
    net = EstimatorNetwork.initialize(config)
    k, stride, pad = first_conv_geometry(config)
    padded = np.zeros((4, 8 + 2 * pad, 8 + 2 * pad, 15), np.float32)
    columns = np.full(4 * k * k * 2 * 2 * 15, np.nan, np.float32)  # 2x2 outputs

    xp = padded[..., : 3 * size]
    batch = _take(dataset, idx, xp[:, pad : pad + 8, pad : pad + 8])
    patches = dataset.patches[:, idx].reshape(-1, 4, 8, 8)
    assert batch.anchor_params == tuple(dataset.anchor_params[i] for i in idx)
    assert np.array_equal(_stacked(batch), patches)
    cols = im2col(xp, k, stride, columns)
    prebuilt = net.forward_batch(_stacked(batch), np.float32, cols)
    plain = net.forward_batch(patches, np.float32)
    for got, want in zip(prebuilt[:3], plain[:3]):
        assert got.tobytes() == want.tobytes()
