"""The convolution layers equal the k*k-loop im2col/col2im bit for bit.

The reference below is the plain lowering: pad, copy one strided slice per
kernel offset into the column matrix, and scatter the column gradient back
with one add per offset, in (i, j) order, into a zeroed buffer.  The
network's faster layout must reproduce it exactly, because training
checkpoints are compared byte for byte.
"""

import itertools

import numpy as np
import pytest

from rawnoise.estimator.network import _conv_backward, _conv_forward


def _reference_forward(x, weight, bias, stride):
    n, c, h, w = x.shape
    out_ch, _, k, _ = weight.shape
    pad = k // 2
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, k, k, oh, ow), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    cols = cols.reshape(n, c * k * k, oh * ow)
    y = np.matmul(weight.reshape(out_ch, -1), cols) + bias[None, :, None]
    return y.reshape(n, out_ch, oh, ow), cols


def _reference_backward(dy, weight, stride, x_shape, cols):
    n, c, h, w = x_shape
    out_ch, _, k, _ = weight.shape
    pad = k // 2
    oh, ow = dy.shape[2:]
    dy2 = dy.reshape(n, out_ch, oh * ow)
    d_weight = np.matmul(dy2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    d_bias = dy2.sum(axis=(0, 2))
    dcols = np.matmul(weight.reshape(out_ch, -1).T, dy2).reshape(n, c, k, k, oh, ow)
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[
                :, :, i, j
            ]
    return dxp[:, :, pad : pad + h, pad : pad + w], d_weight, d_bias


CASES = list(itertools.product((1, 2, 3, 4, 5), (1, 2, 3), ((7, 5), (8, 6)), (1, 3)))


def _case(kernel, stride, size, batch):
    rng = np.random.default_rng([kernel, stride, size[0], batch])
    x = rng.normal(size=(batch, 3, *size))
    weight = rng.normal(size=(4, 3, kernel, kernel))
    bias = rng.normal(size=4)
    return x, weight, bias


@pytest.mark.parametrize(
    "kernel,stride,size,batch", CASES, ids=[f"k{k}-s{s}-{h}x{w}-n{n}" for k, s, (h, w), n in CASES]
)
def test_matches_loop_lowering(kernel, stride, size, batch):
    x, weight, bias = _case(kernel, stride, size, batch)
    y_ref, cols_ref = _reference_forward(x, weight, bias, stride)
    y, cache = _conv_forward(x, weight, bias, stride)
    assert np.array_equal(y, y_ref)

    dy = np.random.default_rng(kernel * 100 + stride).normal(size=y.shape)
    dx_ref, dw_ref, db_ref = _reference_backward(dy, weight, stride, x.shape, cols_ref)
    dx, d_weight, d_bias = _conv_backward(dy, weight, stride, cache)
    assert dx.shape == x.shape
    assert np.array_equal(dx, dx_ref)
    assert np.array_equal(d_weight, dw_ref)
    assert np.array_equal(d_bias, db_ref)


@pytest.mark.parametrize("kernel,stride", [(3, 2), (3, 1), (5, 3), (2, 2)])
def test_skipping_dx_keeps_parameter_gradients(kernel, stride):
    x, weight, bias = _case(kernel, stride, (8, 6), 3)
    y, cache = _conv_forward(x, weight, bias, stride)
    dy = np.random.default_rng(7).normal(size=y.shape)
    dx, d_weight, d_bias = _conv_backward(dy, weight, stride, cache)
    no_dx, d_weight_alone, d_bias_alone = _conv_backward(dy, weight, stride, cache, want_dx=False)
    assert dx is not None and no_dx is None
    assert np.array_equal(d_weight_alone, d_weight)
    assert np.array_equal(d_bias_alone, d_bias)
