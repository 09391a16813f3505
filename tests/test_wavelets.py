"""Orthonormal Haar transform: exactness, inversion and adjointness; criterion 3
checks reconstruction and energy preservation."""

import numpy as np
import pytest

from rawnoise.errors import ShapeError
from rawnoise.wavelets import haar_dwt2, haar_idwt2


class TestForward:
    def test_constant_patch(self):
        """A constant c maps to LL = 2c with vanishing detail bands."""
        out = haar_dwt2(np.full((4, 8, 8), 3.5))
        assert np.all(out[0::4] == 7.0)
        assert np.all(out[1::4] == 0.0)
        assert np.all(out[2::4] == 0.0)
        assert np.all(out[3::4] == 0.0)

    def test_single_block_values(self):
        """Block [[1,2],[3,4]] -> (LL, LH, HL, HH) = (5, -1, -2, 0)."""
        patch = np.tile(np.array([[1.0, 2.0], [3.0, 4.0]]), (4, 1, 1))
        out = haar_dwt2(patch)
        for c in range(4):
            assert out[4 * c + 0, 0, 0] == 5.0
            assert out[4 * c + 1, 0, 0] == -1.0
            assert out[4 * c + 2, 0, 0] == -2.0
            assert out[4 * c + 3, 0, 0] == 0.0

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            haar_dwt2(np.zeros((4, 7, 8)))
        with pytest.raises(ShapeError):
            haar_dwt2(np.zeros((4, 8, 9)))

    def test_output_layout(self):
        out = haar_dwt2(np.zeros((4, 16, 10)))
        assert out.shape == (16, 8, 5)

    def test_batch_matches_per_patch(self):
        """An (N, 4, H, W) stack transforms exactly like each patch alone."""
        stack = np.random.default_rng(46).uniform(0, 1023, size=(5, 4, 12, 8))
        expected = np.stack([haar_dwt2(patch) for patch in stack])
        assert np.array_equal(haar_dwt2(stack), expected)

    def test_float32_stack_matches_float64_upcast(self):
        """The upcast inside the transform rounds exactly like upcasting first."""
        stack = np.random.default_rng(47).uniform(0, 1023, size=(6, 4, 12, 8)).astype(np.float32)
        out = haar_dwt2(stack)
        assert out.dtype == np.float64
        assert np.array_equal(out, haar_dwt2(stack.astype(np.float64)))

    def test_integer_input_gives_float64(self):
        patch = np.arange(4 * 6 * 4, dtype=np.int64).reshape(4, 6, 4)
        out = haar_dwt2(patch)
        assert out.dtype == np.float64
        assert np.array_equal(out, haar_dwt2(patch.astype(np.float64)))

    def test_batch_channel_count_checked(self):
        with pytest.raises(ShapeError):
            haar_dwt2(np.zeros((2, 3, 8, 8)))


class TestInverse:
    def test_zero_subbands(self):
        assert np.all(haar_idwt2(np.zeros((16, 4, 4))) == 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            haar_idwt2(np.zeros((12, 4, 4)))
        with pytest.raises(ShapeError):
            haar_idwt2(np.zeros((3, 12, 4, 4)))

    def test_batched_round_trip(self):
        """A (..., 16, h, w) stack inverts exactly like each subband set alone."""
        stack = np.random.default_rng(48).normal(size=(3, 2, 16, 3, 5))
        patches = haar_idwt2(stack)
        assert patches.shape == (3, 2, 4, 6, 10)
        assert np.array_equal(patches[1, 0], haar_idwt2(stack[1, 0]))
        assert np.abs(haar_dwt2(patches) - stack).max() <= 1e-12

    def test_adjoint_identity(self):
        """<dwt(x), y> = <x, idwt(y)>: the inverse is the transpose, which is
        what folding the transform into a convolution relies on."""
        rng = np.random.default_rng(49)
        x = rng.normal(size=(5, 4, 6, 10))
        y = rng.normal(size=(5, 16, 3, 5))
        lhs = float(np.sum(haar_dwt2(x) * y))
        rhs = float(np.sum(x * haar_idwt2(y)))
        assert abs(lhs - rhs) <= 1e-12 * np.sqrt(np.sum(x**2) * np.sum(y**2))


class TestProperties:
    def test_linearity(self):
        """dwt(a*x + y) = a*dwt(x) + dwt(y) to 1e-9."""
        rng = np.random.default_rng(45)
        x = rng.normal(size=(4, 16, 16))
        y = rng.normal(size=(4, 16, 16))
        lhs = haar_dwt2(2.75 * x + y)
        rhs = 2.75 * haar_dwt2(x) + haar_dwt2(y)
        assert np.abs(lhs - rhs).max() <= 1e-9
