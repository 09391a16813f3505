"""Statistical and structural contracts of the noise samplers."""

import copy
import math

import numpy as np
import pytest

from rawnoise.errors import DomainError, ShapeError
from rawnoise.noise_core import (
    NoiseParams,
    add_noise,
    as_patch,
    physical_col_means,
    physical_row_means,
    sample_read,
    sample_row,
    sample_shot,
    synthesize_noise,
)
from rawnoise.oracle import estimate_bias_and_row_sigma
from rawnoise.streams import derive_stream
from rawnoise.wavelets import haar_dwt2


class TestNoiseParams:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            NoiseParams(K=0.0, sigma=1.0, mu_c=0.0, sigma_r=1.0)
        with pytest.raises(DomainError):
            NoiseParams(K=-1.0, sigma=1.0, mu_c=0.0, sigma_r=1.0)
        with pytest.raises(DomainError):
            NoiseParams(K=1.0, sigma=-0.1, mu_c=0.0, sigma_r=1.0)
        with pytest.raises(DomainError):
            NoiseParams(K=1.0, sigma=1.0, mu_c=0.0, sigma_r=-0.1)
        with pytest.raises(DomainError):
            NoiseParams(K=1.0, sigma=1.0, mu_c=float("nan"), sigma_r=1.0)

    def test_zero_sigmas_and_negative_bias_allowed(self):
        p = NoiseParams(K=0.5, sigma=0.0, mu_c=-2.5, sigma_r=0.0)
        assert p.sigma == 0.0 and p.mu_c == -2.5

class TestPatchValidation:
    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ShapeError):
            as_patch(np.zeros((3, 8, 8)))

    def test_rejects_non_finite(self):
        bad = np.zeros((4, 4, 4))
        bad[0, 0, 0] = np.inf
        with pytest.raises(DomainError):
            as_patch(bad)


class TestSampleShot:
    def test_zero_rate_gives_zero_noise(self):
        """Poisson at rate zero is identically zero wherever clean is zero,
        and at K = 1 every noisy value is a whole count."""
        rng = np.random.default_rng(1)
        clean = np.zeros((4, 16, 16))
        clean[0, :4] = 50.0
        shot = sample_shot(clean, 2.0, rng)
        assert np.all(shot[clean == 0.0] == 0.0)
        counts_float = clean + sample_shot(clean, 1.0, rng)
        counts = np.rint(counts_float).astype(np.int64)
        assert np.allclose(counts, counts_float)  # K=1 keeps draws integral

    def test_large_rate_regime(self):
        """Non-integer rates up to 1e7 keep the Poisson moments correct."""
        rng = np.random.default_rng(22)
        clean = np.full(10**5, 10**7 * 0.3)  # lam = 1e7 at K = 0.3
        shot = sample_shot(clean, 0.3, rng)
        assert abs(shot.mean()) < 3 * math.sqrt(0.3 * clean[0] / clean.size)
        assert abs(shot.var() / (0.3 * clean[0]) - 1.0) < 0.02

    def test_domain_errors(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DomainError):
            sample_shot(np.full((4, 2, 2), -1.0), 1.0, rng)
        with pytest.raises(DomainError):
            sample_shot(np.ones((4, 2, 2)), 0.0, rng)

    def test_rate_beyond_sampler_range_is_domain_error(self):
        """clean / K = 1e22 is past numpy's Poisson range; its ValueError becomes DomainError."""
        with pytest.raises(DomainError, match="clean / K"):
            sample_shot(np.full((4, 2, 2), 100.0), 1e-20, np.random.default_rng(4))


class TestSampleRead:
    def test_degenerate_gaussian_is_constant(self):
        rng = np.random.default_rng(5)
        read = sample_read((4, 8, 8), mu_c=5.0, sigma=0.0, rng=rng)
        assert np.all(read == 5.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            sample_read((4, 2, 2), 0.0, -1.0, np.random.default_rng(8))


class TestSampleRow:
    def test_zero_sigma_r(self):
        rng = np.random.default_rng(9)
        assert np.all(sample_row((4, 8, 8), 0.0, rng) == 0.0)

    def test_row_structure(self):
        """Constant along each row; R/Gr share even-bayer-row offsets, Gb/B odd;
        the 2H = 32 physical rows carry 32 distinct offsets."""
        rng = np.random.default_rng(10)
        row = sample_row((4, 16, 8), 3.0, rng)
        for c in range(4):
            assert np.all(row[c] == row[c, :, :1])  # broadcast along width
        assert np.array_equal(row[0], row[1])
        assert np.array_equal(row[2], row[3])
        assert not np.array_equal(row[0], row[2])
        assert np.unique(np.concatenate([row[0, :, 0], row[2, :, 0]])).size == 32

    def test_negative_sigma_r_rejected(self):
        with pytest.raises(DomainError):
            sample_row((4, 4, 4), -0.5, np.random.default_rng(12))

    def test_non_patch_shape_rejected(self):
        with pytest.raises(ShapeError):
            sample_row((16, 16), 1.0, np.random.default_rng(13))


def test_physical_means_read_back_the_row_offsets():
    """``physical_row_means`` returns sample_row's offsets, even bayer rows
    first, and ``physical_col_means`` sees the same mean in every column."""
    rng = derive_stream(14, 0)
    clone = copy.deepcopy(rng)
    row = sample_row((4, 6, 10), 1.5, rng)
    offsets = clone.normal(loc=0.0, scale=1.5, size=12)
    np.testing.assert_allclose(
        physical_row_means(row), np.concatenate([offsets[0::2], offsets[1::2]]), rtol=1e-12
    )
    np.testing.assert_allclose(physical_col_means(row), np.full(20, offsets.mean()), rtol=1e-12)


# Every layer that takes one packed patch or frame checks it by the same rule.
PACKED_CHECKS = {
    "as_patch": lambda shape: as_patch(np.zeros(shape)),
    "sample_row": lambda shape: sample_row(shape, 1.0, np.random.default_rng(0)),
    "haar_dwt2": lambda shape: haar_dwt2(np.zeros(shape)),
    "estimate_color_bias": lambda shape: estimate_bias_and_row_sigma([np.zeros(shape)])[0],
}


@pytest.mark.parametrize("shape, check", [
    (shape, check)
    for shape in [(3, 8, 8), (4, 0, 8), (4, 8), (2, 4, 8, 8)]
    for check in PACKED_CHECKS
    # haar_dwt2 takes a (..., 4, H, W) batch, to which (2, 4, 8, 8) is two patches.
    if not (check == "haar_dwt2" and len(shape) == 4)
])
def test_unpacked_shapes_are_refused_everywhere(shape, check):
    with pytest.raises(ShapeError, match=r"must be packed \(4, H, W\) frames"):
        PACKED_CHECKS[check](shape)


class TestSynthesizeNoise:
    def test_only_bias_survives_degenerate_params(self):
        """sigma = sigma_r = 0 on black input leaves exactly the bias."""
        rng = np.random.default_rng(14)
        params = NoiseParams(K=3.0, sigma=0.0, mu_c=5.0, sigma_r=0.0)
        noisy, parts = synthesize_noise(np.zeros((4, 16, 16)), params, rng)
        assert np.all(noisy == 5.0)
        assert np.all(parts.shot == 0.0) and np.all(parts.row == 0.0)

    def test_additive_variance(self):
        """Var(noisy - clean) = K*c + sigma^2 = 201 +- 2% at c=100."""
        rng = np.random.default_rng(15)
        params = NoiseParams(K=2.0, sigma=1.0, mu_c=0.0, sigma_r=0.0)
        clean = np.full((4, 500, 500), 100.0)
        noisy, _ = synthesize_noise(clean, params, rng)
        var = (noisy - clean).var()
        assert abs(var - 201.0) < 0.02 * 201.0

    def test_paper_patch_geometry(self):
        """The 4x64x64 synthesis geometry is accepted and produced."""
        rng = np.random.default_rng(16)
        params = NoiseParams(K=1.0, sigma=1.0, mu_c=0.0, sigma_r=1.0)
        noisy, parts = synthesize_noise(np.full((4, 64, 64), 20.0), params, rng)
        assert noisy.shape == (4, 64, 64)
        assert parts.total.shape == (4, 64, 64)

    def test_propagates_domain_errors(self):
        rng = np.random.default_rng(17)
        params = NoiseParams(K=1.0, sigma=1.0, mu_c=0.0, sigma_r=0.0)
        with pytest.raises(DomainError):
            synthesize_noise(np.full((4, 2, 2), -5.0), params, rng)


class TestModelInvariants:
    def test_decomposition_identity(self):
        """total is exactly shot+row+read and noisy exactly clean+total."""
        rng = np.random.default_rng(18)
        params = NoiseParams(K=1.7, sigma=2.2, mu_c=-0.4, sigma_r=0.9)
        clean = np.random.default_rng(0).uniform(0, 500, size=(4, 32, 32))
        noisy, parts = synthesize_noise(clean, params, rng)
        assert np.array_equal(parts.total, parts.shot + parts.row + parts.read)
        assert np.array_equal(noisy, clean + parts.total)

    def test_mean_identity(self):
        """E[noisy - clean] -> mu_c with tolerance 0.02 * max(1, sigma)."""
        rng = np.random.default_rng(20)
        params = NoiseParams(K=0.8, sigma=3.0, mu_c=-0.7, sigma_r=0.5)
        clean = np.full((4, 500, 500), 40.0)
        noisy, _ = synthesize_noise(clean, params, rng)
        assert abs((noisy - clean).mean() + 0.7) < 0.02 * max(1.0, 3.0)

    def test_row_covariance(self):
        """Same physical row: cov = sigma_r^2 +- 5%; across rows: ~0.

        One draw of 10^5 packed rows: packed row j holds physical rows 2j
        (R, Gr) and 2j + 1 (Gb, B), each with its own offset.
        """
        sigma_r = 2.0
        params = NoiseParams(K=1.0, sigma=1.0, mu_c=0.0, sigma_r=sigma_r)
        n = 10**5
        clean = np.full((4, n, 8), 10.0)
        noisy, _ = synthesize_noise(clean, params, np.random.default_rng(21))
        same_a = noisy[0, :, 2]  # physical row 2j
        same_b = noisy[1, :, 5]  # same physical row via Gr
        diff_b = noisy[2, :, 2]  # physical row 2j + 1
        noise_a = same_a - 10.0
        cov_same = np.mean(noise_a * (same_b - 10.0)) - noise_a.mean() * (same_b - 10.0).mean()
        cov_diff = np.mean(noise_a * (diff_b - 10.0)) - noise_a.mean() * (diff_b - 10.0).mean()
        band = 0.05 * sigma_r**2
        assert abs(cov_same - sigma_r**2) < band
        assert abs(cov_diff) < band

    def test_stream_determinism_and_worker_independence(self):
        """(seed, index)-derived streams give identical patches in any order."""
        params = NoiseParams(K=2.0, sigma=1.5, mu_c=0.3, sigma_r=0.8)
        clean = np.full((4, 16, 16), 30.0)

        serial = [
            synthesize_noise(clean, params, derive_stream(77, i))[0] for i in range(6)
        ]
        shuffled = {
            i: synthesize_noise(clean, params, derive_stream(77, i))[0]
            for i in (4, 0, 5, 2, 1, 3)
        }
        for i in range(6):
            assert np.array_equal(serial[i], shuffled[i])
        rerun = synthesize_noise(clean, params, derive_stream(77, 3))[0]
        assert np.array_equal(serial[3], rerun)


class TestAddNoise:
    """``add_noise`` is the noisy patch of ``synthesize_noise`` without its parts."""

    @pytest.mark.parametrize("shape", [(4, 1, 1), (4, 3, 5), (4, 64, 48)])
    @pytest.mark.parametrize("K", [0.08, 8.0])
    def test_same_bytes_and_stream_state(self, shape, K):
        clean = np.random.default_rng(3).uniform(0.0, 900.0, size=shape)
        clean.flat[:: 2] = 0.0  # black pixels draw no shot noise
        params = NoiseParams(K=K, sigma=2.5, mu_c=-0.7, sigma_r=1.3)
        rng, rng2 = derive_stream(41, 2), derive_stream(41, 2)
        noisy = add_noise(clean, params, rng)
        reference, _ = synthesize_noise(clean, params, rng2)
        assert noisy.tobytes() == reference.tobytes()
        assert rng.random(8).tobytes() == rng2.random(8).tobytes()

    @pytest.mark.parametrize("params, seed", [
        (NoiseParams(K=1.0, sigma=1.0, mu_c=1e308, sigma_r=1e308), 1),
        (NoiseParams(K=1.0, sigma=1e308, mu_c=0.0, sigma_r=1e308), 5),
    ], ids=["overflow", "nan"])
    def test_same_infinities_and_nan_without_a_warning(self, params, seed):
        """A sum beyond float64 is left infinite or NaN by both, silently."""
        clean = np.full((4, 8, 8), 50.0)
        rng, rng2 = derive_stream(seed, 0), derive_stream(seed, 0)
        noisy = add_noise(clean, params, rng)
        reference, _ = synthesize_noise(clean, params, rng2)
        assert not np.isfinite(reference).all()
        assert noisy.tobytes() == reference.tobytes()
        assert rng.random(8).tobytes() == rng2.random(8).tobytes()

    def test_domain_errors_as_synthesize_noise(self):
        params = NoiseParams(K=1.0, sigma=1.0, mu_c=0.0, sigma_r=0.0)
        with pytest.raises(DomainError):
            add_noise(np.full((4, 2, 2), -5.0), params, np.random.default_rng(17))
        with pytest.raises(ShapeError):
            add_noise(np.zeros((3, 2, 2)), params, np.random.default_rng(17))
