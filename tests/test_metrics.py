"""Histogram construction and KL scoring, checked against closed forms."""

import math

import numpy as np
import pytest
from scipy import stats

from rawnoise.errors import DomainError, InsufficientDataError, ShapeError
from rawnoise.metrics import build_histogram, kl_divergence, score_record


class TestBuildHistogram:
    def test_constant_values_single_bin(self):
        hist = build_histogram(np.full(100, 2.5), bins=16)
        assert hist.masses.max() == 1.0
        assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_values_two_bins(self):
        hist = build_histogram(np.array([0.1, 0.9]), bins=2, value_range=(0.0, 1.0))
        assert np.array_equal(hist.masses, [0.5, 0.5])

    def test_out_of_range_clipped_into_boundary_bins(self):
        hist = build_histogram(np.array([-5.0, 0.5, 99.0]), bins=4, value_range=(0.0, 1.0))
        assert hist.masses[0] == pytest.approx(1 / 3)
        assert hist.masses[-1] == pytest.approx(1 / 3)

    def test_gaussian_cell_probabilities(self):
        """Bin masses of 10^6 normal draws match the CDF cell probabilities.

        The 3-sigma binomial band is meaningful where the expected count
        supports the normal approximation; the far-tail bins (expected
        count < 10) are pooled and checked against their summed mass.
        """
        rng = np.random.default_rng(60)
        values = rng.normal(0.0, 1.0, size=10**6)
        hist = build_histogram(values, bins=256, value_range=(-6.0, 6.0))
        cdf = stats.norm.cdf(hist.edges)
        expected = np.diff(cdf)
        expected[0] += cdf[0]
        expected[-1] += 1.0 - cdf[-1]
        bound = 3.0 * np.sqrt(expected * (1.0 - expected) / values.size)
        core = expected * values.size >= 10.0
        assert np.all(np.abs(hist.masses[core] - expected[core]) <= bound[core])
        tail_mass = hist.masses[~core].sum()
        tail_expected = expected[~core].sum()
        tail_bound = 3.0 * np.sqrt(tail_expected * (1.0 - tail_expected) / values.size)
        assert abs(tail_mass - tail_expected) <= tail_bound

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            build_histogram(np.array([]))
        with pytest.raises(DomainError):
            build_histogram(np.ones(4), bins=1)
        with pytest.raises(DomainError):
            build_histogram(np.ones(4), bins=8, value_range=(1.0, 1.0))

    @pytest.mark.parametrize("bins", [2**60 - 1, 2**62, 10**20])
    def test_bins_beyond_numpy_edges_rejected(self, bins):
        """numpy cannot index ``bins + 1`` float64 edges: a ValueError, or an IndexError."""
        with pytest.raises(DomainError, match=f"^{bins} bins need more edges"):
            build_histogram(np.ones(4), bins=bins, value_range=(0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        """NaN was dropped and +-inf clipped into an edge bin; both are now refused."""
        with pytest.raises(DomainError, match="finite"):
            build_histogram(np.array([0.0, bad, 0.5]), bins=8, value_range=(-1.0, 1.0))


def adversarial_samples(rng, edges, size):
    """``size`` samples drawn around ``edges``: on every edge, one ulp either
    side, outside the range, float32-rounded, or one constant repeated."""
    lo, hi = edges[0], edges[-1]
    width = hi - lo
    pool = np.concatenate([
        edges,
        np.nextafter(edges, math.inf),
        np.nextafter(edges, -math.inf),
        rng.uniform(lo - width, hi + width, 64),
        rng.uniform(lo, hi, 256).astype(np.float32),
    ])
    if rng.random() < 0.1:
        return np.full(size, rng.choice(pool))
    if size < pool.size:
        return rng.choice(pool, size)
    return rng.permutation(np.concatenate([pool, rng.choice(pool, size - pool.size)]))


class TestUniformBinRule:
    """Counts and edges are np.histogram's on the clipped samples, bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_counts_and_edges_match_numpy(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            bins = int(rng.integers(2, 601))
            lo = rng.uniform(-1e3, 1e3)
            hi = lo + 10 ** rng.uniform(-6, 4)
            size = int(rng.choice([1, 2, int(rng.integers(3, 4000)), 65536, 65537, 150000]))
            values = adversarial_samples(rng, np.linspace(lo, hi, bins + 1), size)
            hist = build_histogram(values, bins=bins, value_range=(lo, hi))
            counts, edges = np.histogram(np.clip(values, lo, hi), bins=bins, range=(lo, hi))
            assert hist.edges.dtype == edges.dtype and np.array_equal(hist.edges, edges)
            assert np.array_equal(hist.masses, counts / size)

    def test_last_bin_holds_hi(self):
        hist = build_histogram(np.array([0.0, 0.25, 1.0, 2.0]), bins=4, value_range=(0.0, 1.0))
        assert np.array_equal(hist.masses, [0.25, 0.25, 0.0, 0.5])


class TestKLDivergence:
    def test_worked_two_bin_value(self):
        """(0.5,0.5) vs (0.25,0.75): 0.5 ln 2 + 0.5 ln(2/3) ~ 0.14384."""
        p = build_histogram(np.array([0.2, 0.8]), bins=2, value_range=(0.0, 1.0))
        q = build_histogram(np.array([0.2, 0.6, 0.7, 0.8]), bins=2, value_range=(0.0, 1.0))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-5)
        assert kl_divergence(q, p) != pytest.approx(kl_divergence(p, q), abs=1e-4)

    def test_geometry_mismatch_rejected(self):
        p = build_histogram(np.arange(10.0), bins=4, value_range=(0.0, 10.0))
        q = build_histogram(np.arange(10.0), bins=8, value_range=(0.0, 10.0))
        with pytest.raises(ShapeError):
            kl_divergence(p, q)
        q2 = build_histogram(np.arange(10.0), bins=4, value_range=(0.0, 12.0))
        with pytest.raises(ShapeError):
            kl_divergence(p, q2)

    def test_non_negativity_random(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            a = build_histogram(rng.normal(size=4000), bins=32, value_range=(-5.0, 5.0))
            b = build_histogram(rng.normal(0.2, 1.1, size=4000), bins=32, value_range=(-5.0, 5.0))
            assert kl_divergence(a, b) >= -1e-9

    def test_score_record_fields(self):
        hist = build_histogram(np.arange(100.0), bins=8, value_range=(0.0, 100.0))
        record = score_record(hist, hist)
        assert set(record) == {"bins", "range", "epsilon", "kl", "samples_p", "samples_q"}
        assert record["bins"] == 8 and record["samples_p"] == 100
