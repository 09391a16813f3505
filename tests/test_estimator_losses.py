"""Parameter-space transform and the contrastive/regression losses."""

import math

import numpy as np
import pytest
from conftest import naive_contrastive

from rawnoise.errors import DomainError
from rawnoise.estimator.losses import (
    batch_contrastive,
    batch_regression,
    inverse_param_transform,
    param_transform_r,
)
from rawnoise.noise_core import NoiseParams


class TestParamTransform:
    def test_unit_tuple(self):
        p = NoiseParams(K=1.0, sigma=1.0, mu_c=0.0, sigma_r=1.0)
        assert np.array_equal(param_transform_r(p), [1.0, 0.0, 0.0, 0.0])

    def test_exact_logs(self):
        p = NoiseParams(K=2.0, sigma=math.e, mu_c=0.5, sigma_r=math.e**2)
        r = param_transform_r(p)
        assert np.allclose(r, [2.0, 1.0, 5.0, 20.0], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            p = NoiseParams(
                K=float(rng.uniform(0.01, 10.0)),
                sigma=float(rng.uniform(0.01, 50.0)),
                mu_c=float(rng.uniform(-3.0, 3.0)),
                sigma_r=float(rng.uniform(0.01, 20.0)),
            )
            q = inverse_param_transform(param_transform_r(p))
            assert abs(q.K - p.K) <= 1e-12 * max(1.0, p.K)
            assert abs(q.sigma - p.sigma) <= 1e-12 * p.sigma
            assert abs(q.mu_c - p.mu_c) <= 1e-12 * max(1.0, abs(p.mu_c))
            assert abs(q.sigma_r - p.sigma_r) <= 1e-12 * p.sigma_r

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            param_transform_r(NoiseParams(K=1.0, sigma=0.0, mu_c=0.0, sigma_r=1.0))

    def test_inverse_floors_degenerate_vectors(self):
        p = inverse_param_transform(np.array([-5.0, 0.0, 0.0, 0.0]))
        assert p.K == 1e-6 and p.sigma == 1.0 and p.mu_c == 0.0 and p.sigma_r == 1.0


def _unit(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def _one_anchor(z, z_pos, negs, tau):
    """The in-batch loss of one anchor: rows [z, z_pos, *negs], every row but z competing."""
    loss, _ = batch_contrastive(np.array([z, z_pos, *negs]), 1, tau)
    return loss


class TestContrastiveLoss:
    def test_two_term_softmax(self):
        """cos+ = 1 against one orthogonal negative at tau=1: log(1+e^-1)."""
        z = _unit(0.0)
        loss = _one_anchor(z, z, [_unit(math.pi / 2)], tau=1.0)
        assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_symmetric_pair_gives_log2(self):
        z = _unit(0.0)
        other = _unit(0.7)
        assert _one_anchor(z, other, [other], tau=0.37) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_direct_formula(self):
        """Three anchors, seven negatives each, at tau=0.1 agree with naive summation to 1e-10."""
        rng = np.random.default_rng(81)
        z = rng.normal(size=(9, 16))
        loss, _ = batch_contrastive(z, 3, tau=0.1)
        assert loss == pytest.approx(naive_contrastive(z, 3, 0.1), abs=1e-10)

    def test_zero_norm_rejected(self):
        with pytest.raises(DomainError):
            _one_anchor(np.zeros(4), np.ones(4), [np.ones(4)], tau=0.1)
        with pytest.raises(DomainError):
            _one_anchor(np.ones(4), np.ones(4), [np.zeros(4)], tau=0.1)

    def test_positive_and_limit_behavior(self):
        """loss > 0 always; -> 0 as cos+ -> 1 and cos- -> -1 at fixed tau."""
        rng = np.random.default_rng(82)
        for _ in range(100):
            z = rng.normal(size=8)
            loss = _one_anchor(z, rng.normal(size=8), [rng.normal(size=8)], tau=0.5)
            assert loss > 0.0
        near_limit = _one_anchor(_unit(0.0), _unit(0.0), [-_unit(0.0)], tau=0.1)
        assert near_limit == pytest.approx(math.log(1.0 + math.exp(-20.0)), rel=1e-9)
        assert near_limit < 1e-8

    def test_monotone_in_positive_similarity(self):
        """Holding negatives fixed, raising cos+ strictly lowers the loss."""
        rng = np.random.default_rng(83)
        for _ in range(100):
            thetas = np.sort(rng.uniform(0.0, math.pi, size=2))
            neg = _unit(rng.uniform(0.0, 2 * math.pi))
            lo = _one_anchor(_unit(0.0), _unit(thetas[0]), [neg], tau=0.3)
            hi = _one_anchor(_unit(0.0), _unit(thetas[1]), [neg], tau=0.3)
            assert lo < hi  # smaller angle = larger cos+ = smaller loss


class TestBatchLosses:
    def test_batch_matches_per_anchor_composition(self):
        """The in-batch loss is the mean of one-anchor losses with every
        other projection serving as a negative."""
        rng = np.random.default_rng(84)
        n = 5
        z = rng.normal(size=(3 * n, 8))
        loss, _ = batch_contrastive(z, n, tau=0.1)
        per_anchor = []
        for i in range(n):
            negs = [z[j] for j in range(3 * n) if j not in (i, n + i)]
            per_anchor.append(_one_anchor(z[i], z[n + i], negs, tau=0.1))
        assert loss == pytest.approx(float(np.mean(per_anchor)), abs=1e-10)

    def test_stationary_points(self):
        """Perfect regression has zero gradient; a saturated contrastive
        arrangement has gradient magnitude below 1e-8."""
        r = np.array([[1.0, 2.0, 3.0, 4.0]])
        loss, grad = batch_regression(r, r.copy())
        assert loss == 0.0
        assert np.all(np.abs(grad) <= 1e-8)

        z = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])  # anchor, positive, negative
        loss, grad = batch_contrastive(z, 1, tau=0.1)
        assert loss < 1e-8
        assert np.all(np.abs(grad) <= 1e-8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(85)
        n = 3
        z = rng.normal(size=(3 * n, 6))
        _, grad = batch_contrastive(z, n, tau=0.5)
        h = 1e-6
        for k in np.ndindex(z.shape):
            orig = z[k]
            z[k] = orig + h
            up, _ = batch_contrastive(z, n, tau=0.5)
            z[k] = orig - h
            down, _ = batch_contrastive(z, n, tau=0.5)
            z[k] = orig
            fd = (up - down) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-9)
