"""Training-loop determinism, staging, and the joint loss composition."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import naive_contrastive, toy_config
from heldout import score_heldout

from rawnoise import synthetic
from rawnoise.errors import ConfigurationError, DomainError
from rawnoise.estimator import (
    ConvStage,
    EstimatorConfig,
    EstimatorCheckpoint,
    EstimatorNetwork,
    backward,
    draw_params,
    make_triplet_batch,
    param_transform_r,
    total_loss,
    train,
)
from rawnoise.estimator.losses import param_targets
from rawnoise.estimator.network import parameter_shapes
from rawnoise.streams import derive_stream


def small_config(**overrides):
    base = dict(
        patch_height=8,
        patch_width=8,
        extractor=(ConvStage(3, 2, 4),),
        feature_dim=8,
        projector=(6, 4),
        head=(6, 4),
        learning_rate=1e-3,
        batch_size=4,
        epochs_per_stage=1,
        train_triplets=8,
        input_scale=1 / 64.0,
        seed=13,
    )
    base.update(overrides)
    return EstimatorConfig(**base)


def small_pools(count=6):
    rng = derive_stream(500, 0)
    return (
        synthetic.make_scene_pool(rng, count, 8, 8, white_level=64.0),
        synthetic.default_camera_bank(),
    )


class TestTrainLoop:
    def test_configuration_errors_before_epochs(self):
        config = small_config()
        scenes, bank = small_pools()
        with pytest.raises(ConfigurationError):
            train(config, [], bank)
        with pytest.raises(ConfigurationError):
            train(config, scenes, [])
        with pytest.raises(ConfigurationError):
            train(config, [np.zeros((4, 16, 16))], bank)  # wrong patch shape

    def test_untargetable_anchor_is_refused_before_any_step(self, monkeypatch):
        def step(*args):
            pytest.fail("a training step ran before the refusal")

        monkeypatch.setattr(EstimatorNetwork, "backward_batch", step)
        scenes, bank = small_pools()
        camera = replace(bank[0], b=-800.0)  # its sigma line underflows to 0
        with pytest.raises(DomainError, match="anchor has no regression target: .* sigma=0.0,"):
            train(small_config(), scenes, [camera])

    def test_stage_snapshots_and_metadata(self):
        config = small_config(epochs_per_stage=2)
        scenes, bank = small_pools()
        stages = {}
        checkpoint = train(
            config, scenes, bank, on_stage_end=lambda s, p: stages.__setitem__(s, p)
        )
        assert set(stages) == {1, 2}
        assert checkpoint.metadata["epochs_completed"] == 4
        log = checkpoint.metadata["loss_log"]
        assert [row["stage"] for row in log] == [1, 1, 2, 2]
        assert all(row["regression"] == 0.0 for row in log if row["stage"] == 1)
        # Stage 2 moved the head away from the stage-1 snapshot.
        assert not np.array_equal(stages[1]["head.0.weight"], checkpoint.params["head.0.weight"])

    def test_frozen_projector_switch(self):
        config = small_config(projector_trainable_stage2=False, epochs_per_stage=2)
        scenes, bank = small_pools()
        stages = {}
        checkpoint = train(
            config, scenes, bank, on_stage_end=lambda s, p: stages.__setitem__(s, p)
        )
        for name in checkpoint.params:
            if name.startswith("projector."):
                assert np.array_equal(stages[1][name], checkpoint.params[name])


class TestStageOneLearns:
    def test_contrastive_loss_falls_below_chance(self):
        """Stage 1 alone pulls the contrastive loss well below chance,
        ln(3B - 1), on the toy geometry.  It stays at chance when the scene
        level in the Haar LL planes drowns the detail planes that carry the
        noise."""
        config = replace(toy_config(), train_triplets=256, epochs_per_stage=6)
        scenes = synthetic.make_scene_pool(
            derive_stream(config.seed, 4), 64, config.patch_height, config.patch_width
        )
        checkpoint = train(config, scenes, synthetic.default_camera_bank())
        stage1 = [row for row in checkpoint.metadata["loss_log"] if row["stage"] == 1]
        chance = math.log(3 * config.batch_size - 1)
        assert stage1[-1]["contrastive"] <= 0.9 * chance


class TestTotalLossOps:
    def _setup(self, tau_loss=0.1):
        config = small_config(tau_loss=tau_loss)
        scenes, bank = small_pools()
        net = EstimatorNetwork.initialize(config)
        checkpoint = EstimatorCheckpoint(config=config, params=net.params)
        batch = make_triplet_batch(scenes, bank, derive_stream(501, 0), 3)
        return config, checkpoint, batch, net

    def test_composes_the_two_tested_losses(self):
        """total_loss equals weighted MSE plus tau_loss times the mean
        per-anchor contrastive loss with in-batch negatives, to 1e-10."""
        config, checkpoint, batch, net = self._setup()
        _, z, r, _ = net.forward_batch(batch.patches.reshape(-1, 4, 8, 8).astype(np.float64))
        n = len(batch)
        mse = 0.0
        for i in range(n):
            target = param_transform_r(batch.anchor_params[i], config.param_weights)
            mse += float(np.sum((r[i] - target) ** 2))
        expected = mse / n + config.tau_loss * naive_contrastive(z, n, config.tau)
        assert total_loss(batch, checkpoint) == pytest.approx(expected, abs=1e-10)

    def test_zero_mix_weight_reduces_to_regression(self):
        config0, checkpoint0, batch, net = self._setup(tau_loss=0.0)
        _, _, r, _ = net.forward_batch(batch.patches.reshape(-1, 4, 8, 8).astype(np.float64))
        n = len(batch)
        mse = sum(
            float(np.sum((r[i] - param_transform_r(batch.anchor_params[i])) ** 2))
            for i in range(n)
        )
        assert total_loss(batch, checkpoint0) == pytest.approx(mse / n, abs=1e-12)

    def test_mix_weight_linearity(self):
        """Doubling tau_loss doubles the contrastive contribution to the
        loss and to every gradient entry."""
        _, ck0, batch, _ = self._setup(tau_loss=0.0)
        _, ck1, _, _ = self._setup(tau_loss=0.1)
        _, ck2, _, _ = self._setup(tau_loss=0.2)
        l0 = total_loss(batch, ck0)
        l1 = total_loss(batch, ck1)
        l2 = total_loss(batch, ck2)
        assert l2 - l1 == pytest.approx(l1 - l0, rel=1e-9)

        g0 = backward(batch, ck0)
        g1 = backward(batch, ck1)
        g2 = backward(batch, ck2)
        for name in g0:
            np.testing.assert_allclose(
                g2[name] - g1[name], g1[name] - g0[name], rtol=1e-7, atol=1e-12
            )

    def test_backward_covers_every_parameter(self):
        config, checkpoint, batch, _ = self._setup()
        grads = backward(batch, checkpoint)
        assert set(grads) == set(parameter_shapes(config))


def test_a_head_that_emits_the_training_mean_scores_the_baseline():
    """Under non-default weights, a head fixed at the training mean r scores
    exactly the mean-r baseline: both are measured in the model's r-space."""
    weights = (2.0, 1.0, 10.0, 10.0)
    config = small_config(param_weights=weights, head=(6, 5, 4))
    scenes, bank = small_pools()
    train_params = [draw_params(bank, derive_stream(502, i)) for i in range(16)]
    params = EstimatorNetwork.initialize(config).params
    params["head.2.weight"][:] = 0.0
    params["head.2.bias"][:] = param_targets(train_params, weights).mean(axis=0)
    heldout = make_triplet_batch(scenes, bank, derive_stream(503, 0), 5)

    scores = score_heldout(EstimatorCheckpoint(config, params), heldout, train_params)
    assert scores["mse"] == scores["baseline"]


# sha256 of the toy checkpoint's bytes; a declared change to the training
# arithmetic records its new value here.
TOY_CHECKPOINT_SHA256 = "c69e9bc86abcfb844adfcf827698b381f84512094ed9f80ea644f1fe3ae07e7e"


def test_toy_checkpoint_keeps_its_recorded_bytes(toy_run):
    """The toy model trained in the session's child process has the recorded bytes."""
    assert hashlib.sha256(toy_run["checkpoint"].to_bytes()).hexdigest() == TOY_CHECKPOINT_SHA256
