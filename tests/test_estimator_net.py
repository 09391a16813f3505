"""Network forward contracts, triplet construction, checkpoint format."""

import json
import struct

import numpy as np
import pytest

from rawnoise import synthetic
from rawnoise.errors import BadCheckpointError, ConfigurationError, ShapeError
from rawnoise.estimator import (
    ConvStage,
    EstimatorCheckpoint,
    EstimatorConfig,
    EstimatorNetwork,
    augment_triplet,
    estimate,
    make_triplet_batch,
    parameter_shapes,
)
from rawnoise.estimator.config import EstimatorConfig as Config
from rawnoise.streams import derive_stream

TINY = EstimatorConfig(
    patch_height=8,
    patch_width=8,
    extractor=(ConvStage(3, 2, 4),),
    feature_dim=8,
    projector=(6, 4),
    head=(6, 4),
    batch_size=2,
    train_triplets=4,
    input_scale=1 / 64.0,
    seed=3,
)


def tiny_pools():
    rng = derive_stream(42, 0)
    scenes = synthetic.make_scene_pool(rng, 4, 8, 8, white_level=64.0)
    return scenes, synthetic.default_camera_bank()


class TestConfig:
    def test_feature_dim_must_match_pooling(self):
        with pytest.raises(ConfigurationError):
            Config(extractor=(ConvStage(3, 2, 16),), feature_dim=16)

    def test_head_must_end_in_four(self):
        with pytest.raises(ConfigurationError):
            Config(head=(64, 3))

    def test_json_round_trip(self):
        assert Config.from_dict(json.loads(json.dumps(TINY.as_dict()))) == TINY

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            Config.from_dict({"seed": 1, "bogus_knob": 2})

    @pytest.mark.parametrize("count", [1, 0])
    def test_fewer_than_two_train_triplets_rejected(self, count):
        with pytest.raises(ConfigurationError):
            Config(train_triplets=count)

    def test_square_nonlinearity_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvStage(3, 2, 16, nonlinearity="square")


class TestForward:
    def test_zero_network_guard_floors(self):
        """All-zero weights: h = 0, z = 0, and the inverse transform maps
        the zero head output to (K floored, sigma=1, mu_c=0, sigma_r=1)."""
        params = {name: np.zeros(s) for name, s in parameter_shapes(TINY).items()}
        checkpoint = EstimatorCheckpoint(config=TINY, params=params)
        patch = np.full((4, 8, 8), 13.0)
        h, z, _, _ = EstimatorNetwork(TINY, checkpoint.params).forward_batch(patch[None])
        p_hat = estimate(patch, checkpoint)
        assert np.all(h == 0.0) and np.all(z == 0.0)
        assert p_hat.K == 1e-6
        assert p_hat.sigma == 1.0
        assert p_hat.mu_c == 0.0
        assert p_hat.sigma_r == 1.0

    def test_output_dimensionality(self):
        net = EstimatorNetwork.initialize(TINY)
        rng = derive_stream(1, 0)
        patches = rng.uniform(0, 64, size=(5, 4, 8, 8))
        h, z, r, _ = net.forward_batch(patches)
        assert h.shape == (5, 8) and z.shape == (5, 4) and r.shape == (5, 4)

    def test_deterministic_pure_function(self):
        net = EstimatorNetwork.initialize(TINY)
        patch = derive_stream(2, 0).uniform(0, 64, size=(1, 4, 8, 8))
        first = net.forward_batch(patch)
        second = net.forward_batch(patch.copy())
        for a, b in zip(first[:3], second[:3]):
            assert np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        net = EstimatorNetwork.initialize(TINY)
        with pytest.raises(ShapeError):
            net.forward_batch(np.zeros((1, 4, 16, 16)))

    def test_initialization_is_seeded(self):
        a = EstimatorNetwork.initialize(TINY).params
        b = EstimatorNetwork.initialize(TINY).params
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestTriplets:
    def test_negatives_come_from_the_other_camera(self):
        """Two point-mass cameras, K = 0.1 and 10: a negative can only differ
        from its anchor on the other camera, and a positive shares the anchor's.
        On a flat scene at 100 the patch variance (about 10 against about
        1000) tells the cameras apart."""
        from rawnoise.calibration import CameraModel

        bank = [
            CameraModel(
                a=0.0, b=0.0, a_r=0.0, b_r=0.0, sigma_hat=0.0, sigma_r_hat=0.0,
                K_min=k, K_max=k, mu_c_model=0.0,
            )
            for k in (0.1, 10.0)
        ]
        batch = make_triplet_batch([np.full((4, 8, 8), 100.0)], bank, derive_stream(43, 0), 32)
        high_gain = batch.patches.reshape(3, 32, -1).var(axis=2) > 100.0
        anchor_high = np.array([p.K > 1.0 for p in batch.anchor_params])
        assert 0 < anchor_high.sum() < 32
        np.testing.assert_array_equal(high_gain[0], anchor_high)
        np.testing.assert_array_equal(high_gain[1], anchor_high)
        np.testing.assert_array_equal(high_gain[2], ~anchor_high)

    def test_single_scene_pool_forces_collision(self):
        """With one scene, anchor and positive share it yet still differ
        through independent noise realizations."""
        scenes, bank = tiny_pools()
        out = np.empty((3, 4, 8, 8), np.float32)
        augment_triplet(scenes[:1], bank, derive_stream(44, 0), out)
        assert not np.array_equal(out[0], out[1])

    def test_collision_guard_rejects_degenerate_bank(self):
        """A point-mass camera can only ever collide; the redraw guard
        must fail loudly instead of spinning."""
        from rawnoise.calibration import CameraModel

        scenes, _ = tiny_pools()
        point_mass = CameraModel(
            a=0.5, b=0.0, a_r=0.5, b_r=0.0, sigma_hat=0.0, sigma_r_hat=0.0,
            K_min=1.0, K_max=1.0, mu_c_model=0.0,
        )
        out = np.empty((3, 4, 8, 8), np.float32)
        with pytest.raises(ConfigurationError):
            augment_triplet(scenes, [point_mass], derive_stream(47, 0), out)

    def test_batch_stacking(self):
        scenes, bank = tiny_pools()
        batch = make_triplet_batch(scenes, bank, derive_stream(46, 0), 6)
        assert len(batch) == 6
        assert batch.patches.shape == (3, 6, 4, 8, 8)
        assert batch.patches.dtype == np.float32
        assert len(batch.anchor_params) == 6


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        net = EstimatorNetwork.initialize(TINY)
        checkpoint = EstimatorCheckpoint(
            config=TINY,
            params=net.params,
            metadata={"epochs_completed": 2, "stage": 2, "final_losses": {"total": 1.25}},
        )
        path = tmp_path / "model.nest"
        checkpoint.save(path)
        loaded = EstimatorCheckpoint.load(path)
        assert loaded.config == TINY
        assert loaded.metadata == checkpoint.metadata
        assert all(np.array_equal(loaded.params[k], net.params[k]) for k in net.params)
        # Re-serializing the loaded checkpoint reproduces the bytes exactly.
        assert loaded.to_bytes() == path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.nest"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(BadCheckpointError):
            EstimatorCheckpoint.load(path)

    def test_non_utf8_tensor_name_rejected(self):
        net = EstimatorNetwork.initialize(TINY)
        raw = EstimatorCheckpoint(config=TINY, params=net.params).to_bytes()
        # The first tensor record follows the header blob; its name starts
        # after the record's 4-byte name length.
        (blob_len,) = struct.unpack("<I", raw[8:12])
        at = 12 + blob_len + 4
        corrupt = raw[:at] + b"\xff" + raw[at + 1 :]
        with pytest.raises(BadCheckpointError):
            EstimatorCheckpoint.from_bytes(corrupt)

    def test_duplicate_tensor_name_rejected(self):
        """A repeated record must not silently replace the first one."""
        net = EstimatorNetwork.initialize(TINY)
        raw = EstimatorCheckpoint(config=TINY, params=net.params).to_bytes()
        name = sorted(net.params)[-1]
        tensor = net.params[name]
        record = (
            struct.pack("<I", len(name)) + name.encode("utf-8")
            + struct.pack("<I", tensor.ndim) + struct.pack(f"<{tensor.ndim}I", *tensor.shape)
            + np.zeros_like(tensor).astype("<f8").tobytes()
        )
        with pytest.raises(BadCheckpointError):
            EstimatorCheckpoint.from_bytes(raw + record)

    def test_truncation_rejected(self, tmp_path):
        net = EstimatorNetwork.initialize(TINY)
        raw = EstimatorCheckpoint(config=TINY, params=net.params).to_bytes()
        with pytest.raises(BadCheckpointError):
            EstimatorCheckpoint.from_bytes(raw[: len(raw) - 9])

    def test_shape_config_mismatch_rejected(self):
        net = EstimatorNetwork.initialize(TINY)
        bad = {k: v for k, v in net.params.items()}
        bad["head.0.weight"] = np.zeros((2, 2))
        with pytest.raises(BadCheckpointError):
            EstimatorCheckpoint(config=TINY, params=bad)
