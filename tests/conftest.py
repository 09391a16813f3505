"""Shared fixtures; the expensive toy training run happens once per session."""

from __future__ import annotations

import pytest

from rawnoise import synthetic
from rawnoise.estimator import (
    ConvStage,
    EstimatorCheckpoint,
    EstimatorConfig,
    EstimatorNetwork,
    make_triplet_batch,
    train,
)
from rawnoise.streams import derive_stream

TOY_SEED = 11


def toy_config() -> EstimatorConfig:
    """Desk-scale training setup: ~44k parameters, 2000 triplets, 30+30 epochs."""
    return EstimatorConfig(
        patch_height=32,
        patch_width=32,
        extractor=(ConvStage(3, 2, 16), ConvStage(3, 2, 32), ConvStage(3, 2, 64)),
        feature_dim=128,
        projector=(64, 32),
        head=(64, 4),
        learning_rate=1e-3,
        batch_size=32,
        epochs_per_stage=30,
        train_triplets=2000,
        input_scale=1.0 / 1023.0,
        seed=TOY_SEED,
    )


@pytest.fixture(scope="session")
def toy_run():
    """Train the toy estimator once; later tests reuse every artifact."""
    config = toy_config()
    scenes = synthetic.make_scene_pool(
        derive_stream(TOY_SEED, 4), 64, config.patch_height, config.patch_width
    )
    bank = synthetic.default_camera_bank()

    init_net = EstimatorNetwork.initialize(config)
    init_checkpoint = EstimatorCheckpoint(
        config=config, params={k: v.copy() for k, v in init_net.params.items()}
    )

    stage_snapshots = {}
    checkpoint = train(
        config,
        scenes,
        bank,
        on_stage_end=lambda stage, params: stage_snapshots.__setitem__(stage, params),
    )
    stage1_checkpoint = EstimatorCheckpoint(config=config, params=stage_snapshots[1])

    heldout = make_triplet_batch(scenes, bank, derive_stream(999, 0), 300)
    train_dataset = make_triplet_batch(
        scenes, bank, derive_stream(TOY_SEED, 1), config.train_triplets
    )

    return {
        "config": config,
        "scenes": scenes,
        "bank": bank,
        "checkpoint": checkpoint,
        "stage1_checkpoint": stage1_checkpoint,
        "init_checkpoint": init_checkpoint,
        "heldout": heldout,
        "train_params": train_dataset.anchor_params,
    }
