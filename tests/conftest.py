"""Shared fixtures; the expensive toy training run happens once per session."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from rawnoise import synthetic
from rawnoise.estimator import (
    ConvStage,
    EstimatorCheckpoint,
    EstimatorConfig,
    EstimatorNetwork,
    make_triplet_batch,
    train,
)
from rawnoise.metrics import NoiseHistogram
from rawnoise.streams import derive_stream

TOY_SEED = 11


def naive_contrastive(z, n_anchors: int, tau: float) -> float:
    """The mean contrastive loss by naive summation over rows ``[anchors, positives, negatives]``.

    Anchor i's loss is ``-log(exp(cos(z_i, z_{B+i})/tau) / sum_j exp(cos(z_i, z_j)/tau))``,
    the sum running over every row j but i itself.
    """

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    losses = []
    for i in range(n_anchors):
        num = math.exp(cos(z[i], z[n_anchors + i]) / tau)
        den = sum(math.exp(cos(z[i], z[j]) / tau) for j in range(len(z)) if j != i)
        losses.append(-math.log(num / den))
    return sum(losses) / n_anchors


def gaussian_histogram(mean: float, std: float, edges, count: int = 0) -> NoiseHistogram:
    """Bin masses of an exact Gaussian over ``edges``, from scipy's CDF, tails in the edge bins."""
    cdf = stats.norm.cdf(edges, loc=mean, scale=std)
    masses = np.diff(cdf)
    masses[0] += cdf[0]
    masses[-1] += 1.0 - cdf[-1]
    return NoiseHistogram(edges=np.asarray(edges, dtype=np.float64), masses=masses, count=count)


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
