"""Opt-in: held-out quality of the toy estimator over training and held-out seeds.

Criterion 8 scores one training seed on one held-out batch.  This check
trains the conftest toy configuration at three seeds and scores each run on
three held-out batches, so a change to the training arithmetic is judged
against the seed spread rather than one draw.  It trains three full toy
runs, so it is skipped unless ``RAWNOISE_SLOW=1`` is set:

    RAWNOISE_SLOW=1 PYTHONPATH=src python -m pytest -q -s tests/test_heldout_seeds.py
"""

import os
import statistics
from dataclasses import replace

import pytest
from conftest import toy_config, toy_scenes
from heldout import score_heldout, train_anchor_params

from rawnoise import synthetic
from rawnoise.estimator import make_triplet_batch, train
from rawnoise.streams import derive_stream

TRAIN_SEEDS = (11, 12, 13)
HELDOUT_SEEDS = (999, 1000, 1001)
HELDOUT_TRIPLETS = 300

pytestmark = pytest.mark.skipif(
    os.environ.get("RAWNOISE_SLOW") != "1", reason="trains three toy runs; set RAWNOISE_SLOW=1"
)


def test_heldout_quality_over_seeds():
    bank = synthetic.default_camera_bank()
    rows = []
    for seed in TRAIN_SEEDS:
        config = replace(toy_config(), seed=seed)
        scenes = toy_scenes(config)
        checkpoint = train(config, scenes, bank)
        train_params = train_anchor_params(bank, config)
        for heldout_seed in HELDOUT_SEEDS:
            heldout = make_triplet_batch(
                scenes, bank, derive_stream(heldout_seed, 0), HELDOUT_TRIPLETS
            )
            scores = score_heldout(checkpoint, heldout, train_params)
            accuracy = scores["accuracy"]
            ratio = scores["mse"] / scores["baseline"]
            rows.append((seed, heldout_seed, accuracy, ratio))

    print("\n| train seed | held-out seed | accuracy | MSE ratio |\n|---|---|---|---|")
    for seed, heldout_seed, accuracy, ratio in rows:
        print(f"| {seed} | {heldout_seed} | {accuracy:.3f} | {ratio:.3f} |")
    accuracies = [row[2] for row in rows]
    ratios = [row[3] for row in rows]
    print(
        f"median accuracy {statistics.median(accuracies):.3f} (min {min(accuracies):.3f}), "
        f"median MSE ratio {statistics.median(ratios):.3f} (max {max(ratios):.3f})"
    )
    assert statistics.median(accuracies) >= 0.9
    assert statistics.median(ratios) <= 0.25
