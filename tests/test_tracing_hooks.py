"""The benchmark's per-layer hooks still reach the estimator, sampler, oracle and io layers.

``bench/tracing.py`` wraps functions at the place the program looks them up.
A hook whose name a refactor removed is only reported as absent, and its
layer then reads 0, so a rename in the network, the training loop, the
training-set draw, the oracle or the write path would silently zero the
per-layer metrics.  This test reads ``bench/`` and changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from cli_harness import CAMERA, status, write_json

from rawnoise import oracle, synthetic
from rawnoise.estimator import ConvStage, EstimatorConfig, train
from rawnoise.streams import derive_stream

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# Hooks whose targets were removed on purpose; the benchmark still lists them.
KNOWN_STALE = {"_haar_batch", "_generate_dataset", "estimate_color_bias", "estimate_row_sigma"}


def _load_tracing():
    name = "rawnoise_bench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


# The layers the training-set draw reaches below the estimator: the samplers
# ``add_noise`` calls and ``sample_params`` where the triplets look it up.
TRAINING_DRAW = {
    "noise_core.sample_shot",
    "noise_core.sample_row",
    "noise_core.sample_read",
    "calibration.sample_params",
}


def test_estimator_hooks_resolve_and_record(cpus):
    # Tracer keeps one span stack for all threads, so spans drawn on two
    # threads at once would be lost; draw the training set on this one.
    cpus(1)
    tracing = _load_tracing()
    hooks = [
        hook for hook in tracing.HOOKS
        if str(hook[0]).startswith("estimator.") or hook[0] in TRAINING_DRAW
    ]
    assert {hook[0] for hook in hooks} >= TRAINING_DRAW

    config = EstimatorConfig(
        patch_height=8, patch_width=8,
        extractor=(ConvStage(3, 2, 4), ConvStage(3, 1, 4)), feature_dim=8,
        projector=(6, 4), head=(6, 4), batch_size=2, epochs_per_stage=1,
        train_triplets=4, seed=3,
    )
    scenes = synthetic.make_scene_pool(derive_stream(5, 0), 4, 8, 8)
    tracer = tracing.Tracer()
    tracer.install(hooks)
    try:
        checkpoint = train(config, scenes, synthetic.default_camera_bank())
    finally:
        tracer.uninstall()

    absent = [label for label in tracer.absent if label.rsplit(".", 1)[-1] not in KNOWN_STALE]
    assert absent == []
    assert tracer.broken_counters == set()
    live = {layer for layer, _, attr, _ in hooks if attr.rsplit(".", 1)[-1] not in KNOWN_STALE}
    idle = sorted(layer for layer in live if tracer.stats[layer].calls == 0)
    assert idle == []
    assert tracer.stats["estimator.network.conv_backward"].counts["gflop"] > 0
    # Each triplet draws two tuples (no bank tuple collides) and three noisy patches.
    assert {layer: tracer.stats[layer].calls for layer in TRAINING_DRAW} == {
        "noise_core.sample_shot": 3 * config.train_triplets,
        "noise_core.sample_row": 3 * config.train_triplets,
        "noise_core.sample_read": 3 * config.train_triplets,
        "calibration.sample_params": 2 * config.train_triplets,
    }
    assert all(np.isfinite(row["total"]) for row in checkpoint.metadata["loss_log"])


def test_oracle_hooks_resolve_and_record_one_call_each():
    tracing = _load_tracing()
    hooks = [hook for hook in tracing.HOOKS if str(hook[0]).startswith("oracle.")]
    assert len(hooks) == 4
    live = [layer for layer, _, attr, _ in hooks if attr not in KNOWN_STALE]
    assert len(live) == 2

    rng = np.random.default_rng(0)
    flats = [(level, [rng.normal(level, 2.0, size=(4, 8, 8)) for _ in range(2)])
             for level in (10.0, 40.0)]
    darks = [rng.normal(0.5, 2.0, size=(4, 8, 8)) for _ in range(2)]
    tracer = tracing.Tracer()
    tracer.install(hooks)
    try:
        params = oracle.estimate_params_oracle(flats, darks)
    finally:
        tracer.uninstall()

    assert [label for label in tracer.absent if label.rsplit(".", 1)[-1] not in KNOWN_STALE] == []
    assert tracer.broken_counters == set()
    assert {layer: tracer.stats[layer].calls for layer in live} == {layer: 1 for layer in live}
    assert params.K > 0


def test_io_hooks_record_the_gen_dataset_writes(tmp_path, cpus):
    """Each patch of a train-mode run is two tensors and one manifest,
    written through the names the io hooks wrap."""
    # Units write their files concurrently, and the tracer's one span stack
    # would drop a write made while another thread's is open.
    cpus(1)
    tracing = _load_tracing()
    hooks = [hook for hook in tracing.HOOKS if str(hook[0]).startswith("io.")]
    assert hooks

    camera = write_json(tmp_path / "camera.json", CAMERA)
    tracer = tracing.Tracer()
    tracer.install(hooks)
    try:
        code = status("gen-dataset", "--out", tmp_path / "set", "--seed", 1, "--mode", "train",
                      "--count", 3, "--height", 8, "--width", 8, "--camera", camera)
    finally:
        tracer.uninstall()

    assert code == 0
    assert tracer.absent == []
    assert tracer.broken_counters == set()
    assert tracer.stats["io.write_tensor"].calls == 6
    assert tracer.stats["io.write_tensor"].counts["mb"] == pytest.approx(6 * 4 * 4 * 8 * 8 / 1e6)
    assert tracer.stats["io.manifest_save"].calls == 3
