"""The training set on several threads, and training with its helper thread:
the bytes and errors of a serial loop."""

import hashlib
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from rawnoise import synthetic
from rawnoise.calibration import CameraModel
from rawnoise.errors import ConfigurationError, DomainError, ShapeError
from rawnoise.estimator import (
    ConvStage,
    EstimatorConfig,
    augment_triplet,
    draw_params,
    make_triplet_batch,
    train,
)
from rawnoise.streams import DATA_STREAM, SCENE_STREAM, derive_stream

POINT_MASS = CameraModel(
    a=0.5, b=0.0, a_r=0.5, b_r=0.0, sigma_hat=0.0, sigma_r_hat=0.0,
    K_min=1.0, K_max=1.0, mu_c_model=0.0,
)


def _scenes(count=6):
    return synthetic.make_scene_pool(derive_stream(60, 0), count, 8, 8, white_level=64.0)


def _stream(seed, i):
    """Triplet i's stream, PCG64(SeedSequence(seed, (DATA_STREAM, i)))."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(DATA_STREAM, i)))


def _serial(scene_pool, bank, seed, size):
    """A plain loop over the triplet streams, one triplet at a time."""
    patches = np.empty((size, 3, *np.shape(scene_pool[0])), np.float32)
    anchor_params = tuple(
        augment_triplet(scene_pool, bank, _stream(seed, i), patches[i]) for i in range(size)
    )
    return patches.swapaxes(0, 1), anchor_params


def _first_error(scene_pool, bank, seed, size):
    """The index and error of the first triplet a serial loop refuses."""
    out = np.empty((3, *np.shape(scene_pool[0])), np.float32)
    for i in range(size):
        try:
            augment_triplet(scene_pool, bank, _stream(seed, i), out)
        except (ConfigurationError, DomainError) as exc:
            return i, exc
    raise AssertionError("no triplet was refused")


def test_batch_bytes_do_not_depend_on_the_thread_count(cpus):
    scenes, bank = _scenes(), synthetic.default_camera_bank()
    patches, anchor_params = _serial(scenes, bank, 61, 11)
    for n in (1, 2, 4):
        cpus(n)
        rng = derive_stream(61, DATA_STREAM)
        batch = make_triplet_batch(scenes, bank, rng, 11)
        assert batch.patches.tobytes() == patches.tobytes(), n
        assert batch.anchor_params == anchor_params, n
        # Spawning the triplet streams draws nothing from rng.
        assert rng.random() == derive_stream(61, DATA_STREAM).random()
    # Each stream draws its anchor tuple first, so the tuples alone cost no patches.
    streams = derive_stream(61, DATA_STREAM).spawn(11)
    assert tuple(draw_params(bank, stream) for stream in streams) == anchor_params


# sha256 of the seed-1 toy training set (64 scenes of 32x32, 256 triplets):
# its patch bytes, and the repr of its anchor tuples as dicts.
TRAINING_SET_SHA256 = (
    "e140e340085964a42edf572768830dbde868cf344356456e83b5a288dfc5fd40",
    "1d58174bbb1d46aae7fef157f2c8bd1f35cb0c02a212a66c62f4a40fb820ef35",
)


@pytest.mark.parametrize("n", [1, 2])
def test_the_training_set_keeps_its_bytes(cpus, n):
    """Fixed digests, not a second run of ``augment_triplet``, so an edit that
    moves both sides of the serial comparison above still shows."""
    cpus(n)
    scenes = synthetic.make_scene_pool(derive_stream(1, SCENE_STREAM), 64, 32, 32)
    batch = make_triplet_batch(
        scenes, synthetic.default_camera_bank(), derive_stream(1, DATA_STREAM), 256
    )
    anchors = repr([params.as_dict() for params in batch.anchor_params]).encode()
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (batch.patches.tobytes(), anchors))
    assert digests == TRAINING_SET_SHA256


SMALL = EstimatorConfig(
    patch_height=8, patch_width=8, extractor=(ConvStage(3, 2, 4),), feature_dim=8,
    projector=(6, 4), head=(6, 4), batch_size=4, epochs_per_stage=1,
    train_triplets=9, input_scale=1 / 64.0, seed=62,
)


def test_checkpoint_bytes_do_not_depend_on_the_thread_count(cpus):
    """9 triplets in batches of 4 skip a last batch of 1; 10 train a short
    last batch of 2 from the front of the full-size buffers."""
    for triplets in (9, 10):
        config = replace(SMALL, train_triplets=triplets)
        digests = set()
        for n in (1, 2, 4):
            cpus(n)
            digests.add(train(config, _scenes(), synthetic.default_camera_bank()).to_bytes())
        assert len(digests) == 1, triplets


def test_checkpoint_bytes_hold_when_threads_switch_often(cpus):
    """The helper refills its buffers while steps run; with the interpreter
    switching threads every microsecond, no step may read a refilled one."""
    config = replace(SMALL, train_triplets=10)
    scenes, bank = _scenes(), synthetic.default_camera_bank()
    cpus(1)
    expected = train(config, scenes, bank).to_bytes()
    cpus(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert train(config, scenes, bank).to_bytes() == expected
    finally:
        sys.setswitchinterval(interval)


def test_training_at_one_cpu_starts_no_thread(cpus, no_thread):
    cpus(1)
    checkpoint = train(SMALL, _scenes(), synthetic.default_camera_bank())
    assert len(checkpoint.metadata["loss_log"]) == 2


def test_a_diverging_run_joins_its_helper(cpus):
    """The step that overflows is refused after its epoch with the message
    of a one-CPU run, and the helper thread has stopped by then."""
    config = replace(SMALL, learning_rate=1e300)
    scenes, bank = _scenes(), synthetic.default_camera_bank()
    messages = []
    for n in (1, 2):
        cpus(n)
        threads = threading.active_count()
        with pytest.raises(DomainError, match="training diverged at stage 1, epoch 0") as caught:
            train(config, scenes, bank)
        assert threading.active_count() == threads, n
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_one_cpu_starts_no_thread(cpus, no_thread):
    cpus(1)
    batch = make_triplet_batch(_scenes(), synthetic.default_camera_bank(), derive_stream(63, 1), 5)
    assert len(batch) == 5


# A finite camera whose read-noise mean overflows the float32 stack.
BEYOND_FLOAT32 = replace(synthetic.default_camera_bank()[0], mu_c_model=1e300)


@pytest.mark.parametrize("n, bank, error", [
    *(pytest.param(n, POINT_MASS, ConfigurationError, id=f"{n}") for n in (1, 2, 4)),
    *(pytest.param(n, BEYOND_FLOAT32, DomainError, id=f"beyond float32-{n}") for n in (1, 2, 4)),
])
def test_a_degenerate_bank_is_refused_alike_at_any_thread_count(cpus, n, bank, error):
    cpus(n)
    _, expected = _first_error(_scenes(), [bank], 64, 6)
    with pytest.raises(error) as caught:
        make_triplet_batch(_scenes(), [bank], derive_stream(64, DATA_STREAM), 6)
    assert str(caught.value) == str(expected)


@pytest.mark.parametrize("bad", [-1.0, 1e30], ids=["negative scene", "shot rate out of range"])
def test_the_lowest_failing_triplet_is_raised(cpus, bad):
    """One bad scene in sixteen: several triplets fail, and the error raised is
    the one a serial loop meets first (the shot-rate message names its K)."""
    scenes = _scenes(16)
    scenes[5] = np.full_like(scenes[5], bad)
    bank = synthetic.default_camera_bank()
    index, expected = _first_error(scenes, bank, 65, 40)
    assert index > 0  # triplets before the refused one are drawn, on any thread
    for n in (1, 2, 4, 4, 4):
        cpus(n)
        with pytest.raises(DomainError) as caught:
            make_triplet_batch(scenes, bank, derive_stream(65, DATA_STREAM), 40)
        assert str(caught.value) == str(expected), n


@pytest.mark.parametrize("empty", ["scene pool", "camera bank"])
def test_empty_pools_are_refused_before_any_thread_starts(cpus, no_thread, empty):
    cpus(4)
    scenes, bank = _scenes(), synthetic.default_camera_bank()
    scenes, bank = ([], bank) if empty == "scene pool" else (scenes, [])
    with pytest.raises(ConfigurationError, match=f"{empty} is empty"):
        make_triplet_batch(scenes, bank, derive_stream(66, 1), 8)


def test_mixed_scene_shapes_are_refused_before_any_thread_starts(cpus, no_thread):
    cpus(4)
    scenes = _scenes(3) + synthetic.make_scene_pool(derive_stream(60, 1), 2, 16, 16)
    with pytest.raises(ShapeError, match="mixes shapes"):
        make_triplet_batch(scenes, synthetic.default_camera_bank(), derive_stream(67, 1), 8)


class _NoSpawn:
    def spawn(self, n):
        raise AssertionError(f"spawned {n} streams")


def test_a_stack_too_large_fails_before_any_stream_is_spawned(cpus, no_thread):
    """10**12 triplets of 8x8 scenes take 2.7 PiB, beyond any address space;
    the allocation must fail before the streams (about 1 KB each) exist."""
    cpus(4)
    with pytest.raises(MemoryError):
        make_triplet_batch(_scenes(), synthetic.default_camera_bank(), _NoSpawn(), 10**12)
