"""Shared fixtures; the expensive toy training run happens once per session.

The toy model trains in a child process (this file run as a script) that
starts once collection is done, so the other tests run beside it on the
second CPU; the tests that use ``toy_run`` are moved to the end of the run.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from heldout import train_anchor_params
from scipy import stats

import rawnoise
from rawnoise import parallel, synthetic
from rawnoise.estimator import (
    ConvStage,
    EstimatorCheckpoint,
    EstimatorConfig,
    EstimatorNetwork,
    make_triplet_batch,
    train,
)
from rawnoise.metrics import NoiseHistogram
from rawnoise.streams import SCENE_STREAM, derive_stream

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


def roll_scene(rng, height: int, width: int, white_level: float, kind: str) -> np.ndarray:
    """``synthetic.make_scene`` as first written: the blur sums ``np.roll`` copies.

    The oracle for the in-place version, which must give the same bits.
    """
    shape = (4, height, width)
    if kind == "flat":
        base = np.full(shape, 0.5)
    elif kind == "gradient":
        yy = np.linspace(0.0, 1.0, height)[None, :, None]
        xx = np.linspace(0.0, 1.0, width)[None, None, :]
        wy, wx = rng.uniform(-1.0, 1.0, size=2)
        base = np.broadcast_to(wy * yy + wx * xx, shape).copy()
    elif kind == "rectangles":
        base = np.full(shape, rng.uniform(0.0, 1.0))
        for _ in range(int(rng.integers(2, 7))):
            y0, y1 = np.sort(rng.integers(0, height + 1, size=2))
            x0, x1 = np.sort(rng.integers(0, width + 1, size=2))
            base[:, y0:y1, x0:x1] = rng.uniform(0.0, 1.0)
    else:
        base = rng.uniform(0.0, 1.0, size=shape)
        for _ in range(4):
            for axis in (1, 2):
                base = (
                    2.0 * base + np.roll(base, 1, axis=axis) + np.roll(base, -1, axis=axis)
                ) / 4.0
    base = base * rng.uniform(0.6, 1.0, size=(4, 1, 1))
    lo_frac = 0.0 if rng.uniform() < 1.0 / 3.0 else rng.uniform(0.0, 0.3)
    hi_frac = rng.uniform(lo_frac + 0.1, 1.0)
    span = base.max() - base.min()
    if span == 0.0:
        normalized = np.full(shape, (lo_frac + hi_frac) / 2.0)
    else:
        normalized = lo_frac + (base - base.min()) / span * (hi_frac - lo_frac)
    return normalized * white_level


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


def toy_scenes(config: EstimatorConfig):
    """The 64-scene pool of a toy run, on its seed's scene stream."""
    return synthetic.make_scene_pool(
        derive_stream(config.seed, SCENE_STREAM), 64, config.patch_height, config.patch_width
    )


def _train_toy(out_dir: Path) -> None:
    """Train ``toy_config()``; save its final and stage-1 checkpoints in ``out_dir``."""
    config = toy_config()
    stage_snapshots = {}
    checkpoint = train(
        config,
        toy_scenes(config),
        synthetic.default_camera_bank(),
        on_stage_end=lambda stage, params: stage_snapshots.__setitem__(stage, params),
    )
    checkpoint.save(out_dir / "final.nest")
    EstimatorCheckpoint(config=config, params=stage_snapshots[1]).save(out_dir / "stage1.nest")


@pytest.fixture()
def cpus(monkeypatch):
    """Set the CPU count that ``parallel.run_units`` sees: ``cpus(n)``."""
    return lambda n: monkeypatch.setattr(parallel, "cpu_count", lambda: n)


@pytest.fixture()
def no_thread(monkeypatch):
    """Fail the test if ``parallel`` starts a thread."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(parallel.threading, "Thread", refuse)


# The running toy-training child and its output directory, once started.
TOY_CHILD = pytest.StashKey[tuple[subprocess.Popen, Path]]()
TOY_TIMEOUT_S = 600


def _start_toy_child(config) -> tuple[subprocess.Popen, Path]:
    out_dir = Path(tempfile.mkdtemp(prefix="rawnoise-toy-"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(rawnoise.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with open(out_dir / "stderr.txt", "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, __file__, str(out_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr,
        )
    config.stash[TOY_CHILD] = process, out_dir
    return process, out_dir


def _stop_toy_child(config) -> None:
    process, out_dir = config.stash[TOY_CHILD]
    del config.stash[TOY_CHILD]
    process.kill()  # a no-op once it has exited
    process.wait()
    shutil.rmtree(out_dir, ignore_errors=True)


def _uses_toy_run(item) -> bool:
    return "toy_run" in getattr(item, "fixturenames", ())


@pytest.hookimpl(trylast=True)  # after ``-k``/``-m`` have deselected
def pytest_collection_modifyitems(config, items):
    items.sort(key=_uses_toy_run)  # stable: the toy_run tests go last
    if any(map(_uses_toy_run, items)) and not config.option.collectonly:
        _start_toy_child(config)


def pytest_sessionfinish(session):
    if TOY_CHILD in session.config.stash:
        _stop_toy_child(session.config)


@pytest.fixture(scope="session")
def toy_run(pytestconfig):
    """The toy estimator trained once; later tests reuse every artifact."""
    process, out_dir = (
        pytestconfig.stash.get(TOY_CHILD, None) or _start_toy_child(pytestconfig)
    )
    try:
        if process.wait(timeout=TOY_TIMEOUT_S) != 0:
            stderr = (out_dir / "stderr.txt").read_text(errors="replace")
            pytest.fail(f"toy training exited {process.returncode}:\n{stderr}")
        checkpoint = EstimatorCheckpoint.load(out_dir / "final.nest")
        stage1_checkpoint = EstimatorCheckpoint.load(out_dir / "stage1.nest")
    finally:
        _stop_toy_child(pytestconfig)

    config = toy_config()
    scenes = toy_scenes(config)
    bank = synthetic.default_camera_bank()
    init_net = EstimatorNetwork.initialize(config)
    init_checkpoint = EstimatorCheckpoint(
        config=config, params={k: v.copy() for k, v in init_net.params.items()}
    )
    heldout = make_triplet_batch(scenes, bank, derive_stream(999, 0), 300)
    train_params = train_anchor_params(bank, config)

    return {
        "config": config,
        "scenes": scenes,
        "bank": bank,
        "checkpoint": checkpoint,
        "stage1_checkpoint": stage1_checkpoint,
        "init_checkpoint": init_checkpoint,
        "heldout": heldout,
        "train_params": train_params,
    }


if __name__ == "__main__":
    _train_toy(Path(sys.argv[1]))
