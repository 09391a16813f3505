"""The three benchmark workloads and their correctness checks.

Each workload is a closed loop with one client: :meth:`step` makes its
calls one after another, the next starting only when the previous one has
returned, and times each call alone.  Checks run outside the timed region.
The constructor is the set-up: it builds every input from the workload
seed and the index of the measuring process under a private work directory.  The first :meth:`step` is the
warm-up, and its outputs are the reference later steps must reproduce.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rawnoise import cli, synthetic
from rawnoise.calibration import sample_params
from rawnoise.estimator import ConvStage, EstimatorCheckpoint, EstimatorConfig, EstimatorNetwork
from rawnoise.io import write_tensor
from rawnoise.noise_core import NoiseParams, synthesize_noise
from rawnoise.streams import derive_stream

# `rawnoise.estimator.train` as a package attribute is the function, not
# the module; the module is what the tracer patches.
train_module = importlib.import_module("rawnoise.estimator.train")


@dataclass(frozen=True)
class Sample:
    """One timed call: its request kind, wall time, work units and check."""

    kind: str
    seconds: float
    work: float
    ok: bool


def toy_config(seed: int, train_triplets: int = 2000, epochs_per_stage: int = 30):
    """The desk-scale estimator geometry used by the test suite."""
    return EstimatorConfig(
        patch_height=32,
        patch_width=32,
        extractor=(ConvStage(3, 2, 16), ConvStage(3, 2, 32), ConvStage(3, 2, 64)),
        feature_dim=128,
        projector=(64, 32),
        head=(64, 4),
        learning_rate=1e-3,
        batch_size=32,
        epochs_per_stage=epochs_per_stage,
        train_triplets=train_triplets,
        input_scale=1.0 / 1023.0,
        seed=seed,
    )


def _timed_cli(argv) -> tuple[float, int, str]:
    """Run one in-process CLI request; returns (seconds, exit code, stdout)."""
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return time.perf_counter() - start, code, stdout.getvalue()


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _draw(bank, rng) -> NoiseParams:
    return sample_params(bank[rng.integers(len(bank))], rng)


def _write_cameras(workdir: Path) -> list[str]:
    paths = []
    for i, camera in enumerate(synthetic.default_camera_bank()):
        path = workdir / f"camera_{i}.json"
        path.write_text(json.dumps(camera.as_dict(), sort_keys=True))
        paths.append(str(path))
    return paths


class Train:
    """One in-process ``train(config, scenes, bank)`` call per step."""

    name = "train"
    throughput_name = "train_triplets_per_s"
    unit = "triplet-visits/s"
    TRAIN_TRIPLETS = 256
    EPOCHS_PER_STAGE = 3
    TRACE_STEPS = 2

    def __init__(self, seed: int, workdir: Path, part: int = 0):
        self.config = toy_config(seed, self.TRAIN_TRIPLETS, self.EPOCHS_PER_STAGE)
        self.scenes = synthetic.make_scene_pool(derive_stream(seed, cli.SCENE_STREAM), 64, 32, 32)
        self.bank = synthetic.default_camera_bank()
        self.visits = 2 * self.config.epochs_per_stage * self.config.train_triplets
        self.reference = None

    def step(self) -> list[Sample]:
        start = time.perf_counter()
        checkpoint = train_module.train(self.config, self.scenes, self.bank)
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(checkpoint.to_bytes()).hexdigest()
        self.reference = self.reference or digest
        finite = all(
            math.isfinite(row[key])
            for row in checkpoint.metadata["loss_log"]
            for key in ("contrastive", "regression", "total")
        )
        return [Sample("train", seconds, self.visits, finite and digest == self.reference)]


class GenDataset:
    """One in-process ``rawnoise gen-dataset --mode train`` call per step."""

    name = "gen_dataset"
    throughput_name = "gen_patches_per_s"
    unit = "patches/s"
    # Few large patches: creating a file costs 0.3-1.7 ms on the reference
    # file system, varying from minute to minute.  With 900 files a call
    # (300 patches of 64x64) that variation swamped the timings.  20
    # patches of 256x256 hold about as many pixels in 60 files.
    PATCHES = 20
    SIZE = 256
    TRACE_STEPS = 4
    # A call's cost depends on the cameras and tuples its patches draw, by
    # up to 10% between dataset seeds, so each measuring process cycles
    # over dataset seeds of its own.
    DATASET_SEEDS = 4

    def __init__(self, seed: int, workdir: Path, part: int = 0):
        self.workdir = workdir
        self.dataset_seeds = [
            int(s) for s in np.random.SeedSequence([seed, part]).generate_state(self.DATASET_SEEDS)
        ]
        self.argv = ["gen-dataset", "--mode", "train",
                     "--count", str(self.PATCHES), "--height", str(self.SIZE), "--width", str(self.SIZE)]
        for path in _write_cameras(workdir):
            self.argv += ["--camera", path]
        self.calls = 0
        self.reference: dict[int, str] = {}

    def step(self) -> list[Sample]:
        # Every call writes a fresh tree, as a user would.  Trees are removed
        # with the work directory: deleting them between calls slowed the
        # next calls' file creation by up to 60%.
        # After the warm-up call, calls go in pairs on one dataset seed: every
        # seed's output is checked against a repeat, and in a traced run each
        # traced call repeats the input of the untraced call before it.
        dataset_seed = self.dataset_seeds[(self.calls + 1) // 2 % self.DATASET_SEEDS]
        out = self.workdir / f"dataset_{self.calls:04d}"
        self.calls += 1
        seconds, code, _ = _timed_cli([*self.argv, "--seed", str(dataset_seed), "--out", str(out)])
        digest = _tree_digest(out)
        ok = code == 0 and self.reference.setdefault(dataset_seed, digest) == digest
        return [Sample("gen_dataset", seconds, self.PATCHES, ok)]


class Estimate:
    """A fixed cyclic mix of estimate and eval-kl requests per step."""

    name = "estimate"
    throughput_name = "estimate_requests_per_s"
    unit = "requests/s"
    TRUTH = NoiseParams(K=1.5, sigma=2.0, mu_c=0.5, sigma_r=0.8)
    # Relative tolerance on K, sigma and sigma_r; absolute on mu_c (DN).
    ORACLE_TOLERANCE = {"K": 0.03, "sigma": 0.05, "mu_c": 0.05, "sigma_r": 0.05}
    FLAT_LEVELS = "0,8,16,32,64"
    LEARNED_PATCHES = 48
    KL_PAIRS = 12
    PAIRS_PER_CYCLE = 8
    TRACE_STEPS = 8

    def __init__(self, seed: int, workdir: Path, part: int = 0):
        truth = json.dumps(self.TRUTH.as_dict())
        frames = ["--height", "128", "--width", "128", "--params", truth]
        flat, dark = workdir / "flat", workdir / "dark"
        for argv in (
            ["gen-dataset", "--mode", "flat", "--out", str(flat), "--seed", str(2 * seed),
             "--count", "8", "--levels", self.FLAT_LEVELS, *frames],
            ["gen-dataset", "--mode", "dark", "--out", str(dark), "--seed", str(2 * seed + 1),
             "--count", "64", *frames],
        ):
            if cli.main(argv) != 0:
                raise RuntimeError(f"set-up command failed: {' '.join(argv[:3])}")
        self.out = workdir / "estimate.json"
        self.oracle_argv = ["estimate", "--oracle", "--flat-series", str(flat),
                            "--dark", str(dark), "--out", str(self.out)]

        # Timing does not depend on trained values, so an initialized
        # network stands in for a trained one.
        config = toy_config(seed)
        checkpoint_path = workdir / "estimator.nest"
        EstimatorCheckpoint(config, EstimatorNetwork.initialize(config).params).save(checkpoint_path)
        rng = derive_stream(seed, 5)
        bank = synthetic.default_camera_bank()
        scenes = synthetic.make_scene_pool(rng, self.LEARNED_PATCHES, 32, 32)
        self.learned_argvs = []
        for i, scene in enumerate(scenes):
            params = _draw(bank, rng)
            path = workdir / f"patch_{i:03d}.nraw"
            write_tensor(path, synthesize_noise(scene, params, rng)[0])
            self.learned_argvs.append(["estimate", "--input", str(path), "--checkpoint",
                                       str(checkpoint_path), "--out", str(self.out)])

        scene = synthetic.make_scene(rng, 128, 128)
        self.kl_argvs = []
        for i in range(self.KL_PAIRS):
            pair = []
            for side in ("real", "synth"):
                path = workdir / f"kl_{i:03d}_{side}.nraw"
                write_tensor(path, synthesize_noise(scene, _draw(bank, rng), rng)[1].total)
                pair.append(str(path))
            self.kl_argvs.append(["eval-kl", "--real", pair[0], "--synth", pair[1]])

        self.cursor = 0
        self.reference: dict[tuple, str] = {}

    def _request(self, kind: str, argv) -> Sample:
        seconds, code, stdout = _timed_cli(argv)
        if code != 0:
            return Sample(kind, seconds, 1, False)
        output = stdout if kind == "eval_kl" else self.out.read_text()
        ok = self._plausible(kind, json.loads(output))
        ok = ok and self.reference.setdefault((kind, tuple(argv)), output) == output
        return Sample(kind, seconds, 1, ok)

    def _plausible(self, kind: str, record: dict) -> bool:
        if kind == "eval_kl":
            return math.isfinite(record["kl"]) and record["kl"] >= 0.0
        values = [record[name] for name in ("K", "sigma", "mu_c", "sigma_r")]
        if not all(math.isfinite(v) for v in values):
            return False
        if kind == "learned_estimate":
            return True
        truth = self.TRUTH.as_dict()
        for name, tolerance in self.ORACLE_TOLERANCE.items():
            error = abs(record[name] - truth[name])
            if error > (tolerance if name == "mu_c" else tolerance * truth[name]):
                return False
        return True

    def step(self) -> list[Sample]:
        samples = [self._request("oracle_estimate", self.oracle_argv)]
        for _ in range(self.PAIRS_PER_CYCLE):
            samples.append(
                self._request("learned_estimate", self.learned_argvs[self.cursor % self.LEARNED_PATCHES])
            )
            samples.append(self._request("eval_kl", self.kl_argvs[self.cursor % self.KL_PAIRS]))
            self.cursor += 1
        return samples


WORKLOADS = {cls.name: cls for cls in (Train, GenDataset, Estimate)}
