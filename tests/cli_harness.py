"""What the command-line tests share: one runner, the records and toy configs
the commands read, the valid inputs of each reading command, and a tree snapshot.

Each ``*_inputs(base, ...)`` writes a command's inputs under ``base`` and
returns its argv; the argv of a command with an ``--out`` ends in
``--out base/out.*``.
"""

import json
from pathlib import Path

import numpy as np

from rawnoise.cli import main
from rawnoise.estimator import ConvStage, EstimatorCheckpoint, EstimatorConfig, EstimatorNetwork
from rawnoise.io import tensor_to_bytes

PARAMS = {"K": 1.5, "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}
PARAMS_JSON = json.dumps(PARAMS)
ESTIMATES_HEADER = b"image_id,K,sigma,mu_c,sigma_r\n"
ESTIMATES = ESTIMATES_HEADER + b"a,0.5,1.0,0.0,0.5\nb,1.0,1.3,0.0,0.7\n"
CAMERA = {
    "a": 0.7, "b": 0.1, "a_r": 0.5, "b_r": -0.2, "sigma_hat": 0.1, "sigma_r_hat": 0.1,
    "K_min": 0.25, "K_max": 8.0, "mu_c_model": 0.0,
}
# The toy network, and its training config: one epoch a stage over 8 triplets.
STAGE = {"kernel": 3, "stride": 2, "width": 4, "nonlinearity": "relu"}
NET = {"extractor": [STAGE], "feature_dim": 8, "projector": [6, 4], "head": [6, 4],
       "patch_height": 8, "patch_width": 8}
TRAIN = {**NET, "batch_size": 4, "epochs_per_stage": 1, "train_triplets": 8, "seed": 21,
         "scene_pool_size": 4}
# gen-dataset runs refused after some frames are written, as (mode, flags): a
# level of 1e30 at K = 1e-10 is a Poisson rate beyond numpy's sampler, and a
# read noise of 1e300 overflows float32.
REFUSED_MIDWAY = {
    "flat_shot_rate": ("flat", ["--levels", "4,1e30", "--params",
                                '{"K": 1e-10, "sigma": 1.0, "mu_c": 0.0, "sigma_r": 1.0}']),
    "dark_float32_overflow": (
        "dark", ["--params", '{"K": 1.0, "sigma": 1e300, "mu_c": 0.0, "sigma_r": 1.0}']),
}
# The untrained 8x8 estimator that estimate reads.
TINY = EstimatorConfig(
    patch_height=8, patch_width=8, extractor=(ConvStage(3, 2, 2),), feature_dim=4,
    projector=(3,), head=(3, 4),
)


def status(*argv) -> int:
    """The exit status of ``main`` on ``argv``, each argument ``str``-ed.

    argparse's refusals exit from inside ``main``; their ``SystemExit`` code
    is returned like any other status.
    """
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def tree(base) -> dict:
    """Every path under ``base``, relative to it, with its bytes (None for a directory)."""
    return {p.relative_to(base): p.read_bytes() if p.is_file() else None for p in base.rglob("*")}


def write_json(path, record) -> Path:
    path.write_text(json.dumps(record))
    return path


def nest_bytes(config: EstimatorConfig) -> bytes:
    """The NEST checkpoint of ``config``'s initialized (untrained) network."""
    return EstimatorCheckpoint(config, EstimatorNetwork.initialize(config).params).to_bytes()


TINY_NEST = nest_bytes(TINY)


def synthesize_inputs(base, params: str = PARAMS_JSON) -> list:
    (base / "clean.nraw").write_bytes(tensor_to_bytes(np.full((4, 8, 8), 50.0)))
    return ["synthesize", "--clean", base / "clean.nraw", "--params", params, "--seed", 1,
            "--out", base / "out.nraw"]


def estimate_inputs(base, nest: bytes = TINY_NEST) -> list:
    (base / "model.nest").write_bytes(nest)
    (base / "patch.nraw").write_bytes(tensor_to_bytes(np.full((4, 8, 8), 50.0)))
    return ["estimate", "--input", base / "patch.nraw", "--checkpoint", base / "model.nest",
            "--out", base / "out.json"]


def oracle_inputs(base) -> list:
    """An oracle estimate over two flat levels and two darks from gen-dataset."""
    frames = ["--params", PARAMS_JSON, "--height", 16, "--width", 16]
    assert status("gen-dataset", "--out", base / "flats", "--seed", 1, "--mode", "flat",
                  "--count", 2, "--levels", "4,16", *frames) == 0
    assert status("gen-dataset", "--out", base / "darks", "--seed", 2, "--mode", "dark",
                  "--count", 2, *frames) == 0
    return ["estimate", "--oracle", "--flat-series", base / "flats", "--dark", base / "darks",
            "--out", base / "out.json"]


def eval_kl_inputs(base, *flags, **nraw: bytes) -> list:
    """eval-kl over ``base/NAME.nraw`` as ``--NAME`` for each of ``nraw``, then ``flags``."""
    argv = ["eval-kl"]
    for name, payload in nraw.items():
        (base / f"{name}.nraw").write_bytes(payload)
        argv += [f"--{name}", base / f"{name}.nraw"]
    return [*argv, *flags]


def calibrate_inputs(base, csv: bytes) -> list:
    (base / "est.csv").write_bytes(csv)
    return ["calibrate", "--estimates", base / "est.csv", "--out", base / "out.json"]


def train_inputs(base, **keys) -> list:
    """``TRAIN`` over the camera ``base/camera.json``, to ``base/model.nest``, with ``keys``."""
    camera = write_json(base / "camera.json", CAMERA)
    config = write_json(base / "train.json", {
        **TRAIN, "cameras": [str(camera)], "out_checkpoint": str(base / "model.nest"), **keys,
    })
    return ["train", "--config", config]
