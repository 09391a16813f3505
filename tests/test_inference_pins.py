"""The inference outputs keep their recorded bytes.

Each case runs one command on small fixed inputs and compares the sha256 of
what it writes with a recorded digest: the oracle's ``estimate.json`` on
``gen-dataset`` flat and dark trees, a learned ``estimate.json`` from an
initialized (untrained) checkpoint, and the JSON line ``eval-kl`` prints.
A declared change to the oracle, the network's forward pass or the KL
score records its new digest here.
"""

import hashlib

import numpy as np
from cli_harness import PARAMS_JSON, status

from rawnoise.estimator import ConvStage, EstimatorCheckpoint, EstimatorConfig, EstimatorNetwork
from rawnoise.io import write_tensor

ORACLE_ESTIMATE_SHA256 = "2c0c7b8386a46e7a8076e646f76c46c233b827c88e46d732096e493eb9d75170"
LEARNED_ESTIMATE_SHA256 = "90993da7a8864f7c931cc1ccb70dfc3d7db23f051aec869cfb765d71f222eff1"
EVAL_KL_SHA256 = "64028b27ebdf8206041324713c3312151f6b8aeed173f29d78dda8e9422bf010"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_oracle_estimate(tmp_path):
    frames = ["--params", PARAMS_JSON, "--height", 32, "--width", 32]
    assert status("gen-dataset", "--out", tmp_path / "flats", "--seed", 40, "--mode", "flat",
                  "--count", 4, "--levels", "0,8,32", *frames) == 0
    assert status("gen-dataset", "--out", tmp_path / "darks", "--seed", 41, "--mode", "dark",
                  "--count", 16, *frames) == 0
    out = tmp_path / "estimate.json"
    assert status("estimate", "--oracle", "--flat-series", tmp_path / "flats",
                  "--dark", tmp_path / "darks", "--out", out) == 0
    assert sha256(out.read_bytes()) == ORACLE_ESTIMATE_SHA256


def test_learned_estimate(tmp_path):
    config = EstimatorConfig(
        patch_height=16, patch_width=16,
        extractor=(ConvStage(3, 2, 6), ConvStage(3, 1, 6, "tanh")), feature_dim=12,
        projector=(8, 4), head=(8, 8, 4), seed=42,
    )
    checkpoint = tmp_path / "model.nest"
    EstimatorCheckpoint(config, EstimatorNetwork.initialize(config).params).save(checkpoint)
    patch = tmp_path / "patch.nraw"
    write_tensor(patch, np.random.default_rng(43).uniform(0, 200, (4, 16, 16)))
    out = tmp_path / "estimate.json"
    assert status("estimate", "--input", patch, "--checkpoint", checkpoint, "--out", out) == 0
    assert sha256(out.read_bytes()) == LEARNED_ESTIMATE_SHA256


def test_eval_kl(tmp_path, capsys):
    rng = np.random.default_rng(44)
    write_tensor(tmp_path / "real.nraw", rng.normal(0.0, 2.0, (4, 32, 32)))
    write_tensor(tmp_path / "synth.nraw", rng.normal(0.2, 2.5, (4, 32, 32)))
    assert status("eval-kl", "--real", tmp_path / "real.nraw",
                  "--synth", tmp_path / "synth.nraw", "--bins", 64) == 0
    assert sha256(capsys.readouterr().out.encode()) == EVAL_KL_SHA256
