"""Criterion 11's command sequence: every CLI command once, under fixed seeds.

``run_cli_sequence(base)`` runs synthesize, gen-dataset, sample-params,
calibrate, train and estimate into the new directory ``base`` and returns
the bytes of each artifact by its path relative to ``base``.  Run as a
script, ``python cli_sequence.py BASE``, it does the same in a process of
its own, so that a test can vary the environment the commands see.
"""

import json
import sys
from pathlib import Path

from rawnoise.cli import main as cli_main
from rawnoise.io import write_tensor
from rawnoise.streams import derive_stream

PARAMS_JSON = '{"K": 1.5, "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}'
ARTIFACTS = (
    "noisy.nraw", "noisy.json", "darks/noisy_0003.nraw", "darks/noisy_0003.json", "tuples.csv",
    "refit.json", "model.nest", "losses.csv", "est.json",
)


def _run(*argv):
    assert cli_main([str(a) for a in argv]) == 0, argv


def run_cli_sequence(base: Path) -> dict[str, bytes]:
    base.mkdir()
    clean = base / "clean.nraw"
    write_tensor(clean, derive_stream(211, 0).uniform(0, 200, size=(4, 8, 8)))
    _run("synthesize", "--clean", clean, "--params", PARAMS_JSON, "--seed", 5,
         "--out", base / "noisy.nraw")
    _run("gen-dataset", "--out", base / "darks", "--seed", 6, "--mode", "dark",
         "--count", 4, "--params", PARAMS_JSON, "--height", 16, "--width", 16)
    camera = base / "camera.json"
    csv_path = base / "tuples.csv"
    camera.write_text(
        '{"a": 0.7, "b": 0.1, "a_r": 0.5, "b_r": -0.2, "sigma_hat": 0.1,'
        ' "sigma_r_hat": 0.1, "K_min": 0.25, "K_max": 8.0, "mu_c_model": 0.0}'
    )
    _run("sample-params", "--camera", camera, "--count", 50, "--seed", 7, "--out", csv_path)
    _run("calibrate", "--estimates", csv_path, "--out", base / "refit.json")
    config = {
        "extractor": [{"kernel": 3, "stride": 2, "width": 4, "nonlinearity": "relu"}],
        "feature_dim": 8, "projector": [6, 4], "head": [6, 4],
        "patch_height": 8, "patch_width": 8, "batch_size": 4,
        "epochs_per_stage": 1, "train_triplets": 8, "seed": 21,
        "cameras": [str(camera)], "scene_pool_size": 4,
        "out_checkpoint": str(base / "model.nest"),
        "out_log": str(base / "losses.csv"),
    }
    (base / "train.json").write_text(json.dumps(config))
    _run("train", "--config", base / "train.json")
    _run("estimate", "--input", clean, "--checkpoint", base / "model.nest",
         "--out", base / "est.json")
    return {rel: (base / rel).read_bytes() for rel in ARTIFACTS}


if __name__ == "__main__":
    run_cli_sequence(Path(sys.argv[1]))
