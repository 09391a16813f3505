"""Criterion 11's command sequence: every CLI command once, under fixed seeds.

``run_cli_sequence(base)`` runs synthesize, gen-dataset, sample-params,
calibrate, train and estimate into the new directory ``base`` and returns
the bytes of each artifact by its path relative to ``base``.  Run as a
script, ``python cli_sequence.py BASE``, it does the same in a process of
its own, so that a test can vary the environment the commands see.
"""

import sys
from pathlib import Path

from cli_harness import PARAMS_JSON, status, train_inputs

from rawnoise.io import write_tensor
from rawnoise.streams import derive_stream

ARTIFACTS = (
    "noisy.nraw", "noisy.json", "darks/noisy_0003.nraw", "darks/noisy_0003.json", "tuples.csv",
    "refit.json", "model.nest", "losses.csv", "est.json",
)


def run_cli_sequence(base: Path) -> dict[str, bytes]:
    base.mkdir()
    clean = base / "clean.nraw"
    write_tensor(clean, derive_stream(211, 0).uniform(0, 200, size=(4, 8, 8)))
    train = train_inputs(base, out_log=str(base / "losses.csv"))
    for argv in (
        ["synthesize", "--clean", clean, "--params", PARAMS_JSON, "--seed", 5,
         "--out", base / "noisy.nraw"],
        ["gen-dataset", "--out", base / "darks", "--seed", 6, "--mode", "dark", "--count", 4,
         "--params", PARAMS_JSON, "--height", 16, "--width", 16],
        ["sample-params", "--camera", base / "camera.json", "--count", 50, "--seed", 7,
         "--out", base / "tuples.csv"],
        ["calibrate", "--estimates", base / "tuples.csv", "--out", base / "refit.json"],
        train,
        ["estimate", "--input", clean, "--checkpoint", base / "model.nest",
         "--out", base / "est.json"],
    ):
        assert status(*argv) == 0, argv
    return {rel: (base / rel).read_bytes() for rel in ARTIFACTS}


if __name__ == "__main__":
    run_cli_sequence(Path(sys.argv[1]))
