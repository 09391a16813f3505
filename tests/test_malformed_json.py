"""Malformed JSON inputs give a coded exit 2 and leave no output behind.

The probe table names each known malformed input; the fuzz test mutates
valid camera, noise-parameter, training-config and NEST-header JSON with
a seeded generator and requires exit 0 or a coded exit 2, never INTERNAL.
"""

import json
import random
import re
import struct

import numpy as np
import pytest
from cli_harness import (
    CAMERA,
    NET,
    PARAMS,
    PARAMS_JSON,
    STAGE,
    TRAIN,
    estimate_inputs,
    nest_bytes,
    status,
    synthesize_inputs,
    write_json,
)

from rawnoise.estimator import EstimatorConfig
from rawnoise.io import write_tensor

CODE = re.compile(r"^[A-Z_]+: ")

# The toy training run cut to no epochs, so that a fuzzed config that parses trains at once.
TRAIN_NO_EPOCHS = {**TRAIN, "batch_size": 2, "epochs_per_stage": 0, "train_triplets": 2,
                   "seed": 3, "scene_pool_size": 2}


def _nest_header(config: dict) -> bytes:
    return json.dumps({"config": config, "metadata": {}}).encode()


def _nest_with_header(header: bytes) -> bytes:
    """A valid tiny checkpoint whose JSON header is replaced by ``header``."""
    raw = nest_bytes(EstimatorConfig.from_dict(NET))
    (blob_len,) = struct.unpack("<I", raw[8:12])
    return raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + blob_len :]


def _command(kind: str, base, payload: bytes):
    """Write ``payload`` as the input of ``kind``; return (argv, output paths).

    The training config names its files relative to ``base``, the working
    directory while it runs, so a mutated path still lands inside ``base``.
    """
    base.mkdir()
    if kind == "camera":
        (base / "camera.json").write_bytes(payload)
        argv = ["sample-params", "--camera", base / "camera.json", "--count", 2, "--seed", 1,
                "--out", base / "out"]
        return argv, [base / "out", base / "out.provenance.json"]
    if kind == "params":
        (base / "params.json").write_bytes(payload)
        return synthesize_inputs(base, base / "params.json"), [base / "out.nraw", base / "out.json"]
    if kind == "train":
        write_json(base / "camera.json", CAMERA)
        (base / "train.json").write_bytes(payload)
        return ["train", "--config", base / "train.json"], [base / "model.nest",
                                                             base / "model.nest.losses.csv"]
    assert kind == "nest"
    return estimate_inputs(base, _nest_with_header(payload)), [base / "out.json"]


def _train_json(**changes) -> bytes:
    """The valid training config with ``changes`` applied."""
    record = {**TRAIN_NO_EPOCHS, "cameras": ["camera.json"], "out_checkpoint": "model.nest",
              **changes}
    return json.dumps(record).encode()


def _dump(record) -> bytes:
    return json.dumps(record).encode()


PROBES = {
    "camera_is_list": ("camera", _dump([CAMERA]), "DOMAIN"),
    "camera_a_str": ("camera", _dump({**CAMERA, "a": "x"}), "DOMAIN"),
    "camera_a_null": ("camera", _dump({**CAMERA, "a": None}), "DOMAIN"),
    "camera_K_max_infinity": ("camera", _dump({**CAMERA, "K_max": float("inf")}), "DOMAIN"),
    "camera_noise_line_overflows": ("camera", _dump({**CAMERA, "b": 1000.0}), "DOMAIN"),
    "params_K_null": ("params", _dump({**PARAMS, "K": None}), "DOMAIN"),
    "params_K_str": ("params", _dump({**PARAMS, "K": "abc"}), "DOMAIN"),
    "params_K_str_number": ("params", _dump({**PARAMS, "K": "1.5"}), "DOMAIN"),
    "train_stage_is_int": ("train", _train_json(extractor=[3]), "CONFIG"),
    "train_kernel_str": ("train", _train_json(extractor=[{**STAGE, "kernel": "3"}]), "CONFIG"),
    "train_stage_unknown_key": ("train", _train_json(extractor=[{**STAGE, "pad": 1}]), "CONFIG"),
    "train_learning_rate_str": ("train", _train_json(learning_rate="0.1"), "CONFIG"),
    "train_learning_rate_nan": ("train", _train_json(learning_rate=float("nan")), "CONFIG"),
    "train_projector_null": ("train", _train_json(projector=None), "CONFIG"),
    "train_scene_pool_size_str": ("train", _train_json(scene_pool_size="x"), "CONFIG"),
    "train_white_level_negative": ("train", _train_json(white_level=-4), "CONFIG"),
    "train_is_list": ("train", b"[]", "CONFIG"),
    "nest_extractor_int": ("nest", _nest_header({**NET, "extractor": [5]}), "BAD_CHECKPOINT"),
    "nest_header_is_list": ("nest", b"[1]", "BAD_CHECKPOINT"),
    "nest_metadata_is_list": (
        "nest", _dump({"config": NET, "metadata": [1, "x"]}), "BAD_CHECKPOINT"),
}

FLAG_PROBES = {
    "synthesize_white_level_nan": (["synthesize", "--clamp", "--white-level", "nan"], "USAGE"),
    "synthesize_white_level_negative": (["synthesize", "--clamp", "--white-level", "-4"], "USAGE"),
    "gen_dataset_white_level_negative": (
        ["gen-dataset", "--mode", "train", "--white-level", "-5"], "USAGE"),
    "gen_dataset_white_level_nan": (
        ["gen-dataset", "--mode", "train", "--white-level", "nan"], "USAGE"),
    "gen_dataset_levels_nan": (["gen-dataset", "--mode", "flat", "--levels", "nan,4"], "DOMAIN"),
    "gen_dataset_levels_inf": (["gen-dataset", "--mode", "flat", "--levels", "inf,4"], "DOMAIN"),
    # An empty path would name the working directory or a file in it.
    "synthesize_out_empty": (["synthesize", "--out", ""], "USAGE"),
    "gen_dataset_out_empty": (["gen-dataset", "--mode", "train", "--out", ""], "USAGE"),
    "calibrate_out_empty": (["calibrate", "--out", ""], "USAGE"),
    "estimate_out_empty": (["estimate", "--out", ""], "USAGE"),
    "estimate_append_empty": (["estimate", "--append", ""], "USAGE"),
    "sample_params_out_empty": (["sample-params", "--out", ""], "USAGE"),
}


@pytest.mark.parametrize("case", sorted(PROBES))
def test_malformed_record_is_coded_exit_2(tmp_path, capsys, monkeypatch, case):
    kind, payload, code = PROBES[case]
    argv, outputs = _command(kind, tmp_path / "case", payload)
    monkeypatch.chdir(tmp_path / "case")
    assert status(*argv) == 2
    assert capsys.readouterr().err.startswith(f"{code}: ")
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("case", sorted(FLAG_PROBES))
def test_bad_flag_is_coded_exit_2_before_writing(tmp_path, capsys, monkeypatch, case):
    flags, code = FLAG_PROBES[case]
    write_json(tmp_path / "camera.json", CAMERA)
    write_tensor(tmp_path / "clean.nraw", np.full((4, 8, 8), 50.0))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    # A command line that parses; the probe's flags follow it, so they win.
    common = {
        "synthesize": ["--clean", "clean.nraw", "--out", out, "--params", PARAMS_JSON, "--seed", 1],
        "gen-dataset": ["--out", out, "--count", 1, "--height", 8, "--width", 8,
                        "--camera", "camera.json", "--params", PARAMS_JSON, "--seed", 1],
        "calibrate": ["--estimates", "estimates.csv", "--out", out],
        "estimate": ["--input", "clean.nraw", "--checkpoint", "estimator.nest", "--out", out],
        "sample-params": ["--camera", "camera.json", "--count", 1, "--seed", 1, "--out", out],
    }[flags[0]]
    argv = [flags[0], *common, *flags[1:]]
    assert status(*argv) == 2
    assert capsys.readouterr().err.startswith(f"{code}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["camera.json", "clean.nraw"]


# ----------------------------------------------------------------------
# fuzz

VALID = {
    "camera": _dump(CAMERA),
    "params": _dump(PARAMS),
    "train": _train_json(),
    "nest": _nest_header(NET),
}
SWAPS = ("null", "str", "list", "bool", "float", "negative")
MUTATIONS_PER_KIND = 100
# Dropping these keys falls back to the full-size defaults (200 epochs per
# stage, 2000 triplets), which is valid but too slow for a unit test.
SLOW_TO_DROP = {("epochs_per_stage",), ("train_triplets",)}


def _paths(node, prefix=()):
    """Every key/index path into a parsed JSON value."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _swap(value, how: str):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    negative = -value if number and value else -1
    swaps = {"null": None, "str": str(value), "list": [value], "bool": True, "float": 0.5,
             "negative": negative}
    return swaps[how]


def _mutate(text: bytes, rng: random.Random) -> tuple[str, bytes]:
    how = rng.choice(("drop", *SWAPS, "truncate", "flip"))
    if how == "truncate":
        return how, text[: rng.randrange(len(text))]
    if how == "flip":
        at = rng.randrange(len(text))
        return how, text[:at] + bytes([text[at] ^ (1 << rng.randrange(8))]) + text[at + 1 :]
    record = json.loads(text)
    path = rng.choice([p for p in _paths(record) if how != "drop" or p not in SLOW_TO_DROP])
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _swap(parent[path[-1]], how)
    return f"{how} {path}", json.dumps(record).encode()


@pytest.mark.parametrize("kind", sorted(VALID))
def test_fuzzed_json_never_internal(tmp_path, capsys, monkeypatch, kind):
    rng = random.Random(f"rawnoise-fuzz-{kind}")
    for i in range(MUTATIONS_PER_KIND):
        how, payload = _mutate(VALID[kind], rng)
        argv, outputs = _command(kind, tmp_path / f"case{i}", payload)
        monkeypatch.chdir(tmp_path / f"case{i}")
        code = status(*argv)
        err = capsys.readouterr().err
        assert code in (0, 2), (how, payload, code, err)
        if code == 2:
            assert CODE.match(err) and not err.startswith("INTERNAL"), (how, payload, err)
            assert not any(path.exists() for path in outputs), (how, payload)
