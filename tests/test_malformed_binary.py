"""Malformed NRAW, NEST, estimates-CSV and frame-set inputs give a coded exit 2.

The probe table names each known malformed input (a directory where a
file is expected, non-finite samples and noise parameters that no NRAW
file or sampler can hold, missing frame sets and flags among them) and
runs it through the CLI: exit 2, the expected code, and no output left
behind.  The fuzz tests truncate a tiny NEST checkpoint and a small NRAW
tensor at every length, XOR every byte with four masks, and splice tensor
records; every load must succeed or raise the format's own error
(``BAD_CHECKPOINT`` or ``BAD_TENSOR_FILE``).
"""

import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rawnoise.cli import main
from rawnoise.errors import BadCheckpointError, BadTensorFileError
from rawnoise.estimator import ConvStage, EstimatorCheckpoint, EstimatorConfig, EstimatorNetwork
from rawnoise.io import tensor_from_bytes, tensor_to_bytes

CODE = re.compile(r"^[A-Z_]+: ")

TINY = EstimatorConfig(
    patch_height=8, patch_width=8, extractor=(ConvStage(3, 2, 2),), feature_dim=4,
    projector=(3,), head=(3, 4),
)
MASKS = (0x01, 0x10, 0x80, 0xFF)
# Their product is 2**64, which wraps to 0 in int64 arithmetic.
WRAPPED_DIMS = (65536, 65536, 65536, 65536)
CSV_HEADER = b"image_id,K,sigma,mu_c,sigma_r\n"
ESTIMATES = CSV_HEADER + b"a,0.5,1.0,0.0,0.5\nb,1.0,1.3,0.0,0.7\n"


def _status(argv) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse refusals exit from inside main
        return exc.code


def _nest(config: EstimatorConfig = TINY) -> bytes:
    return EstimatorCheckpoint(config, EstimatorNetwork.initialize(config).params).to_bytes()


def _table(raw: bytes) -> tuple[bytes, list[bytes]]:
    """Split a valid NEST file into its header and its tensor-table entries."""
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    offset = 12 + blob_len
    header, entries = raw[:offset], []
    while offset < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        (rank,) = struct.unpack_from("<I", raw, offset + 4 + name_len)
        dims = struct.unpack_from(f"<{rank}I", raw, offset + 8 + name_len)
        end = offset + 8 + name_len + 4 * rank + 8 * math.prod(dims)
        entries.append(raw[offset:end])
        offset = end
    return header, entries


def _wrapped_entry(name: str) -> bytes:
    """A NEST table entry with wrapped dims and an empty payload."""
    encoded = name.encode()
    return struct.pack(f"<I{len(encoded)}sI4I", len(encoded), encoded, 4, *WRAPPED_DIMS)


NEST = _nest()
NRAW = tensor_to_bytes(np.arange(24.0).reshape(2, 3, 4) / 4)
WRAPPED_NRAW = b"NRAW" + struct.pack("<III4I", 1, 1, 4, *WRAPPED_DIMS)
WRAPPED_NEST = NEST + _wrapped_entry("wrap")


def _mutations(raw: bytes):
    """Every truncation, then every byte XORed with each mask."""
    for end in range(len(raw)):
        yield f"truncate to {end}", raw[:end]
    for at in range(len(raw)):
        for mask in MASKS:
            flipped = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]
            yield f"xor byte {at} with {mask:#04x}", flipped


# ----------------------------------------------------------------------
# probes


def _estimate(base, nest: bytes = NEST) -> list:
    (base / "model.nest").write_bytes(nest)
    (base / "patch.nraw").write_bytes(tensor_to_bytes(np.full((4, 8, 8), 50.0)))
    return ["estimate", "--input", base / "patch.nraw", "--checkpoint", base / "model.nest",
            "--out", base / "out.json"]


def _calibrate(base, csv: bytes) -> list:
    (base / "est.csv").write_bytes(csv)
    return ["calibrate", "--estimates", base / "est.csv", "--out", base / "out.json"]


def _append(base, csv: bytes) -> list:
    (base / "est.csv").write_bytes(csv)
    return [*_estimate(base), "--append", base / "est.csv"]


def _eval_kl(base, real: bytes, *flags) -> list:
    (base / "real.nraw").write_bytes(real)
    (base / "synth.nraw").write_bytes(NRAW)
    return ["eval-kl", "--real", base / "real.nraw", "--synth", base / "synth.nraw", *flags]


def _synthesize(base, params: str) -> list:
    (base / "clean.nraw").write_bytes(tensor_to_bytes(np.full((4, 8, 8), 100.0)))
    return ["synthesize", "--clean", base / "clean.nraw", "--params", params, "--seed", 1,
            "--out", base / "out.nraw"]


def _nraw_float32(value: float) -> bytes:
    """A (4, 8, 8) NRAW file of ``value``, written byte by byte: write_tensor refuses non-finite."""
    header = b"NRAW" + struct.pack("<II4I", 1, 1, 3, 4, 8, 8)
    return header + np.full((4, 8, 8), value, dtype="<f4").tobytes()


def _directory(base) -> Path:
    (base / "d").mkdir()
    return base / "d"


def _write_noisy_frames(directory, frames) -> None:
    directory.mkdir(parents=True)
    for k, frame in enumerate(frames):
        (directory / f"noisy_{k:04d}.nraw").write_bytes(tensor_to_bytes(frame))


def _oracle(base, dark_shapes, flat_shapes) -> list:
    """An oracle estimate with dark frames and level-1 flats of the given (H, W) shapes."""
    rng = np.random.default_rng(0)
    _write_noisy_frames(base / "dark", [rng.normal(size=(4, *hw)) for hw in dark_shapes])
    for j, (level, shapes) in enumerate([(10.0, [(16, 16)] * 3), (40.0, flat_shapes)]):
        _write_noisy_frames(base / "flat" / f"level_{j:02d}",
                            [rng.normal(level, 3.0, size=(4, *hw)) for hw in shapes])
        (base / "flat" / f"level_{j:02d}" / "clean.nraw").write_bytes(
            tensor_to_bytes(np.full((4, 16, 16), level)))
    return ["estimate", "--oracle", "--flat-series", base / "flat", "--dark", base / "dark",
            "--out", base / "out.json"]


def _set(argv, flag, value) -> list:
    """``argv`` with ``value`` for ``flag``, or without ``flag`` when ``value`` is None."""
    i = argv.index(flag)
    return [*argv[:i], *([] if value is None else [flag, value]), *argv[i + 2:]]


def _oracle_with(flag, value):
    """Good frame sets, with ``value(base)`` for ``flag``, or without ``flag`` if ``value`` is None.

    The flat series is read before the darks, so each dark case has a valid one.
    """
    return lambda base: _set(_oracle(base, SQUARE, SQUARE), flag, value and value(base))


def _oracle_without_a_level_reference(base) -> list:
    argv = _oracle(base, SQUARE, SQUARE)
    (base / "flat" / "level_00" / "clean.nraw").unlink()
    return argv


def _gen_dataset(base, *flags) -> list:
    return ["gen-dataset", "--out", base / "set", "--seed", 1, "--count", 1, *flags]


MIXED = [(16, 16), (16, 32), (16, 16)]
SQUARE = [(16, 16)] * 3
PARAMS = '{"K": 1, "sigma": 1, "mu_c": 0, "sigma_r": 1}'

PROBES = {
    "nraw_wrapped_dims": (lambda base: _eval_kl(base, WRAPPED_NRAW), "BAD_TENSOR_FILE"),
    "nest_wrapped_dims": (lambda base: _estimate(base, WRAPPED_NEST), "BAD_CHECKPOINT"),
    "calibrate_csv_not_utf8": (lambda base: _calibrate(base, ESTIMATES + b"c,\xff\n"), "DOMAIN"),
    "calibrate_csv_oversized_field": (
        lambda base: _calibrate(base, ESTIMATES + b"c," + b"1" * 200_000 + b"\n"), "DOMAIN"),
    "append_csv_not_utf8": (lambda base: _append(base, ESTIMATES + b"c,\xff\n"), "DOMAIN"),
    "append_csv_wrong_header": (
        lambda base: _append(base, b"image_id,K\n" + ESTIMATES[len(CSV_HEADER):]), "DOMAIN"),
    "append_csv_malformed_row": (
        lambda base: _append(base, ESTIMATES + b"x,abc,1,1,1\n"), "DOMAIN"),
    "synthesize_shot_rate_out_of_range": (
        lambda base: _synthesize(base, '{"K": 1e-20, "sigma": 1, "mu_c": 0, "sigma_r": 1}'),
        "DOMAIN"),
    "synthesize_float32_overflow": (
        lambda base: _synthesize(base, '{"K": 1, "sigma": 1e300, "mu_c": 0, "sigma_r": 1}'),
        "DOMAIN"),
    "gen_dataset_shot_rate_out_of_range": (
        lambda base: ["gen-dataset", "--out", base / "set", "--seed", 1, "--mode", "flat",
                      "--count", 1, "--levels", "1e30", "--height", 8, "--width", 8,
                      "--params", '{"K": 1e-10, "sigma": 1, "mu_c": 0, "sigma_r": 1}'],
        "DOMAIN"),
    "eval_kl_real_nan": (
        lambda base: _eval_kl(base, _nraw_float32(math.nan), "--range", -1, 1), "DOMAIN"),
    "eval_kl_real_inf": (
        lambda base: _eval_kl(base, _nraw_float32(math.inf), "--range", -1, 1), "DOMAIN"),
    "eval_kl_range_infinite": (
        lambda base: _eval_kl(base, NRAW, "--range", 0, "inf"), "DOMAIN"),
    "eval_kl_range_width_overflows": (
        lambda base: _eval_kl(base, NRAW, "--range", -1e308, 1e308), "DOMAIN"),
    "eval_kl_range_narrower_than_its_bins": (
        lambda base: _eval_kl(base, NRAW, "--range", 1, 1.0000000000000002), "DOMAIN"),
    "oracle_dark_mixed_shapes": (lambda base: _oracle(base, MIXED, [(16, 16)] * 3), "SHAPE"),
    "oracle_flat_level_mixed_shapes": (lambda base: _oracle(base, [(16, 16)] * 3, MIXED), "SHAPE"),
    "calibrate_estimates_directory": (
        lambda base: ["calibrate", "--estimates", _directory(base), "--out", base / "out.json"],
        "IO_ERROR"),
    "eval_kl_directory": (
        lambda base: ["eval-kl", "--real", _directory(base), "--synth", base / "d"], "IO_ERROR"),
    "estimate_checkpoint_directory": (
        lambda base: [*_estimate(base)[:3], "--checkpoint", _directory(base),
                      "--out", base / "out.json"], "IO_ERROR"),
    "estimate_append_directory": (
        lambda base: [*_estimate(base), "--append", _directory(base)], "CONFIG"),
    "oracle_missing_dark": (_oracle_with("--dark", lambda base: base / "no"), "FILE_NOT_FOUND"),
    "oracle_missing_flat_series": (
        _oracle_with("--flat-series", lambda base: base / "no"), "FILE_NOT_FOUND"),
    "oracle_empty_dark": (_oracle_with("--dark", _directory), "INSUFFICIENT_DATA"),
    "oracle_level_without_clean": (_oracle_without_a_level_reference, "INSUFFICIENT_DATA"),
    "oracle_no_level_directories": (_oracle_with("--flat-series", _directory), "INSUFFICIENT_DATA"),
    "oracle_without_dark": (_oracle_with("--dark", None), "CONFIG"),
    "estimate_without_checkpoint": (lambda base: _set(_estimate(base), "--checkpoint", None),
                                    "CONFIG"),
    "gen_dataset_train_without_camera": (_gen_dataset, "CONFIG"),
    "gen_dataset_flat_without_params": (
        lambda base: _gen_dataset(base, "--mode", "flat", "--levels", 2), "CONFIG"),
    "gen_dataset_flat_without_levels": (
        lambda base: _gen_dataset(base, "--mode", "flat", "--params", PARAMS), "CONFIG"),
    "eval_kl_clean_shape_unlike_real": (
        lambda base: _eval_kl(base, _nraw_float32(0.0), "--clean", base / "synth.nraw"), "DOMAIN"),
    "seed_not_an_integer": (lambda base: _set(_synthesize(base, PARAMS), "--seed", "abc"), "USAGE"),
    "white_level_not_a_number": (lambda base: _gen_dataset(base, "--white-level", "abc"), "USAGE"),
}


def _tree(root) -> dict:
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(PROBES))
def test_malformed_input_is_coded_exit_2(tmp_path, capsys, case):
    build, code = PROBES[case]
    argv = build(tmp_path)
    inputs = _tree(tmp_path)
    assert _status(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"{code}: ")
    assert out == ""
    assert _tree(tmp_path) == inputs


# ----------------------------------------------------------------------
# fuzz

LOADS = {
    "nest": (NEST, EstimatorCheckpoint.from_bytes, BadCheckpointError),
    "nraw": (NRAW, tensor_from_bytes, BadTensorFileError),
}


@pytest.mark.parametrize("kind", sorted(LOADS))
def test_every_mutation_loads_or_raises_its_format_error(kind):
    raw, load, error = LOADS[kind]
    escapes = []
    for how, payload in _mutations(raw):
        try:
            load(payload)
        except error:
            pass
        except Exception as exc:  # noqa: BLE001 - every escape is collected and reported
            escapes.append((how, repr(exc)))
    assert escapes == []


def test_spliced_records_are_refused():
    header, entries = _table(NEST)
    assert header + b"".join(entries) == NEST
    _, deeper = _table(_nest(replace(TINY, extractor=(ConvStage(3, 2, 3), ConvStage(3, 2, 2)))))
    _, reseeded = _table(_nest(replace(TINY, seed=1)))
    for entry in [*deeper, *reseeded]:
        with pytest.raises(BadCheckpointError):
            EstimatorCheckpoint.from_bytes(NEST + entry)
    for entry in entries:
        with pytest.raises(BadCheckpointError, match="duplicate"):
            EstimatorCheckpoint.from_bytes(NEST.replace(entry, entry * 2, 1))
    with pytest.raises(BadTensorFileError, match="trailing"):
        tensor_from_bytes(NRAW + NRAW)


CLI_SAMPLE = 7  # mutations of each file run through the CLI, evenly spaced


@pytest.mark.parametrize("kind", sorted(LOADS))
def test_sampled_mutations_never_internal(tmp_path, capsys, kind):
    mutations = list(_mutations(LOADS[kind][0]))
    for i, (how, payload) in enumerate(mutations[:: len(mutations) // CLI_SAMPLE]):
        base = tmp_path / f"case{i}"
        base.mkdir()
        if kind == "nest":
            argv, outputs = _estimate(base, nest=payload), [base / "out.json"]
        else:
            argv, outputs = _eval_kl(base, payload), []
        status = _status(argv)
        out, err = capsys.readouterr()
        assert status in (0, 2), (how, status, err)
        if status == 2:
            assert CODE.match(err) and not err.startswith("INTERNAL"), (how, err)
            assert out == "" and not any(path.exists() for path in outputs), how
