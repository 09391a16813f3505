"""The refusal table: every malformed input the CLI must refuse, and the one runner that checks it.

A row is ``Refusal(build, code, message=None, reads_nothing=False)``.
``build(base)`` writes the row's inputs under the new directory ``base``
and returns the argv.  ``refuse(row, base)`` runs it with ``base`` as the
working directory and checks the whole contract: exit 2, exactly one
``CODE: message`` line on stderr (the exact ``message`` when the row gives
one, ``{base}`` standing for ``base``), nothing on stdout, and every path
under ``base`` byte-identical before and after.  With ``reads_nothing`` an
NRAW read or a training run fails the row.

Rows are grouped under the test that runs them, as ``module::qualname``; a
group is one row, or a dict of rows by test ID.  The ``refusal`` fixture
(see conftest) hands each test its rows, so each test keeps the ID it had
before the table existed.
"""

import contextlib
import io
import json
import math
import os
import re
import struct
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from cli_harness import (
    CAMERA,
    ESTIMATES,
    ESTIMATES_HEADER,
    NET,
    PARAMS,
    PARAMS_JSON,
    STAGE,
    TINY_NEST,
    TRAIN,
    calibrate_inputs,
    estimate_inputs,
    eval_kl_inputs,
    nest_bytes,
    oracle_inputs,
    status,
    synthesize_inputs,
    train_inputs,
    tree,
    write_json,
)

from rawnoise import cli, synthetic
from rawnoise.estimator import EstimatorConfig
from rawnoise.io import read_tensor, tensor_to_bytes, write_tensor


class Refusal(NamedTuple):
    build: Callable[[Path], list]
    code: str
    message: str | None = None
    reads_nothing: bool = False


CLEAN_REFUSAL = re.compile(r"[A-Z_]+: [^\n]*\n")


def _must_not_run(what: str):
    def fail(*args):
        pytest.fail(f"{what} ran before the refusal")  # not an Exception: main cannot catch it

    return fail


def run(argv, base: Path, reads_nothing: bool = False, note="") -> tuple[int, str]:
    """Run ``argv`` in the working directory ``base``; return its exit status and stderr.

    Exit 0 is returned as it is.  Any other exit must be a clean refusal:
    status 2 (not INTERNAL's 3), one ``CODE: message`` line on stderr,
    nothing on stdout, and ``base``'s tree as it was.  ``note`` names the
    case in a failure.
    """
    before = tree(base)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        patch.chdir(base)
        if reads_nothing:
            patch.setattr(cli, "read_tensor", _must_not_run("an NRAW read"))
            patch.setattr(cli, "train_estimator", _must_not_run("training"))
        code = status(*argv)
    if code != 0:
        assert code == 2, (note, code, err.getvalue())
        assert CLEAN_REFUSAL.fullmatch(err.getvalue()), (note, err.getvalue())
        assert out.getvalue() == "", note
        assert tree(base) == before, note
    return code, err.getvalue()


def refuse(row: Refusal, base: Path) -> None:
    """Check that the CLI refuses ``row`` under the whole contract (see the module docstring)."""
    code, err = run(row.build(base), base, row.reads_nothing)
    assert code == 2, "exit 0"
    assert err.startswith(f"{row.code}: "), err
    if row.message is not None:
        assert err == f"{row.code}: {row.message.replace('{base}', str(base))}\n", err


def refusal_test(tmp_path, refusal):
    """A test that runs its rows of the table: ``test_x = refusal_test`` in a module,
    ``test_x = staticmethod(refusal_test)`` in a class."""
    refuse(refusal, tmp_path)


def rows() -> list[Refusal]:
    """Every row of the table."""
    return [row for group in REFUSALS.values()
            for row in (group.values() if isinstance(group, dict) else [group])]


# ----------------------------------------------------------------------
# inputs


def _set(argv, flag, value) -> list:
    """``argv`` with ``value`` for ``flag``, or without ``flag`` when ``value`` is None."""
    i = argv.index(flag)
    return [*argv[:i], *([] if value is None else [flag, value]), *argv[i + 2:]]


def _with_out(argv, out) -> list:
    """``argv``, which ends in ``--out PATH``, with ``out`` as that path."""
    return [*argv[:-1], out]


def _mkdir(path) -> Path:
    path.mkdir()
    return path


def _then(build, edit):
    """``build``'s inputs, then ``edit(base)``."""
    def inputs(base):
        argv = build(base)
        edit(base)
        return argv

    return inputs


def _fill(name, value):
    """An edit: set every sample of the NRAW file ``base/name`` to ``value``.

    NRAW writers refuse non-finite values, so the payload is put in by hand.
    """
    def edit(base):
        raw = (base / name).read_bytes()
        payload = np.full(read_tensor(base / name).shape, value, dtype="<f4").tobytes()
        (base / name).write_bytes(raw[:len(raw) - len(payload)] + payload)

    return edit


def _write(name, shape):
    """An edit: write zeros of ``shape`` as the NRAW file ``base/name``."""
    return lambda base: write_tensor(base / name, np.zeros(shape))


def _oracle_with(flag, value):
    """oracle_inputs with ``value(base)`` for ``flag``, or without ``flag`` if ``value`` is None."""
    return lambda base: _set(oracle_inputs(base), flag, value and value(base))


def _eval_kl_of_zeros(base) -> list:
    zeros = tensor_to_bytes(np.zeros((4, 8, 8)))
    return eval_kl_inputs(base, real=zeros, synth=zeros, clean=zeros)


NRAW = tensor_to_bytes(np.arange(24.0).reshape(2, 3, 4) / 4)
# Their product is 2**64, which wraps to 0 in int64 arithmetic.
WRAPPED_DIMS = (65536, 65536, 65536, 65536)
WRAPPED_NRAW = b"NRAW" + struct.pack("<III4I", 1, 1, 4, *WRAPPED_DIMS)
WRAPPED_NEST = TINY_NEST + struct.pack("<I4sI4I", 4, b"wrap", 4, *WRAPPED_DIMS)


def eval_kl_of(*flags, real: bytes = NRAW):
    """eval-kl of ``real`` against NRAW, then ``flags``."""
    return lambda base: eval_kl_inputs(base, *flags, real=real, synth=NRAW)


def _calibrate(csv: bytes):
    return lambda base: calibrate_inputs(base, csv)


def _synthesize(params: str):
    return lambda base: synthesize_inputs(base, params)


def _append(csv: bytes, inputs=estimate_inputs):
    """``inputs`` appending to ``base/est.csv``, which holds ``csv``."""
    def build(base):
        (base / "est.csv").write_bytes(csv)
        return [*inputs(base), "--append", base / "est.csv"]

    return build


def _plus(build, *flags):
    """``build``'s argv, then ``flags``."""
    return lambda base: [*build(base), *flags]


def _gen_dataset(*flags):
    return lambda base: ["gen-dataset", "--out", base / "set", "--seed", 1, "--count", 1, *flags]


def _cameras_sharing_a_file_stem(base) -> list:
    bank = synthetic.default_camera_bank()
    cameras = []
    for folder, model in (("a", bank[0]), ("b", bank[2])):
        cameras += ["--camera", write_json(_mkdir(base / folder) / "cam.json", model.as_dict())]
    return ["gen-dataset", "--out", base / "set", "--seed", 3, "--mode", "train", "--count", 6,
            "--height", 8, "--width", 8, *cameras]


def _gen_dataset_rerun(base) -> list:
    """A finished train run, rerun into its --out with a camera whose draws would be refused."""
    camera = write_json(base / "camera.json", CAMERA)
    argv = ["gen-dataset", "--out", base / "set", "--seed", 1, "--mode", "train", "--count", 3,
            "--height", 8, "--width", 8, "--camera", camera]
    assert status(*argv) == 0
    write_json(camera, {**CAMERA, "K_min": 1e-20, "K_max": 1e-20})
    return argv


# gen-dataset claims a new --out with one mkdir, so its output clash is an existing --out.
GEN_DATASET_RERUN = Refusal(_gen_dataset_rerun, "IO_ERROR", "[Errno 17] File exists: '{base}/set'")


def _sample_params(*flags, **camera):
    """sample-params of a constant-gain camera, with ``camera`` keys, then ``flags``."""
    def inputs(base):
        record = {**CAMERA, "K_min": 2.0, "K_max": 2.0, "mu_c_model": 0.25, **camera}
        return ["sample-params", "--camera", write_json(base / "camera.json", record),
                "--seed", 1, "--out", base / "params.csv", *flags]

    return inputs


def _train_json(record):
    return lambda base: ["train", "--config", write_json(base / "train.json", record)]


# ----------------------------------------------------------------------
# output clashes: each build returns an argv whose output would replace an input


def _calibrate_at_a_hard_link(base):
    argv = _calibrate_at_estimates(base)
    os.link(base / "est.csv", base / "link.csv")
    return _with_out(argv, base / "link.csv")


def _sample_params_at_camera(base):
    camera = write_json(base / "cam.json", CAMERA)
    return ["sample-params", "--camera", camera, "--count", 2, "--seed", 1, "--out", camera]


def _sample_params_provenance_at_camera(base):
    camera = write_json(base / "x.provenance.json", CAMERA)
    return ["sample-params", "--camera", camera, "--count", 2, "--seed", 1, "--out", base / "x"]


def _out_at(build, name):
    return lambda base: _with_out(build(base), base / name)


_calibrate_at_estimates = _out_at(_calibrate(ESTIMATES), "est.csv")


def _out_at_a_directory(build):
    """``build``'s case with its ``--out`` at the new directory ``base/sub``."""
    return lambda base: _with_out(build(base), _mkdir(base / "sub"))


def _clash(build, message):
    return Refusal(build, "CONFIG", message, reads_nothing=True)


AT_SUB = "{base}/sub would replace the directory at {base}/sub"
CLASHES = {
    "calibrate_out_at_estimates": _clash(
        _calibrate_at_estimates, "--out {base}/est.csv would replace the estimates at --estimates"),
    "calibrate_out_at_a_hard_link": _clash(
        _calibrate_at_a_hard_link,
        "--out {base}/link.csv would replace the estimates at --estimates"),
    "sample_params_out_at_camera": _clash(
        _sample_params_at_camera, "--out {base}/cam.json would replace the camera at --camera"),
    "sample_params_provenance_at_camera": _clash(
        _sample_params_provenance_at_camera,
        "--out provenance {base}/x.provenance.json would replace the camera at --camera"),
    "synthesize_manifest_at_params": _clash(
        _out_at(lambda base: synthesize_inputs(base, write_json(base / "p.json", PARAMS)),
                "p.nraw"),
        "--out manifest {base}/p.json would replace the params at --params"),
    "synthesize_out_at_clean": _clash(
        _out_at(synthesize_inputs, "clean.nraw"),
        "--out {base}/clean.nraw would replace the clean patch at --clean"),
    "estimate_out_at_input": _clash(
        _out_at(estimate_inputs, "patch.nraw"),
        "--out {base}/patch.nraw would replace the noisy patch at --input"),
    "estimate_out_at_checkpoint": _clash(
        _out_at(estimate_inputs, "model.nest"),
        "--out {base}/model.nest would replace the checkpoint at --checkpoint"),
    "estimate_out_in_dark_dir": _clash(
        _out_at(oracle_inputs, "darks/noisy_0001.nraw"),
        "--out {base}/darks/noisy_0001.nraw would replace the dark frames at --dark"),
    "train_checkpoint_at_config": _clash(
        lambda base: train_inputs(base, out_checkpoint=str(base / "train.json")),
        "out_checkpoint {base}/train.json would replace the config at --config"),
    "train_log_at_camera": _clash(
        lambda base: train_inputs(base, out_log=str(base / "camera.json")),
        "out_log {base}/camera.json would replace the camera at cameras[0]"),
    "synthesize_out_at_a_directory": _clash(
        _out_at_a_directory(synthesize_inputs), f"--out {AT_SUB}"),
    "calibrate_out_at_a_directory": _clash(
        _out_at_a_directory(_calibrate_at_estimates), f"--out {AT_SUB}"),
    "estimate_out_at_a_directory": _clash(_out_at_a_directory(estimate_inputs), f"--out {AT_SUB}"),
    "sample_params_out_at_a_directory": _clash(
        _out_at_a_directory(_sample_params_at_camera), f"--out {AT_SUB}"),
    "train_checkpoint_at_a_directory": _clash(
        lambda base: train_inputs(base, out_checkpoint=str(_mkdir(base / "sub"))),
        f"out_checkpoint {AT_SUB}"),
}

# Each NRAW input of the CLI: the inputs of the command that reads it, and its file.
NRAW_INPUTS = {
    "synthesize_clean": (synthesize_inputs, "clean.nraw"),
    "estimate_input": (estimate_inputs, "patch.nraw"),
    "oracle_dark_frame": (oracle_inputs, "darks/noisy_0001.nraw"),
    "oracle_flat_frame": (oracle_inputs, "flats/level_01/noisy_0000.nraw"),
    "oracle_flat_clean": (oracle_inputs, "flats/level_00/clean.nraw"),
    "eval_kl_real": (_eval_kl_of_zeros, "real.nraw"),
    "eval_kl_synth": (_eval_kl_of_zeros, "synth.nraw"),
    "eval_kl_clean": (_eval_kl_of_zeros, "clean.nraw"),
}
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
LEVEL = "flats/level_00/clean.nraw"

HEADERS = "image_id,K,sigma,mu_c,sigma_r or image_id,K,sigma,mu_c,sigma_r,iso"
ISO_HEADER = b"image_id,K,sigma,mu_c,sigma_r,iso\n"
# Estimates whose fit is not finite: iso**2 underflows, so the ISO-to-gain
# slope is infinite, and the mean mu_c overflows.
ISO_UNDERFLOWS = ISO_HEADER + b"a,0.5,1.0,0.0,0.5,1e-300\nb,1.0,1.3,0.0,0.7,1e-300\n"
MU_C_OVERFLOWS = ESTIMATES_HEADER + b"a,0.5,1.0,1e308,0.5\nb,1.0,1.3,1e308,0.7\n"
# Noise parameters whose sum overflows float64 on a clean patch, and ones
# whose row and read draws overflow to infinities, so that at the seeds
# below an infinite row offset meets a read of the opposite sign (NaN).
SUM_OVERFLOWS = '{"K": 1, "sigma": 1, "mu_c": 1e308, "sigma_r": 1e308}'
SUM_IS_NAN = '{"K": 1, "sigma": 1e308, "mu_c": 0, "sigma_r": 1e308}'
NOT_FLOAT32 = "tensor holds a value that is not finite as float32; NRAW cannot hold it"


# ----------------------------------------------------------------------
# JSON records


# The toy training run cut to no epochs, so that a config that parses trains at once.
TRAIN_NO_EPOCHS = {**TRAIN, "batch_size": 2, "epochs_per_stage": 0, "train_triplets": 2,
                   "seed": 3, "scene_pool_size": 2}


def dump(record) -> bytes:
    return json.dumps(record).encode()


def nest_header(config: dict) -> bytes:
    return dump({"config": config, "metadata": {}})


def train_json(**changes) -> bytes:
    """The valid training config with ``changes`` applied; its paths are relative to ``base``."""
    return dump({**TRAIN_NO_EPOCHS, "cameras": ["camera.json"], "out_checkpoint": "model.nest",
                 **changes})


def _nest_with_header(header: bytes) -> bytes:
    """A valid tiny checkpoint whose JSON header is replaced by ``header``."""
    raw = nest_bytes(EstimatorConfig.from_dict(NET))
    (blob_len,) = struct.unpack("<I", raw[8:12])
    return raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + blob_len :]


def record_inputs(kind: str, base, payload: bytes) -> list:
    """Write ``payload`` as the camera, params, train or nest JSON a command reads; its argv.

    The training config names its files relative to ``base``, the working
    directory while it runs, so a mutated path still lands inside ``base``.
    """
    if kind == "camera":
        (base / "camera.json").write_bytes(payload)
        return ["sample-params", "--camera", base / "camera.json", "--count", 2, "--seed", 1,
                "--out", base / "out"]
    if kind == "params":
        (base / "params.json").write_bytes(payload)
        return synthesize_inputs(base, base / "params.json")
    if kind == "train":
        write_json(base / "camera.json", CAMERA)
        (base / "train.json").write_bytes(payload)
        return ["train", "--config", base / "train.json"]
    assert kind == "nest"
    return estimate_inputs(base, _nest_with_header(payload))


# A command line of each command that parses; flags that follow it win.
COMMAND_LINES = {
    "synthesize": synthesize_inputs,
    "gen-dataset": _gen_dataset("--height", 8, "--width", 8, "--params", PARAMS_JSON),
    "calibrate": _calibrate(ESTIMATES),
    "estimate": estimate_inputs,
    "sample-params": _sample_params("--count", 1),
}


# ----------------------------------------------------------------------
# the table

REFUSALS = {
    "test_cli::TestSynthesize.test_missing_input_exit_code": Refusal(
        lambda base: _set(synthesize_inputs(base), "--clean", base / "nope.nraw"),
        "FILE_NOT_FOUND", "[Errno 2] No such file or directory: '{base}/nope.nraw'"),
    # The manifest goes to --out with a .json suffix, so --out x.json would
    # have its noisy tensor replaced by the manifest.
    "test_cli::TestSynthesize.test_out_that_is_its_own_manifest_path_refused": Refusal(
        _out_at(synthesize_inputs, "x.json"), "CONFIG"),
    "test_cli::TestCalibrate.test_single_row_insufficient": Refusal(
        _calibrate(ESTIMATES_HEADER + b"img0,1.0,1.0,0.0,1.0\n"), "INSUFFICIENT_DATA"),
    # The header is row 1, so the bad third line is reported as row 3.
    "test_cli::TestCalibrate.test_malformed_row_is_domain_error": {
        case: Refusal(_calibrate(ESTIMATES_HEADER + f"img0,1.0,1.0,0.0,1.0\n{row}\n".encode()),
                      "DOMAIN", f"{{base}}/est.csv row 3: {reason}")
        for case, row, reason in [
            ("short", "img1,1.0,1.0", "expected 5 fields, got 3"),
            ("non_numeric", "img1,1.0,abc,0.0,1.0", "could not convert string to float: 'abc'"),
            ("long", "img1,1.0,1.0,0.0,1.0,100", "expected 5 fields, got 6"),
        ]
    },
    # An ISO that is not a finite number above 0, refused by file and row.
    "test_cli::TestCalibrate.test_iso_that_is_not_a_finite_positive_number_is_refused": {
        case: Refusal(_calibrate(ISO_HEADER + f"img0,1.0,1.0,0.0,1.0,100\nimg1,2.0,1.5,0.0,1.2,"
                                              f"{iso}\n".encode()),
                      "DOMAIN", f"{{base}}/est.csv row 3: iso: expected a finite number > 0, "
                                f"got '{iso}'")
        for case, iso in [("inf", "inf"), ("nan", "nan"), ("zero", "0"), ("negative", "-1")]
    },
    # calibrate reads the two headers estimate --append writes, and no other:
    # an iso column after another column is not read as iso.
    "test_cli::TestCalibrate.test_header_with_other_columns_is_refused": Refusal(
        _calibrate(b"image_id,K,sigma,mu_c,sigma_r,note,iso\n"
                   b"a,0.5,1.0,0.0,0.5,x,100\nb,1.0,1.3,0.0,0.7,y,200\n"),
        "DOMAIN", f"{{base}}/est.csv must have header {HEADERS}"),
    "test_cli::TestSampleParams.test_count_below_one_rejected_before_writing": {
        count: Refusal(_sample_params("--count", count), "DOMAIN",
                       f"--count must be >= 1, got {count}")
        for count in ("0", "-2")
    },
    # A negative ISO, and one whose gain alpha * ISO underflows to 0.
    "test_cli::TestSampleParams.test_negative_exponent_iso_reaches_the_domain_check": {
        iso: Refusal(_sample_params("--count", 2, "--iso", iso, alpha=0.01), "DOMAIN")
        for iso in ("-1e3", "5e-324")
    },
    "test_cli::TestGenDatasetAndOracle.test_bad_flags_rejected_before_writing": {
        case: Refusal(_gen_dataset("--params", PARAMS_JSON, "--mode", *flags), code)
        for case, flags, code in [
            ("negative_count_zero_height", ["dark", "--count", -3, "--height", 0], "DOMAIN"),
            ("zero_count", ["dark", "--count", 0], "DOMAIN"),
            ("zero_height", ["dark", "--count", 2, "--height", 0], "DOMAIN"),
            ("negative_width", ["dark", "--count", 2, "--width", -1], "DOMAIN"),
            ("non_numeric_level", ["flat", "--count", 2, "--levels", "2,x"], "CONFIG"),
        ]
    },
    # The file stem is the camera id, so two cameras named cam.json would be
    # merged into one id in dataset.json and every manifest.
    "test_cli::TestGenDatasetAndOracle.test_cameras_sharing_a_file_stem_refused": Refusal(
        _cameras_sharing_a_file_stem, "CONFIG"),
    # gen-dataset never replaces a file: the first run's tree stays byte-identical.
    "test_cli::TestGenDatasetAndOracle.test_refused_rerun_keeps_the_first_tree": GEN_DATASET_RERUN,
    # A level reference that is empty, non-finite or negative, as gen-dataset
    # refuses such levels; the NRAW reader refuses the non-finite ones.
    "test_cli::TestGenDatasetAndOracle.test_oracle_refuses_a_bad_level_reference": {
        case: Refusal(_then(_then(oracle_inputs, _write(LEVEL, shape)), _fill(LEVEL, level)),
                      "DOMAIN", f"{{base}}/{LEVEL} {reason}")
        for case, shape, level, reason in [
            ("empty", (4, 0, 16), 0.0, "must hold a finite, non-negative flat level"),
            ("nan", (4, 16, 16), math.nan, "holds a value that is not finite"),
            ("inf", (4, 16, 16), math.inf, "holds a value that is not finite"),
            ("negative", (4, 16, 16), -5.0, "must hold a finite, non-negative flat level"),
        ]
    },
    # A negative seed or stream index, refused before anything is written.
    "test_cli::TestNegativeSeeds.test_rejected_before_writing": {
        "synthesize_seed-USAGE": Refusal(_plus(synthesize_inputs, "--seed", -1), "USAGE"),
        "synthesize_stream_index-USAGE": Refusal(
            _plus(synthesize_inputs, "--stream-index", -1), "USAGE"),
        "sample_params_seed-USAGE": Refusal(_sample_params("--count", 2, "--seed", -1), "USAGE"),
        "gen_dataset_dark_seed-USAGE": Refusal(
            _gen_dataset("--mode", "dark", "--params", PARAMS_JSON, "--seed", -1), "USAGE"),
        "gen_dataset_train_seed-USAGE": Refusal(
            _gen_dataset("--mode", "train", "--camera", "camera.json", "--seed", -1), "USAGE"),
        "train_config_seed-CONFIG": Refusal(lambda base: train_inputs(base, seed=-1), "CONFIG"),
    },
    "test_cli::TestEstimateCheckpoint.test_bad_checkpoint_magic": Refusal(
        lambda base: estimate_inputs(base, b"JUNKJUNKJUNK"), "BAD_CHECKPOINT"),
    # A v1 checkpoint predates the rebalanced Haar front end; its weights
    # would give wrong estimates.
    "test_cli::TestEstimateCheckpoint.test_version_1_checkpoint_refused": Refusal(
        lambda base: estimate_inputs(
            base, TINY_NEST[:4] + (1).to_bytes(4, "little") + TINY_NEST[8:]),
        "BAD_CHECKPOINT"),
    "test_cli::TestEvalKL.test_range_needs_two_values": Refusal(
        eval_kl_of("--range", "-1e3"), "USAGE"),
    # A non-finite payload in any NRAW input names that file.
    "test_cli::test_non_finite_nraw_input_is_named": {
        f"{case}-{tag}": Refusal(_then(build, _fill(name, value)), "DOMAIN",
                                 f"{{base}}/{name} holds a value that is not finite")
        for case, (build, name) in NRAW_INPUTS.items()
        for tag, value in NON_FINITE.items()
    },
    "test_cli::TestEstimateAppend.test_any_other_header_is_refused": {
        header: Refusal(_append(f"{header}\na,0.5,1.0,0.0,0.5,1\n".encode(), oracle_inputs),
                        "DOMAIN", f"{{base}}/est.csv must have header {HEADERS}")
        for header in ("image_id,K,sigma,mu_c,sigma_r,note",
                       "image_id,K,sigma,mu_c,sigma_r,iso,note")
    },
    # The estimate JSON would be replaced by the CSV: the same file, spelled two ways.
    "test_cli::TestEstimateAppend.test_append_to_the_out_path_is_refused": _clash(
        lambda base: [*oracle_inputs(base), "--append", f"{base}/flats/../out.json"],
        "--append {base}/flats/../out.json would replace the estimate at --out"),
    # An extra field would be dropped when the CSV is rewritten.
    "test_cli::TestEstimateAppend.test_row_with_more_fields_than_its_header_is_refused": Refusal(
        _append(b"image_id,K,sigma,mu_c,sigma_r,iso\na,0.5,1.0,0.0,0.5,100,note\n",
                oracle_inputs),
        "DOMAIN", "{base}/est.csv row 2: expected 6 fields, got 7"),
    # An output that would replace an input or a directory.
    "test_cli::test_output_that_would_replace_an_input_is_refused": CLASHES,
    # ``--out .`` names no file to write.
    "test_cli::test_out_at_the_working_directory_is_refused": _clash(
        lambda base: _with_out(synthesize_inputs(base), "."),
        "--out . would replace the directory at ."),
    # Sizes that ask for petabytes, beyond any address space: numpy refuses them at once.
    "test_cli::TestOutOfMemory.test_eval_kl_bins": Refusal(
        eval_kl_of("--bins", 10**15), "OUT_OF_MEMORY"),
    "test_cli::TestOutOfMemory.test_gen_dataset_frame_size": Refusal(
        _gen_dataset("--mode", "dark", "--params", PARAMS_JSON, "--height", 10**7,
                     "--width", 10**7), "OUT_OF_MEMORY"),
    # The loss CSV would replace the checkpoint.
    "test_cli::TestTrainCommand.test_log_at_the_checkpoint_path_is_refused_before_training":
        _clash(lambda base: train_inputs(base, out_checkpoint=str(base / "t.nest"),
                                         out_log=f"{base}/./t.nest"),
               "out_log {base}/./t.nest would replace the checkpoint at out_checkpoint"),
    # As an empty --out is a USAGE error, an empty output key is a CONFIG one.
    "test_cli::TestTrainCommand.test_empty_output_path_is_refused_before_training": {
        key: _clash(lambda base, key=key: train_inputs(base, **{key: ""}),
                    "out_checkpoint and out_log must be non-empty paths")
        for key in ("out_checkpoint", "out_log")
    },
    "test_cli::TestTrainCommand.test_unknown_config_key_rejected": Refusal(
        _train_json({"cameras": ["x.json"], "out_checkpoint": "m", "bogus": 1}), "CONFIG"),
    # One triplet makes every batch contrast-free: a CONFIG error, not a no-op run.
    "test_cli::TestTrainCommand.test_single_triplet_rejected_before_writing": Refusal(
        _train_json({"patch_height": 8, "patch_width": 8, "train_triplets": 1,
                     "cameras": ["x.json"], "out_checkpoint": "model.nest"}),
        "CONFIG", "train_triplets must be >= 2, got 1"),
    # Malformed NRAW, NEST, estimates-CSV and frame-set inputs, and noise that
    # no NRAW file or sampler can hold.
    "test_malformed_binary::test_malformed_input_is_coded_exit_2": {
        "nraw_wrapped_dims": Refusal(eval_kl_of(real=WRAPPED_NRAW), "BAD_TENSOR_FILE"),
        "nest_wrapped_dims": Refusal(
            lambda base: estimate_inputs(base, WRAPPED_NEST), "BAD_CHECKPOINT"),
        "calibrate_csv_not_utf8": Refusal(_calibrate(ESTIMATES + b"c,\xff\n"), "DOMAIN"),
        "calibrate_csv_oversized_field": Refusal(
            _calibrate(ESTIMATES + b"c," + b"1" * 200_000 + b"\n"), "DOMAIN"),
        "calibrate_iso_slope_not_finite": Refusal(_calibrate(ISO_UNDERFLOWS), "DOMAIN"),
        "calibrate_mu_c_mean_overflows": Refusal(_calibrate(MU_C_OVERFLOWS), "DOMAIN"),
        "append_csv_not_utf8": Refusal(_append(ESTIMATES + b"c,\xff\n"), "DOMAIN"),
        "append_csv_wrong_header": Refusal(
            _append(b"image_id,K\n" + ESTIMATES[len(ESTIMATES_HEADER):]), "DOMAIN"),
        "append_csv_malformed_row": Refusal(_append(ESTIMATES + b"x,abc,1,1,1\n"), "DOMAIN"),
        "synthesize_shot_rate_out_of_range": Refusal(
            _synthesize('{"K": 1e-20, "sigma": 1, "mu_c": 0, "sigma_r": 1}'), "DOMAIN"),
        "synthesize_float32_overflow": Refusal(
            _synthesize('{"K": 1, "sigma": 1e300, "mu_c": 0, "sigma_r": 1}'), "DOMAIN"),
        "synthesize_noise_sum_overflows_float64": Refusal(
            _synthesize(SUM_OVERFLOWS), "DOMAIN", NOT_FLOAT32),
        "synthesize_clamped_noise_sum_overflows_float64": Refusal(
            _plus(_synthesize(SUM_OVERFLOWS), "--clamp"), "DOMAIN",
            "noisy patch holds a value that is not finite; --clamp would hide it"),
        "gen_dataset_dark_noise_sum_overflows_float64": Refusal(
            _gen_dataset("--mode", "dark", "--height", 8, "--width", 8, "--params", SUM_OVERFLOWS),
            "DOMAIN", NOT_FLOAT32),
        "synthesize_noise_sum_is_nan": Refusal(
            _plus(_synthesize(SUM_IS_NAN), "--seed", 5), "DOMAIN", NOT_FLOAT32),
        "gen_dataset_dark_noise_sum_is_nan": Refusal(
            _gen_dataset("--mode", "dark", "--height", 8, "--width", 8, "--params", SUM_IS_NAN,
                         "--seed", 2),
            "DOMAIN", NOT_FLOAT32),
        "gen_dataset_shot_rate_out_of_range": Refusal(
            _gen_dataset("--mode", "flat", "--levels", "1e30", "--height", 8, "--width", 8,
                         "--params", '{"K": 1e-10, "sigma": 1, "mu_c": 0, "sigma_r": 1}'),
            "DOMAIN"),
        "gen_dataset_train_camera_line_overflows": Refusal(
            _then(_gen_dataset("--mode", "train", "--camera", "camera.json"),
                  lambda base: write_json(base / "camera.json", {**CAMERA, "b": 1000.0})),
            "DOMAIN"),
        # A finite camera whose triplets do not fit the float32 training stack.
        "train_camera_triplets_overflow_float32": Refusal(
            _then(train_inputs,
                  lambda base: write_json(base / "camera.json", {**CAMERA, "mu_c_model": 1e300})),
            "DOMAIN", "triplet patch holds a value that is not finite as float32"),
        # A finite camera whose sigma line underflows to 0, refused before stage 1 runs.
        "train_camera_sigma_underflows": Refusal(
            _then(train_inputs,
                  lambda base: write_json(base / "camera.json", {**CAMERA, "b": -800.0})),
            "DOMAIN", "a training anchor has no regression target: param transform needs "
            "sigma > 0 and sigma_r > 0, got NoiseParams(K=1.19494630778343, sigma=0.0, mu_c=0.0, "
            "sigma_r=0.9618269241007215)"),
        # Configs whose training steps overflow, refused after the epoch that diverged.
        **{f"train_{case}_diverges": Refusal(
            lambda base, keys=keys: train_inputs(base, **keys), "DOMAIN",
            f"training diverged at stage {stage}, epoch 0: the contrastive loss is not finite")
           for case, keys, stage in [
               ("tau_tiny", {"tau": 1e-300}, 1),
               ("tau_loss_huge", {"tau_loss": 1e300}, 2),
               ("learning_rate_huge", {"learning_rate": 1e300}, 1),
               ("input_scale_huge", {"input_scale": 1e300}, 1),
               ("param_weight_huge", {"param_weights": [1e300, 1, 1, 1]}, 2),
           ]},
        # Schedules whose rate at the third epoch overflows, or underflows to 0.
        **{f"train_{case}": Refusal(
            lambda base, keys=keys: train_inputs(base, decay_epochs=1, epochs_per_stage=3,
                                                 **keys),
            "CONFIG", "the learning rate at epoch 2 is not a finite number above 0",
            reads_nothing=True)
           for case, keys in [
               ("decay_factor_huge", {"decay_factor": 1e300}),
               ("decay_factor_tiny", {"decay_factor": 1e-300}),
               ("learning_rate_decays_to_zero", {"learning_rate": 5e-324}),
           ]},
        **{f"eval_kl_real_{tag}": Refusal(
            _then(eval_kl_of("--range", -1, 1), _fill("real.nraw", NON_FINITE[tag])), "DOMAIN",
            "{base}/real.nraw holds a value that is not finite") for tag in ("nan", "inf")},
        "eval_kl_range_infinite": Refusal(eval_kl_of("--range", 0, "inf"), "DOMAIN"),
        "eval_kl_range_width_overflows": Refusal(eval_kl_of("--range", -1e308, 1e308), "DOMAIN"),
        "eval_kl_range_narrower_than_its_bins": Refusal(
            eval_kl_of("--range", 1, 1.0000000000000002), "DOMAIN"),
        "eval_kl_bins_beyond_numpy_edges": Refusal(eval_kl_of("--bins", 10**20), "DOMAIN"),
        "eval_kl_bins_edges_beyond_numpy_bytes": Refusal(eval_kl_of("--bins", 2**62), "DOMAIN"),
        # Its --out exists, so a refusal before --out is claimed is DOMAIN, not IO_ERROR.
        "gen_dataset_height_beyond_numpy": Refusal(
            _then(_gen_dataset("--mode", "dark", "--params", PARAMS_JSON, "--height", 10**20),
                  lambda base: _mkdir(base / "set")),
            "DOMAIN"),
        "oracle_dark_mixed_shapes": Refusal(
            _then(oracle_inputs, _write("darks/noisy_0001.nraw", (4, 16, 32))), "SHAPE"),
        "oracle_flat_level_mixed_shapes": Refusal(
            _then(oracle_inputs, _write("flats/level_01/noisy_0001.nraw", (4, 16, 32))),
            "SHAPE"),
        "calibrate_estimates_directory": Refusal(
            lambda base: _set(calibrate_inputs(base, ESTIMATES), "--estimates",
                              _mkdir(base / "d")),
            "IO_ERROR"),
        "eval_kl_directory": Refusal(
            lambda base: ["eval-kl", "--real", _mkdir(base / "d"), "--synth", base / "d"],
            "IO_ERROR"),
        "estimate_checkpoint_directory": Refusal(
            lambda base: _set(estimate_inputs(base), "--checkpoint", _mkdir(base / "d")),
            "IO_ERROR"),
        "estimate_append_directory": Refusal(
            lambda base: [*estimate_inputs(base), "--append", _mkdir(base / "d")], "CONFIG"),
        "oracle_missing_dark": Refusal(
            _oracle_with("--dark", lambda base: base / "no"), "FILE_NOT_FOUND"),
        "oracle_missing_flat_series": Refusal(
            _oracle_with("--flat-series", lambda base: base / "no"), "FILE_NOT_FOUND"),
        "oracle_empty_dark": Refusal(
            _oracle_with("--dark", lambda base: _mkdir(base / "d")), "INSUFFICIENT_DATA"),
        "oracle_level_without_clean": Refusal(
            _then(oracle_inputs, lambda base: (base / LEVEL).unlink()), "INSUFFICIENT_DATA"),
        "oracle_no_level_directories": Refusal(
            _oracle_with("--flat-series", lambda base: _mkdir(base / "d")), "INSUFFICIENT_DATA"),
        "oracle_without_dark": Refusal(_oracle_with("--dark", None), "CONFIG"),
        "estimate_without_checkpoint": Refusal(
            lambda base: _set(estimate_inputs(base), "--checkpoint", None), "CONFIG"),
        "gen_dataset_train_without_camera": Refusal(_gen_dataset(), "CONFIG"),
        "gen_dataset_flat_without_params": Refusal(
            _gen_dataset("--mode", "flat", "--levels", 2), "CONFIG"),
        "gen_dataset_flat_without_levels": Refusal(
            _gen_dataset("--mode", "flat", "--params", PARAMS_JSON), "CONFIG"),
        "eval_kl_clean_shape_unlike_real": Refusal(
            eval_kl_of("--clean", "synth.nraw", real=tensor_to_bytes(np.zeros((4, 8, 8)))), "DOMAIN"),
        "seed_not_an_integer": Refusal(
            lambda base: _set(synthesize_inputs(base), "--seed", "abc"), "USAGE"),
        "white_level_not_a_number": Refusal(_gen_dataset("--white-level", "abc"), "USAGE"),
    },
    # Malformed camera, noise-parameter, training-config and NEST-header JSON.
    "test_malformed_json::test_malformed_record_is_coded_exit_2": {
        case: Refusal(lambda base, kind=kind, payload=payload: record_inputs(kind, base, payload),
                      code)
        for case, kind, payload, code in [
            ("camera_is_list", "camera", dump([CAMERA]), "DOMAIN"),
            ("camera_a_str", "camera", dump({**CAMERA, "a": "x"}), "DOMAIN"),
            ("camera_a_null", "camera", dump({**CAMERA, "a": None}), "DOMAIN"),
            ("camera_K_max_infinity", "camera", dump({**CAMERA, "K_max": math.inf}), "DOMAIN"),
            ("camera_noise_line_overflows", "camera", dump({**CAMERA, "b": 1000.0}), "DOMAIN"),
            ("params_K_null", "params", dump({**PARAMS, "K": None}), "DOMAIN"),
            ("params_K_str", "params", dump({**PARAMS, "K": "abc"}), "DOMAIN"),
            ("params_K_str_number", "params", dump({**PARAMS, "K": "1.5"}), "DOMAIN"),
            ("train_stage_is_int", "train", train_json(extractor=[3]), "CONFIG"),
            ("train_kernel_str", "train", train_json(extractor=[{**STAGE, "kernel": "3"}]),
             "CONFIG"),
            ("train_stage_unknown_key", "train", train_json(extractor=[{**STAGE, "pad": 1}]),
             "CONFIG"),
            ("train_learning_rate_str", "train", train_json(learning_rate="0.1"), "CONFIG"),
            ("train_learning_rate_nan", "train", train_json(learning_rate=math.nan), "CONFIG"),
            ("train_projector_null", "train", train_json(projector=None), "CONFIG"),
            ("train_scene_pool_size_str", "train", train_json(scene_pool_size="x"), "CONFIG"),
            ("train_white_level_negative", "train", train_json(white_level=-4), "CONFIG"),
            ("train_is_list", "train", b"[]", "CONFIG"),
            ("nest_extractor_int", "nest", nest_header({**NET, "extractor": [5]}),
             "BAD_CHECKPOINT"),
            ("nest_header_is_list", "nest", b"[1]", "BAD_CHECKPOINT"),
            ("nest_metadata_is_list", "nest", dump({"config": NET, "metadata": [1, "x"]}),
             "BAD_CHECKPOINT"),
        ]
    },
    # Flag values no command accepts; an empty path would name the working
    # directory or a file in it.
    "test_malformed_json::test_bad_flag_is_coded_exit_2_before_writing": {
        case: Refusal(_plus(COMMAND_LINES[flags[0]], *flags[1:]), code)
        for case, code, flags in [
            ("synthesize_white_level_nan", "USAGE",
             ["synthesize", "--clamp", "--white-level", "nan"]),
            ("synthesize_white_level_negative", "USAGE",
             ["synthesize", "--clamp", "--white-level", "-4"]),
            ("gen_dataset_white_level_negative", "USAGE",
             ["gen-dataset", "--mode", "train", "--white-level", "-5"]),
            ("gen_dataset_white_level_nan", "USAGE",
             ["gen-dataset", "--mode", "train", "--white-level", "nan"]),
            ("gen_dataset_levels_nan", "DOMAIN",
             ["gen-dataset", "--mode", "flat", "--levels", "nan,4"]),
            ("gen_dataset_levels_inf", "DOMAIN",
             ["gen-dataset", "--mode", "flat", "--levels", "inf,4"]),
            ("synthesize_out_empty", "USAGE", ["synthesize", "--out", ""]),
            ("gen_dataset_out_empty", "USAGE", ["gen-dataset", "--mode", "train", "--out", ""]),
            ("calibrate_out_empty", "USAGE", ["calibrate", "--out", ""]),
            ("estimate_out_empty", "USAGE", ["estimate", "--out", ""]),
            ("estimate_append_empty", "USAGE", ["estimate", "--append", ""]),
            ("sample_params_out_empty", "USAGE", ["sample-params", "--out", ""]),
        ]
    },
}
