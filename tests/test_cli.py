"""End-to-end command-line behavior: formats, determinism, error codes.

A test set to ``refusal_test`` runs its rows of the refusal table (``refusals.REFUSALS``).
"""

import argparse
import importlib
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from cli_harness import (
    CAMERA,
    ESTIMATES,
    ESTIMATES_HEADER,
    PARAMS,
    PARAMS_JSON,
    calibrate_inputs,
    oracle_inputs,
    status,
    train_inputs,
    tree,
    write_json,
)
from refusals import CLASHES, GEN_DATASET_RERUN, REFUSALS, refusal_test, rows

from rawnoise import cli, synthetic
from rawnoise.cli import build_parser
from rawnoise.estimator import EstimatorCheckpoint
from rawnoise.io import Manifest, read_tensor, write_tensor
from rawnoise.noise_core import NoiseParams, add_noise
from rawnoise.streams import derive_stream

# Frames of 64x64 at unit gain, for the oracle's round trip and memory checks.
FRAMES_64 = ["--params", json.dumps({**PARAMS, "K": 1.0}), "--height", 64, "--width", 64]
FRAME_64_BYTES = 4 * 64 * 64 * 8  # one such frame as float64


def frames_64(out, mode, count) -> Path:
    """A ``gen-dataset`` set of ``count`` frames a level (flats at 4, 16 and 64)."""
    seed, levels = (1, ["--levels", "4,16,64"]) if mode == "flat" else (2, [])
    assert status("gen-dataset", "--out", out, "--seed", seed, "--mode", mode,
                  "--count", count, *levels, *FRAMES_64) == 0
    return out


def oracle_peak(flats, darks) -> int:
    """Peak bytes traced by one ``estimate --oracle`` on these sets."""
    tracemalloc.start()
    try:
        assert status("estimate", "--oracle", "--flat-series", flats, "--dark", darks,
                      "--out", darks.parent / "est.json") == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.nraw"
    rng = np.random.default_rng(1)
    write_tensor(path, rng.uniform(0, 200, size=(4, 64, 64)))
    return path


class TestSynthesize:
    test_missing_input_exit_code = staticmethod(refusal_test)

    def test_patch_geometry_preserved(self, tmp_path, clean_file):
        out = tmp_path / "noisy.nraw"
        assert status(
            "synthesize", "--clean", clean_file, "--params", PARAMS_JSON,
            "--seed", 3, "--out", out,
        ) == 0
        assert read_tensor(out).shape == (4, 64, 64)
        manifest = Manifest.load(tmp_path / "noisy.json")
        assert manifest.seed == 3 and manifest.params.K == 1.5

    def test_clamp_bounds_output(self, tmp_path):
        clean = tmp_path / "bright.nraw"
        write_tensor(clean, np.full((4, 16, 16), 1020.0))
        out = tmp_path / "clamped.nraw"
        assert status(
            "synthesize", "--clean", clean, "--params",
            '{"K": 8.0, "sigma": 10.0, "mu_c": 0.0, "sigma_r": 5.0}',
            "--seed", 5, "--out", out, "--clamp", "--white-level", 1023,
        ) == 0
        noisy = read_tensor(out)
        assert noisy.min() >= 0.0 and noisy.max() <= 1023.0

    test_out_that_is_its_own_manifest_path_refused = staticmethod(refusal_test)


class TestCalibrate:
    def test_noiseless_line(self, tmp_path, capsys):
        rows = "".join(f"img{i},{k},{k},0.0,{k}\n" for i, k in enumerate((0.5, 1.0, 2.0, 4.0)))
        assert status(*calibrate_inputs(tmp_path, ESTIMATES_HEADER + rows.encode())) == 0
        model = json.loads((tmp_path / "out.json").read_text())
        assert abs(model["a"] - 1.0) <= 1e-9
        assert abs(model["b"]) <= 1e-9
        assert "a=" in capsys.readouterr().out

    test_single_row_insufficient = staticmethod(refusal_test)

    def test_iso_column_fits_alpha(self, tmp_path):
        argv = calibrate_inputs(
            tmp_path,
            b"image_id,K,sigma,mu_c,sigma_r,iso\n"
            b"a,0.5,1.0,0.0,0.5,100\n"
            b"b,1.0,1.3,0.0,0.7,200\n"
            b"c,2.0,1.9,0.0,1.0,400\n",
        )
        assert status(*argv) == 0
        alpha = json.loads((tmp_path / "out.json").read_text())["alpha"]
        assert alpha == pytest.approx(0.005, rel=1e-12)

    test_malformed_row_is_domain_error = staticmethod(refusal_test)
    test_iso_that_is_not_a_finite_positive_number_is_refused = staticmethod(refusal_test)
    test_header_with_other_columns_is_refused = staticmethod(refusal_test)


class TestSampleParams:
    def _camera(self, tmp_path, **keys):
        record = {**CAMERA, "K_min": 2.0, "K_max": 2.0, "mu_c_model": 0.25, **keys}
        return write_json(tmp_path / "camera.json", record)

    def test_degenerate_range_constant_gain(self, tmp_path):
        camera = self._camera(tmp_path)
        out = tmp_path / "params.csv"
        assert status("sample-params", "--camera", camera, "--count", 8, "--seed", 1,
                      "--out", out) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "image_id,K,sigma,mu_c,sigma_r"
        assert len(rows) == 9
        assert all(row.split(",")[1] == "2.0" for row in rows[1:])

    test_count_below_one_rejected_before_writing = staticmethod(refusal_test)
    test_negative_exponent_iso_reaches_the_domain_check = staticmethod(refusal_test)

    def test_sample_then_calibrate_round_trip(self, tmp_path):
        camera = self._camera(tmp_path, K_min=0.25, K_max=8.0)
        out = tmp_path / "params.csv"
        assert status("sample-params", "--camera", camera, "--count", 500, "--seed", 2,
                      "--out", out) == 0
        refit = tmp_path / "refit.json"
        assert status("calibrate", "--estimates", out, "--out", refit) == 0
        model = json.loads(refit.read_text())
        assert abs(model["a"] - 0.7) <= 0.05
        assert abs(model["mu_c_model"] - 0.25) <= 1e-9


class TestGenDatasetAndOracle:
    @pytest.mark.parametrize("mode, levels", [("flat", (5.0, 40.0)), ("dark", (0.0,))])
    def test_frame_k_of_level_j_draws_on_stream_j_count_plus_k(self, tmp_path, mode, levels):
        seed, count, height, width = 13, 3, 6, 4
        flags = ["--levels", ",".join(map(str, levels))] if mode == "flat" else []
        assert status("gen-dataset", "--out", tmp_path / "set", "--seed", seed, "--mode", mode,
                      "--count", count, "--params", PARAMS_JSON, "--height", height,
                      "--width", width, *flags) == 0
        params = NoiseParams.from_dict(PARAMS)
        for j, level in enumerate(levels):
            directory = tmp_path / "set" / (f"level_{j:02d}" if mode == "flat" else "")
            for k in range(count):
                stem = directory / f"noisy_{k:04d}"
                index = j * count + k
                assert Manifest.load(stem.with_suffix(".json")).stream_index == index
                frame = add_noise(np.full((4, height, width), level), params,
                                  derive_stream(seed, index))
                assert (read_tensor(stem.with_suffix(".nraw")).astype("<f4").tobytes()
                        == frame.astype("<f4").tobytes())

    test_bad_flags_rejected_before_writing = staticmethod(refusal_test)
    test_cameras_sharing_a_file_stem_refused = staticmethod(refusal_test)
    test_refused_rerun_keeps_the_first_tree = staticmethod(refusal_test)

    def test_oracle_holds_one_copy_of_each_frame_set(self, tmp_path):
        """Frames are read as the oracle reduces them: no set is copied into a stack.

        32 darks of 4x64x64 are 4 MiB as float64.  The frame list alone
        peaks at about 1.03x that; a second copy of the set passes 2x.
        """
        flats = frames_64(tmp_path / "flats", "flat", 4)
        darks = frames_64(tmp_path / "darks", "dark", 32)
        dark_bytes = 32 * FRAME_64_BYTES
        peak = oracle_peak(flats, darks)
        assert peak < 2.0 * dark_bytes, f"peak {peak / dark_bytes:.2f}x the dark set"

    def test_oracle_memory_does_not_grow_with_the_dark_count(self, tmp_path):
        """The darks are reduced one frame at a time: 64 darks of 4x64x64 peak
        within one frame (128 KiB) of 16 darks, with the same flats."""
        flats = frames_64(tmp_path / "flats", "flat", 4)
        peaks = [oracle_peak(flats, frames_64(tmp_path / f"darks_{count}", "dark", count))
                 for count in (16, 64)]
        assert abs(peaks[1] - peaks[0]) < FRAME_64_BYTES, f"peaks {peaks} differ by over one frame"

    def test_oracle_memory_does_not_grow_with_the_flat_count(self, tmp_path):
        """Each flat level is reduced one frame at a time: 16 flats a level of
        4x64x64 peak within one frame (128 KiB) of 4 flats, with the same darks."""
        darks = frames_64(tmp_path / "darks", "dark", 4)
        peaks = [oracle_peak(frames_64(tmp_path / f"flats_{count}", "flat", count), darks)
                 for count in (4, 16)]
        assert abs(peaks[1] - peaks[0]) < FRAME_64_BYTES, f"peaks {peaks} differ by over one frame"

    test_oracle_refuses_a_bad_level_reference = staticmethod(refusal_test)

    @pytest.mark.parametrize("shapes, expected", [
        ([(3, 16, 16)], "SHAPE: dark frames must be packed (4, H, W) frames, got (3, 16, 16)"),
        ([(4, 16, 4)], "DOMAIN: row noise needs packed width >= 8, got 4"),
        ([(4, 16, 16), (4, 16, 16), (4, 16, 32)],
         "SHAPE: dark frames differ in shape: frame 2 is (4, 16, 32), frame 0 is (4, 16, 16)"),
    ], ids=["unpacked_first", "narrow_first", "mixed_third"])
    def test_oracle_stops_at_the_first_bad_dark_frame(
        self, tmp_path, capsys, monkeypatch, shapes, expected
    ):
        """Exit 2 with the first bad dark frame's error; no later dark frame is read."""
        assert status("gen-dataset", "--out", tmp_path / "flats", "--seed", 1, "--mode", "flat",
                      "--count", 2, "--levels", "4,16", "--params", PARAMS_JSON,
                      "--height", 16, "--width", 16) == 0
        darks = tmp_path / "darks"
        darks.mkdir()
        for k, shape in enumerate([*shapes, *[(4, 16, 16)] * 3]):
            write_tensor(darks / f"noisy_{k:04d}.nraw", np.zeros(shape))
        read = []

        def counting_read(path):
            read.append(Path(path))
            return read_tensor(path)

        monkeypatch.setattr(cli, "read_tensor", counting_read)
        assert status("estimate", "--oracle", "--flat-series", tmp_path / "flats",
                      "--dark", darks, "--out", tmp_path / "est.json") == 2
        assert capsys.readouterr().err.strip() == expected
        assert [path.name for path in read if path.parent == darks] == [
            f"noisy_{k:04d}.nraw" for k in range(len(shapes))
        ]

    def test_oracle_estimate_round_trip(self, tmp_path):
        flat_dir = tmp_path / "flats"
        dark_dir = tmp_path / "darks"
        assert status("gen-dataset", "--out", flat_dir, "--seed", 10, "--mode", "flat",
                      "--count", 8, "--levels", "2,8,32,96,200", *FRAMES_64) == 0
        assert status("gen-dataset", "--out", dark_dir, "--seed", 11, "--mode", "dark",
                      "--count", 24, *FRAMES_64) == 0
        out = tmp_path / "estimate.json"
        csv_out = tmp_path / "estimates.csv"
        assert status(
            "estimate", "--oracle", "--flat-series", flat_dir, "--dark", dark_dir,
            "--out", out, "--append", csv_out, "--image-id", "synthcam",
        ) == 0
        record = json.loads(out.read_text())
        assert record["source"] == "oracle"
        assert abs(record["K"] - 1.0) <= 0.10
        assert abs(record["sigma"] - 2.0) <= 0.20 * 2.0
        assert abs(record["sigma_r"] - 0.8) <= 0.20 * 0.8
        assert abs(record["mu_c"] - 0.5) <= 0.05
        assert csv_out.read_text().splitlines()[1].startswith("synthcam,")


class TestNegativeSeeds:
    test_rejected_before_writing = staticmethod(refusal_test)


class TestEstimateCheckpoint:
    test_bad_checkpoint_magic = staticmethod(refusal_test)
    test_version_1_checkpoint_refused = staticmethod(refusal_test)


class TestEvalKL:
    def test_self_score_near_zero(self, tmp_path, capsys):
        path = tmp_path / "samples.nraw"
        write_tensor(path, np.random.default_rng(4).normal(0, 2, size=(4, 64, 64)))
        assert status("eval-kl", "--real", path, "--synth", path) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kl"] <= 1e-9
        assert record["bins"] == 256

    def test_distinct_distributions_score_positive(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = tmp_path / "a.nraw"
        b = tmp_path / "b.nraw"
        write_tensor(a, rng.normal(0, 1, size=(4, 64, 64)))
        write_tensor(b, rng.normal(0.5, 1.8, size=(4, 64, 64)))
        assert status("eval-kl", "--real", a, "--synth", b, "--bins", 64) == 0
        assert json.loads(capsys.readouterr().out)["kl"] > 0.01

    @pytest.mark.parametrize("lo, hi", [("-1e3", "1e3"), ("-1e-3", "1e-3"), ("-.5E+1", "5")])
    def test_exponent_range(self, tmp_path, capsys, lo, hi):
        path = tmp_path / "samples.nraw"
        write_tensor(path, np.random.default_rng(7).normal(0, 1e-3, size=(4, 8, 8)))
        assert status("eval-kl", "--real", path, "--synth", path, "--range", lo, hi) == 0
        assert json.loads(capsys.readouterr().out)["range"] == [float(lo), float(hi)]

    test_range_needs_two_values = staticmethod(refusal_test)


test_non_finite_nraw_input_is_named = refusal_test


class TestEstimateAppend:
    """``estimate --append`` keeps the CSV's header: with or without the iso column."""

    def _append(self, base, csv_path) -> str:
        """Run an oracle estimate appending row ``new``; the CSV line it should write."""
        assert status(*oracle_inputs(base), "--append", csv_path, "--image-id", "new") == 0
        record = json.loads((base / "out.json").read_text())
        return ",".join(["new", *(repr(record[key]) for key in ("K", "sigma", "mu_c", "sigma_r"))])

    def test_iso_rows_keep_their_iso_and_calibrate_fits_alpha(self, tmp_path, capsys):
        csv_path = tmp_path / "est.csv"
        csv_path.write_text(
            "image_id,K,sigma,mu_c,sigma_r,iso\n"
            "a,0.5,1.0,0.0,0.5,100\n"
            "b,1.0,1.3,0.0,0.7,200\n"
        )
        new = self._append(tmp_path, csv_path)
        assert csv_path.read_text() == (
            "image_id,K,sigma,mu_c,sigma_r,iso\n"
            "a,0.5,1.0,0.0,0.5,100.0\n"
            "b,1.0,1.3,0.0,0.7,200.0\n"
            f"{new},\n"
        )
        out = tmp_path / "camera.json"
        assert status("calibrate", "--estimates", csv_path, "--out", out) == 0
        assert "fit over 3 estimates" in capsys.readouterr().out
        # alpha from the two iso rows only: (100 * 0.5 + 200 * 1.0) / (100^2 + 200^2)
        assert json.loads(out.read_text())["alpha"] == pytest.approx(0.005, rel=1e-12)

    def test_rows_without_iso_keep_their_bytes(self, tmp_path):
        csv_path = tmp_path / "est.csv"
        csv_path.write_bytes(ESTIMATES)
        new = self._append(tmp_path, csv_path)
        assert csv_path.read_text() == f"{ESTIMATES.decode()}{new}\n"

    test_any_other_header_is_refused = staticmethod(refusal_test)
    test_append_to_the_out_path_is_refused = staticmethod(refusal_test)
    test_row_with_more_fields_than_its_header_is_refused = staticmethod(refusal_test)


test_output_that_would_replace_an_input_is_refused = refusal_test
test_out_at_the_working_directory_is_refused = refusal_test


def test_every_writing_command_has_a_clash_case(tmp_path_factory):
    """Every subcommand has a row in the refusal table, and each command with
    an --out, and train, has a row whose output would replace an input or an
    existing path, so none skips the output rule."""

    def commands(rows) -> set:
        return {row.build(tmp_path_factory.mktemp("row"))[0] for row in rows}

    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    writers = {
        name for name, parser in subcommands.items()
        if any(action.type is cli._out_path for action in parser._actions)
    }
    assert "gen-dataset" in writers and "eval-kl" not in writers
    assert commands(rows()) == set(subcommands)
    assert commands([*CLASHES.values(), GEN_DATASET_RERUN]) == {*writers, "train"}


def test_every_refusal_group_is_run_by_its_test():
    """Each group of the refusal table names a test that exists and takes ``refusal``."""
    for name in REFUSALS:
        module, qualname = name.split("::")
        test = importlib.import_module(module)
        for attribute in qualname.split("."):
            test = getattr(test, attribute)
        assert "refusal" in inspect.signature(test).parameters, name


class TestOutOfMemory:
    test_eval_kl_bins = staticmethod(refusal_test)
    test_gen_dataset_frame_size = staticmethod(refusal_test)


class TestTrainCommand:
    def test_train_writes_checkpoint_and_log(self, tmp_path):
        assert status(*train_inputs(tmp_path, out_log=str(tmp_path / "losses.csv"))) == 0
        checkpoint = EstimatorCheckpoint.load(tmp_path / "model.nest")
        assert checkpoint.metadata["epochs_completed"] == 2
        log_lines = (tmp_path / "losses.csv").read_text().splitlines()
        assert log_lines[0] == "stage,epoch,contrastive,regression,total"
        assert len(log_lines) == 3

    test_log_at_the_checkpoint_path_is_refused_before_training = staticmethod(refusal_test)
    test_empty_output_path_is_refused_before_training = staticmethod(refusal_test)
    test_unknown_config_key_rejected = staticmethod(refusal_test)
    test_single_triplet_rejected_before_writing = staticmethod(refusal_test)


class TestSharedParser:
    """main() builds the parser once per process; no call leaks into the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_appended_cameras_not_carried_over(self):
        flags = ["gen-dataset", "--out", "set", "--seed", "1", "--count", "1"]
        parser = build_parser()
        assert parser.parse_args([*flags, "--camera", "a.json", "--camera", "b.json"]).camera == [
            "a.json", "b.json"
        ]
        assert parser.parse_args(flags).camera is None

    def test_usage_failure_then_valid_call(self, tmp_path, capsys):
        path = tmp_path / "samples.nraw"
        write_tensor(path, np.random.default_rng(4).normal(0, 2, size=(4, 16, 16)))
        assert status("eval-kl", "--real", path, "--synth", path, "--bins", "many") == 2
        assert capsys.readouterr().err.startswith("USAGE: ")
        assert status("eval-kl", "--real", path, "--synth", path, "--bins", 32) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["bins"] == 32 and record["kl"] <= 1e-9

    def test_back_to_back_commands_match_fresh_processes(self, tmp_path, capsys):
        """gen-dataset then eval-kl in this process write the same bytes as each
        run alone in a new interpreter."""

        def commands(root):
            out = root / "set"
            return [
                ["gen-dataset", "--out", out, "--seed", 5, "--mode", "dark", "--count", 2,
                 "--params", PARAMS_JSON, "--height", 8, "--width", 8],
                ["eval-kl", "--real", out / "noisy_0000.nraw", "--synth", out / "noisy_0001.nraw",
                 "--clean", out / "clean.nraw", "--bins", 16],
            ]

        shared = []
        for argv in commands(tmp_path / "shared"):
            assert status(*argv) == 0
            shared.append(capsys.readouterr().out)

        src = str(Path(synthetic.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = []
        for argv in commands(tmp_path / "fresh"):
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from rawnoise.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *map(str, argv)],
                env=env, capture_output=True, text=True, check=True,
            )
            fresh.append(done.stdout)

        assert shared == fresh and json.loads(shared[1])["bins"] == 16
        assert tree(tmp_path / "shared") == tree(tmp_path / "fresh")
