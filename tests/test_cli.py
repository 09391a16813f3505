"""End-to-end command-line behavior: formats, determinism, error codes."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rawnoise import cli, synthetic
from rawnoise.cli import build_parser, main
from rawnoise.estimator import ConvStage, EstimatorConfig, EstimatorNetwork, EstimatorCheckpoint
from rawnoise.io import Manifest, read_tensor, write_tensor
from rawnoise.noise_core import NoiseParams, add_noise
from rawnoise.streams import derive_stream


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.nraw"
    rng = np.random.default_rng(1)
    write_tensor(path, rng.uniform(0, 200, size=(4, 64, 64)))
    return path


PARAMS_JSON = '{"K": 1.5, "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}'


class TestSynthesize:
    def test_seed_reproducibility(self, tmp_path, clean_file):
        out_a = tmp_path / "a.nraw"
        out_b = tmp_path / "b.nraw"
        for out in (out_a, out_b):
            assert run(
                "synthesize", "--clean", clean_file, "--params", PARAMS_JSON,
                "--seed", 7, "--out", out,
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_missing_input_exit_code(self, tmp_path, capsys):
        code = run(
            "synthesize", "--clean", tmp_path / "nope.nraw", "--params", PARAMS_JSON,
            "--seed", 1, "--out", tmp_path / "o.nraw",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("FILE_NOT_FOUND:")

    def test_patch_geometry_preserved(self, tmp_path, clean_file):
        out = tmp_path / "noisy.nraw"
        assert run(
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
        assert run(
            "synthesize", "--clean", clean, "--params",
            '{"K": 8.0, "sigma": 10.0, "mu_c": 0.0, "sigma_r": 5.0}',
            "--seed", 5, "--out", out, "--clamp", "--white-level", 1023,
        ) == 0
        noisy = read_tensor(out)
        assert noisy.min() >= 0.0 and noisy.max() <= 1023.0

    def test_out_that_is_its_own_manifest_path_refused(self, tmp_path, clean_file, capsys):
        """The manifest goes to --out with a .json suffix, so --out x.json would
        have its noisy tensor replaced by the manifest."""
        assert run("synthesize", "--clean", clean_file, "--params", PARAMS_JSON,
                   "--seed", 1, "--out", tmp_path / "x.json") == 2
        assert capsys.readouterr().err.startswith("CONFIG: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.nraw"]


class TestCalibrate:
    def test_noiseless_line(self, tmp_path, capsys):
        csv_path = tmp_path / "est.csv"
        lines = ["image_id,K,sigma,mu_c,sigma_r"]
        for i, k in enumerate((0.5, 1.0, 2.0, 4.0)):
            lines.append(f"img{i},{k},{k},0.0,{k}")
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "camera.json"
        assert run("calibrate", "--estimates", csv_path, "--out", out) == 0
        model = json.loads(out.read_text())
        assert abs(model["a"] - 1.0) <= 1e-9
        assert abs(model["b"]) <= 1e-9
        assert "a=" in capsys.readouterr().out

    def test_single_row_insufficient(self, tmp_path, capsys):
        csv_path = tmp_path / "est.csv"
        csv_path.write_text("image_id,K,sigma,mu_c,sigma_r\nimg0,1.0,1.0,0.0,1.0\n")
        assert run("calibrate", "--estimates", csv_path, "--out", tmp_path / "c.json") == 2
        assert capsys.readouterr().err.startswith("INSUFFICIENT_DATA:")

    def test_iso_column_fits_alpha(self, tmp_path):
        csv_path = tmp_path / "est.csv"
        csv_path.write_text(
            "image_id,K,sigma,mu_c,sigma_r,iso\n"
            "a,0.5,1.0,0.0,0.5,100\n"
            "b,1.0,1.3,0.0,0.7,200\n"
            "c,2.0,1.9,0.0,1.0,400\n"
        )
        out = tmp_path / "camera.json"
        assert run("calibrate", "--estimates", csv_path, "--out", out) == 0
        assert json.loads(out.read_text())["alpha"] == pytest.approx(0.005, rel=1e-12)

    @pytest.mark.parametrize(
        "bad_row",
        ["img1,1.0,1.0", "img1,1.0,abc,0.0,1.0", "img1,1.0,1.0,0.0,1.0,100"],
        ids=["short", "non_numeric", "long"],
    )
    def test_malformed_row_is_domain_error(self, tmp_path, capsys, bad_row):
        """The header is row 1, so the bad third line is reported as row 3."""
        csv_path = tmp_path / "est.csv"
        csv_path.write_text(
            "image_id,K,sigma,mu_c,sigma_r\nimg0,1.0,1.0,0.0,1.0\n" + bad_row + "\n"
        )
        out = tmp_path / "c.json"
        assert run("calibrate", "--estimates", csv_path, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"DOMAIN: {csv_path} row 3: ")
        assert not out.exists()

    def test_header_with_other_columns_is_refused(self, tmp_path, capsys):
        """calibrate reads the two headers estimate --append writes, and no other:
        an iso column after another column is not read as iso."""
        csv_path = tmp_path / "est.csv"
        csv_path.write_text(
            "image_id,K,sigma,mu_c,sigma_r,note,iso\n"
            "a,0.5,1.0,0.0,0.5,x,100\n"
            "b,1.0,1.3,0.0,0.7,y,200\n"
        )
        out = tmp_path / "camera.json"
        assert run("calibrate", "--estimates", csv_path, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"DOMAIN: {csv_path} must have header image_id,K,sigma,mu_c,sigma_r "
            "or image_id,K,sigma,mu_c,sigma_r,iso\n"
        )
        assert not out.exists()


class TestSampleParams:
    def _camera(self, tmp_path, k_min=2.0, k_max=2.0):
        path = tmp_path / "camera.json"
        path.write_text(
            json.dumps(
                {
                    "a": 0.7, "b": 0.1, "a_r": 0.5, "b_r": -0.2,
                    "sigma_hat": 0.1, "sigma_r_hat": 0.1,
                    "K_min": k_min, "K_max": k_max, "mu_c_model": 0.25,
                }
            )
        )
        return path

    def test_degenerate_range_constant_gain(self, tmp_path):
        camera = self._camera(tmp_path)
        out = tmp_path / "params.csv"
        assert run("sample-params", "--camera", camera, "--count", 8, "--seed", 1, "--out", out) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "image_id,K,sigma,mu_c,sigma_r"
        assert len(rows) == 9
        assert all(row.split(",")[1] == "2.0" for row in rows[1:])

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one_rejected_before_writing(self, tmp_path, capsys, count):
        camera = self._camera(tmp_path)
        out = tmp_path / "params.csv"
        assert run("sample-params", "--camera", camera, "--count", count, "--seed", 1,
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith("DOMAIN: ")
        assert not out.exists()
        assert not (tmp_path / "params.csv.provenance.json").exists()

    def test_negative_exponent_iso_reaches_the_domain_check(self, tmp_path, capsys):
        camera = self._camera(tmp_path)
        camera.write_text(json.dumps({**json.loads(camera.read_text()), "alpha": 0.01}))
        out = tmp_path / "params.csv"
        assert run("sample-params", "--camera", camera, "--count", 2, "--seed", 1,
                   "--out", out, "--iso", "-1e3") == 2
        assert capsys.readouterr().err.startswith("DOMAIN: ")
        assert not out.exists()

    def test_sample_then_calibrate_round_trip(self, tmp_path):
        camera = self._camera(tmp_path, k_min=0.25, k_max=8.0)
        out = tmp_path / "params.csv"
        assert run("sample-params", "--camera", camera, "--count", 500, "--seed", 2, "--out", out) == 0
        refit = tmp_path / "refit.json"
        assert run("calibrate", "--estimates", out, "--out", refit) == 0
        model = json.loads(refit.read_text())
        assert abs(model["a"] - 0.7) <= 0.05
        assert abs(model["mu_c_model"] - 0.25) <= 1e-9


class TestGenDatasetAndOracle:
    def test_gen_dataset_byte_reproducible(self, tmp_path):
        for name in ("one", "two"):
            assert run(
                "gen-dataset", "--out", tmp_path / name, "--seed", 9, "--mode", "dark",
                "--count", 3, "--params", PARAMS_JSON, "--height", 16, "--width", 16,
            ) == 0
        for rel in ("clean.nraw", "noisy_0000.nraw", "noisy_0002.json"):
            assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "two" / rel).read_bytes()

    @pytest.mark.parametrize("mode, levels", [("flat", (5.0, 40.0)), ("dark", (0.0,))])
    def test_frame_k_of_level_j_draws_on_stream_j_count_plus_k(self, tmp_path, mode, levels):
        seed, count, height, width = 13, 3, 6, 4
        flags = ["--levels", ",".join(map(str, levels))] if mode == "flat" else []
        assert run("gen-dataset", "--out", tmp_path / "set", "--seed", seed, "--mode", mode,
                   "--count", count, "--params", PARAMS_JSON, "--height", height,
                   "--width", width, *flags) == 0
        params = NoiseParams.from_dict(json.loads(PARAMS_JSON))
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

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--mode", "dark", "--count", -3, "--height", 0], "DOMAIN"),
            (["--mode", "dark", "--count", 0], "DOMAIN"),
            (["--mode", "dark", "--count", 2, "--height", 0], "DOMAIN"),
            (["--mode", "dark", "--count", 2, "--width", -1], "DOMAIN"),
            (["--mode", "flat", "--count", 2, "--levels", "2,x"], "CONFIG"),
        ],
        ids=["negative_count_zero_height", "zero_count", "zero_height", "negative_width",
             "non_numeric_level"],
    )
    def test_bad_flags_rejected_before_writing(self, tmp_path, capsys, flags, code):
        out = tmp_path / "set"
        assert run("gen-dataset", "--out", out, "--seed", 1, "--params", PARAMS_JSON, *flags) == 2
        assert capsys.readouterr().err.startswith(f"{code}: ")
        assert not out.exists()

    def test_shot_rate_beyond_sampler_range_is_domain_error(self, tmp_path, capsys):
        """A level of 1e30 at K = 1e-10 is a Poisson rate of 1e40; numpy's sampler refuses it."""
        assert run(
            "gen-dataset", "--out", tmp_path / "set", "--seed", 1, "--mode", "flat",
            "--count", 2, "--levels", "1e30", "--height", 8, "--width", 8,
            "--params", '{"K": 1e-10, "sigma": 1.0, "mu_c": 0.0, "sigma_r": 1.0}',
        ) == 2
        assert capsys.readouterr().err.startswith("DOMAIN: ")

    @pytest.mark.parametrize(
        "mode, flags",
        [
            ("flat", ["--levels", "4,1e30", "--params",
                      '{"K": 1e-10, "sigma": 1.0, "mu_c": 0.0, "sigma_r": 1.0}']),
            ("dark", ["--params", '{"K": 1.0, "sigma": 1e300, "mu_c": 0.0, "sigma_r": 1.0}']),
        ],
        ids=["flat_shot_rate", "dark_float32_overflow"],
    )
    def test_refused_run_removes_what_it_wrote(self, tmp_path, capsys, mode, flags):
        """A run refused after writing some frames removes the directories it
        created, --out and its missing parent, and leaves their sibling alone."""
        out = tmp_path / "new" / "set"
        (tmp_path / "notes.txt").write_text("kept")
        assert run("gen-dataset", "--out", out, "--seed", 1, "--mode", mode, "--count", 2,
                   "--height", 8, "--width", 8, *flags) == 2
        assert capsys.readouterr().err.startswith("DOMAIN: ")
        assert not out.exists() and not out.parent.exists()
        assert (tmp_path / "notes.txt").read_text() == "kept"

    def test_cameras_sharing_a_file_stem_refused(self, tmp_path, capsys):
        """The file stem is the camera id, so two cameras named cam.json would be
        merged into one id in dataset.json and every manifest."""
        bank = synthetic.default_camera_bank()
        cameras = []
        for folder, model in (("a", bank[0]), ("b", bank[2])):
            (tmp_path / folder).mkdir()
            cameras += ["--camera", tmp_path / folder / "cam.json"]
            cameras[-1].write_text(json.dumps(model.as_dict()))
        out = tmp_path / "set"
        assert run("gen-dataset", "--out", out, "--seed", 3, "--mode", "train", "--count", 6,
                   "--height", 8, "--width", 8, *cameras) == 2
        assert capsys.readouterr().err.startswith("CONFIG: ")
        assert not out.exists()

    def test_refused_rerun_keeps_the_first_tree(self, tmp_path, capsys):
        """gen-dataset never replaces a file: a rerun into the same --out is
        refused with IO_ERROR, and the first run's tree stays byte-identical."""
        camera = tmp_path / "camera.json"
        out = tmp_path / "set"
        camera.write_text(json.dumps({
            "a": 0.7, "b": 0.1, "a_r": 0.5, "b_r": -0.2, "sigma_hat": 0.1, "sigma_r_hat": 0.1,
            "K_min": 0.25, "K_max": 8.0, "mu_c_model": 0.0,
        }))
        train = ["gen-dataset", "--out", out, "--seed", 1, "--mode", "train", "--count", 3,
                 "--height", 8, "--width", 8, "--camera", camera]
        assert run(*train) == 0
        before = {path: path.read_bytes() if path.is_file() else None for path in out.rglob("*")}
        # this camera's gain makes the shot rate refused (DOMAIN) once a patch is drawn
        camera.write_text(json.dumps({**json.loads(camera.read_text()),
                                      "K_min": 1e-20, "K_max": 1e-20}))
        assert run(*train) == 2
        assert capsys.readouterr().err.startswith("IO_ERROR: ")
        after = {path: path.read_bytes() if path.is_file() else None for path in out.rglob("*")}
        assert after == before

    def test_oracle_holds_one_copy_of_each_frame_set(self, tmp_path):
        """Frames are read as the oracle reduces them: no set is copied into a stack.

        32 darks of 4x64x64 are 4 MiB as float64.  The frame list alone
        peaks at about 1.03x that; a second copy of the set passes 2x.
        """
        params = '{"K": 1.0, "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}'
        frames = ["--params", params, "--height", 64, "--width", 64]
        assert run("gen-dataset", "--out", tmp_path / "flats", "--seed", 1, "--mode", "flat",
                   "--count", 4, "--levels", "4,16,64", *frames) == 0
        assert run("gen-dataset", "--out", tmp_path / "darks", "--seed", 2, "--mode", "dark",
                   "--count", 32, *frames) == 0
        dark_bytes = 32 * 4 * 64 * 64 * 8
        tracemalloc.start()
        try:
            assert run("estimate", "--oracle", "--flat-series", tmp_path / "flats",
                       "--dark", tmp_path / "darks", "--out", tmp_path / "est.json") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * dark_bytes, f"peak {peak / dark_bytes:.2f}x the dark set"

    def test_oracle_memory_does_not_grow_with_the_dark_count(self, tmp_path):
        """The darks are reduced one frame at a time: 64 darks of 4x64x64 peak
        within one frame (128 KiB) of 16 darks, with the same flats."""
        params = '{"K": 1.0, "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}'
        frames = ["--params", params, "--height", 64, "--width", 64]
        assert run("gen-dataset", "--out", tmp_path / "flats", "--seed", 1, "--mode", "flat",
                   "--count", 4, "--levels", "4,16,64", *frames) == 0
        peaks = []
        for count in (16, 64):
            darks = tmp_path / f"darks_{count}"
            assert run("gen-dataset", "--out", darks, "--seed", 2, "--mode", "dark",
                       "--count", count, *frames) == 0
            tracemalloc.start()
            try:
                assert run("estimate", "--oracle", "--flat-series", tmp_path / "flats",
                           "--dark", darks, "--out", tmp_path / "est.json") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        frame_bytes = 4 * 64 * 64 * 8
        assert abs(peaks[1] - peaks[0]) < frame_bytes, f"peaks {peaks} differ by over one frame"

    def test_oracle_memory_does_not_grow_with_the_flat_count(self, tmp_path):
        """Each flat level is reduced one frame at a time: 16 flats a level of
        4x64x64 peak within one frame (128 KiB) of 4 flats, with the same darks."""
        params = '{"K": 1.0, "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}'
        frames = ["--params", params, "--height", 64, "--width", 64]
        assert run("gen-dataset", "--out", tmp_path / "darks", "--seed", 2, "--mode", "dark",
                   "--count", 4, *frames) == 0
        peaks = []
        for count in (4, 16):
            flats = tmp_path / f"flats_{count}"
            assert run("gen-dataset", "--out", flats, "--seed", 1, "--mode", "flat",
                       "--count", count, "--levels", "4,16,64", *frames) == 0
            tracemalloc.start()
            try:
                assert run("estimate", "--oracle", "--flat-series", flats,
                           "--dark", tmp_path / "darks", "--out", tmp_path / "est.json") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        frame_bytes = 4 * 64 * 64 * 8
        assert abs(peaks[1] - peaks[0]) < frame_bytes, f"peaks {peaks} differ by over one frame"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape, level", [
        ((4, 0, 16), 0.0), ((4, 16, 16), np.nan), ((4, 16, 16), np.inf), ((4, 16, 16), -5.0),
    ], ids=["empty", "nan", "inf", "negative"])
    def test_oracle_refuses_a_bad_level_reference(self, tmp_path, capsys, shape, level):
        """A clean.nraw that is empty, non-finite or negative exits 2 with DOMAIN
        naming the file, as gen-dataset refuses such levels, and writes nothing.
        The NRAW reader refuses the non-finite ones before a level is taken."""
        frames = ["--params", PARAMS_JSON, "--height", 16, "--width", 16]
        assert run("gen-dataset", "--out", tmp_path / "flats", "--seed", 1, "--mode", "flat",
                   "--count", 2, "--levels", "4,16", *frames) == 0
        assert run("gen-dataset", "--out", tmp_path / "darks", "--seed", 2, "--mode", "dark",
                   "--count", 2, *frames) == 0
        clean = tmp_path / "flats" / "level_00" / "clean.nraw"
        write_tensor(clean, np.zeros(shape))
        # NRAW writers refuse non-finite values, so the payload is put in by hand.
        raw, payload = clean.read_bytes(), np.full(shape, level, dtype="<f4").tobytes()
        clean.write_bytes(raw[:len(raw) - len(payload)] + payload)
        assert run("estimate", "--oracle", "--flat-series", tmp_path / "flats",
                   "--dark", tmp_path / "darks", "--out", tmp_path / "est.json") == 2
        reason = ("must hold a finite, non-negative flat level" if np.isfinite(level)
                  else "holds a value that is not finite")
        assert capsys.readouterr().err.strip() == f"DOMAIN: {clean} {reason}"
        assert not (tmp_path / "est.json").exists()

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
        assert run("gen-dataset", "--out", tmp_path / "flats", "--seed", 1, "--mode", "flat",
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
        assert run("estimate", "--oracle", "--flat-series", tmp_path / "flats",
                   "--dark", darks, "--out", tmp_path / "est.json") == 2
        assert capsys.readouterr().err.strip() == expected
        assert [path.name for path in read if path.parent == darks] == [
            f"noisy_{k:04d}.nraw" for k in range(len(shapes))
        ]

    def test_oracle_estimate_round_trip(self, tmp_path):
        params = '{"K": 1.0, "sigma": 2.0, "mu_c": 0.5, "sigma_r": 0.8}'
        flat_dir = tmp_path / "flats"
        dark_dir = tmp_path / "darks"
        assert run(
            "gen-dataset", "--out", flat_dir, "--seed", 10, "--mode", "flat",
            "--count", 8, "--params", params, "--levels", "2,8,32,96,200",
            "--height", 64, "--width", 64,
        ) == 0
        assert run(
            "gen-dataset", "--out", dark_dir, "--seed", 11, "--mode", "dark",
            "--count", 24, "--params", params, "--height", 64, "--width", 64,
        ) == 0
        out = tmp_path / "estimate.json"
        csv_out = tmp_path / "estimates.csv"
        assert run(
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
    """A negative seed or stream index is refused before anything is written."""

    @pytest.mark.parametrize(
        "case, code",
        [
            ("synthesize_seed", "USAGE"),
            ("synthesize_stream_index", "USAGE"),
            ("sample_params_seed", "USAGE"),
            ("gen_dataset_dark_seed", "USAGE"),
            ("gen_dataset_train_seed", "USAGE"),
            ("train_config_seed", "CONFIG"),
        ],
    )
    def test_rejected_before_writing(self, tmp_path, capsys, clean_file, case, code):
        camera = tmp_path / "camera.json"
        camera.write_text(
            '{"a": 0.7, "b": 0.1, "a_r": 0.5, "b_r": -0.2, "sigma_hat": 0.1,'
            ' "sigma_r_hat": 0.1, "K_min": 0.25, "K_max": 8.0, "mu_c_model": 0.0}'
        )
        out = tmp_path / "out"
        config = tmp_path / "train.json"
        config.write_text(json.dumps({
            "patch_height": 8, "patch_width": 8, "train_triplets": 8, "seed": -1,
            "cameras": [str(camera)], "out_checkpoint": str(out),
        }))
        synthesize = ["synthesize", "--clean", clean_file, "--params", PARAMS_JSON, "--out", out]
        gen_dataset = ["gen-dataset", "--out", out, "--count", 1, "--height", 8, "--width", 8]
        argv = {
            "synthesize_seed": [*synthesize, "--seed", -1],
            "synthesize_stream_index": [*synthesize, "--seed", 1, "--stream-index", -1],
            "sample_params_seed": ["sample-params", "--camera", camera, "--count", 2,
                                   "--seed", -1, "--out", out],
            "gen_dataset_dark_seed": [*gen_dataset, "--mode", "dark", "--params", PARAMS_JSON,
                                      "--seed", -1],
            "gen_dataset_train_seed": [*gen_dataset, "--mode", "train", "--camera", camera,
                                       "--seed", -1],
            "train_config_seed": ["train", "--config", config],
        }[case]
        try:
            status = run(*argv)
        except SystemExit as exc:
            status = exc.code
        assert status == 2
        assert capsys.readouterr().err.startswith(f"{code}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["camera.json", "clean.nraw",
                                                              "train.json"]


class TestEstimateCheckpoint:
    @pytest.fixture()
    def checkpoint_file(self, tmp_path):
        config = EstimatorConfig(
            patch_height=16, patch_width=16,
            extractor=(ConvStage(3, 2, 4),), feature_dim=8,
            projector=(6, 4), head=(6, 4), train_triplets=4, seed=5,
        )
        net = EstimatorNetwork.initialize(config)
        path = tmp_path / "model.nest"
        EstimatorCheckpoint(config=config, params=net.params).save(path)
        return path

    def test_deterministic_estimates(self, tmp_path, checkpoint_file):
        patch = tmp_path / "patch.nraw"
        write_tensor(patch, np.random.default_rng(3).uniform(0, 100, (4, 16, 16)))
        outs = []
        for name in ("p1.json", "p2.json"):
            out = tmp_path / name
            assert run(
                "estimate", "--input", patch, "--checkpoint", checkpoint_file, "--out", out
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_checkpoint_magic(self, tmp_path, capsys):
        bad = tmp_path / "bad.nest"
        bad.write_bytes(b"JUNKJUNKJUNK")
        patch = tmp_path / "patch.nraw"
        write_tensor(patch, np.zeros((4, 16, 16)))
        code = run("estimate", "--input", patch, "--checkpoint", bad, "--out", tmp_path / "o.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("BAD_CHECKPOINT:")

    def test_version_1_checkpoint_refused(self, tmp_path, checkpoint_file, capsys):
        """A v1 checkpoint predates the rebalanced Haar front end; its
        weights would give wrong estimates, so it is refused."""
        raw = bytearray(checkpoint_file.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")
        old = tmp_path / "v1.nest"
        old.write_bytes(bytes(raw))
        patch = tmp_path / "patch.nraw"
        write_tensor(patch, np.zeros((4, 16, 16)))
        code = run("estimate", "--input", patch, "--checkpoint", old, "--out", tmp_path / "o.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("BAD_CHECKPOINT:")


class TestEvalKL:
    def test_self_score_near_zero(self, tmp_path, capsys):
        path = tmp_path / "samples.nraw"
        write_tensor(path, np.random.default_rng(4).normal(0, 2, size=(4, 64, 64)))
        assert run("eval-kl", "--real", path, "--synth", path) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kl"] <= 1e-9
        assert record["bins"] == 256

    def test_distinct_distributions_score_positive(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = tmp_path / "a.nraw"
        b = tmp_path / "b.nraw"
        write_tensor(a, rng.normal(0, 1, size=(4, 64, 64)))
        write_tensor(b, rng.normal(0.5, 1.8, size=(4, 64, 64)))
        assert run("eval-kl", "--real", a, "--synth", b, "--bins", 64) == 0
        assert json.loads(capsys.readouterr().out)["kl"] > 0.01

    @pytest.mark.parametrize("lo, hi", [("-1e3", "1e3"), ("-1e-3", "1e-3"), ("-.5E+1", "5")])
    def test_exponent_range(self, tmp_path, capsys, lo, hi):
        path = tmp_path / "samples.nraw"
        write_tensor(path, np.random.default_rng(7).normal(0, 1e-3, size=(4, 8, 8)))
        assert run("eval-kl", "--real", path, "--synth", path, "--range", lo, hi) == 0
        assert json.loads(capsys.readouterr().out)["range"] == [float(lo), float(hi)]

    @pytest.mark.parametrize("flag", ["--real", "--synth", "--clean"])
    def test_non_finite_input_is_named(self, tmp_path, capsys, flag):
        """A NaN in any input exits 2 with DOMAIN naming that file, not the histogram range."""
        paths = {name: tmp_path / f"{name[2:]}.nraw" for name in ("--real", "--synth", "--clean")}
        for path in paths.values():
            write_tensor(path, np.zeros((4, 8, 8)))
        # NRAW writers refuse non-finite values, so the payload is put in by hand.
        raw, payload = paths[flag].read_bytes(), np.full((4, 8, 8), np.nan, dtype="<f4").tobytes()
        paths[flag].write_bytes(raw[:len(raw) - len(payload)] + payload)
        argv = [arg for name, path in paths.items() for arg in (name, path)]
        assert run("eval-kl", *argv) == 2
        assert capsys.readouterr().err.strip() == (
            f"DOMAIN: {paths[flag]} holds a value that is not finite"
        )

    def test_range_needs_two_values(self, tmp_path, capsys):
        path = tmp_path / "samples.nraw"
        write_tensor(path, np.zeros((4, 8, 8)))
        with pytest.raises(SystemExit) as exc:
            run("eval-kl", "--real", path, "--synth", path, "--range", "-1e3")
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("USAGE: ")


def _synthesize_inputs(base) -> list:
    write_tensor(base / "clean.nraw", np.full((4, 8, 8), 100.0))
    return ["synthesize", "--clean", base / "clean.nraw", "--params", PARAMS_JSON,
            "--seed", 1, "--out", base / "out.nraw"]


def _estimate_inputs(base) -> list:
    config = EstimatorConfig(
        patch_height=8, patch_width=8, extractor=(ConvStage(3, 2, 2),), feature_dim=4,
        projector=(3,), head=(3, 4),
    )
    EstimatorCheckpoint(config, EstimatorNetwork.initialize(config).params).save(
        base / "model.nest")
    write_tensor(base / "patch.nraw", np.full((4, 8, 8), 50.0))
    return ["estimate", "--input", base / "patch.nraw", "--checkpoint", base / "model.nest",
            "--out", base / "out.json"]


def _oracle_inputs(base) -> list:
    frames = ["--params", PARAMS_JSON, "--height", 16, "--width", 16]
    assert run("gen-dataset", "--out", base / "flats", "--seed", 1, "--mode", "flat",
               "--count", 2, "--levels", "4,16", *frames) == 0
    assert run("gen-dataset", "--out", base / "darks", "--seed", 2, "--mode", "dark",
               "--count", 2, *frames) == 0
    return ["estimate", "--oracle", "--flat-series", base / "flats", "--dark", base / "darks",
            "--out", base / "out.json"]


def _eval_kl_inputs(base) -> list:
    argv = ["eval-kl"]
    for name in ("real", "synth", "clean"):
        write_tensor(base / f"{name}.nraw", np.zeros((4, 8, 8)))
        argv += [f"--{name}", base / f"{name}.nraw"]
    return argv


# Each NRAW input of the CLI: the command that reads it, and its file.
NRAW_INPUTS = {
    "synthesize_clean": (_synthesize_inputs, "clean.nraw"),
    "estimate_input": (_estimate_inputs, "patch.nraw"),
    "oracle_dark_frame": (_oracle_inputs, "darks/noisy_0001.nraw"),
    "oracle_flat_frame": (_oracle_inputs, "flats/level_01/noisy_0000.nraw"),
    "oracle_flat_clean": (_oracle_inputs, "flats/level_00/clean.nraw"),
    "eval_kl_real": (_eval_kl_inputs, "real.nraw"),
    "eval_kl_synth": (_eval_kl_inputs, "synth.nraw"),
    "eval_kl_clean": (_eval_kl_inputs, "clean.nraw"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(NRAW_INPUTS))
def test_non_finite_nraw_input_is_named(tmp_path, capsys, case, value):
    """A non-finite payload in any NRAW input exits 2 with DOMAIN naming that
    file, and nothing is written."""
    build, name = NRAW_INPUTS[case]
    argv = build(tmp_path)
    path = tmp_path / name
    # NRAW writers refuse non-finite values, so the payload is put in by hand.
    raw, shape = path.read_bytes(), read_tensor(path).shape
    payload = np.full(shape, value, dtype="<f4").tobytes()
    path.write_bytes(raw[:len(raw) - len(payload)] + payload)
    before = set(tmp_path.rglob("*"))
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert err.strip() == f"DOMAIN: {path} holds a value that is not finite"
    assert out == ""
    assert set(tmp_path.rglob("*")) == before


class TestEstimateAppend:
    """``estimate --append`` keeps the CSV's header: with or without the iso column."""

    def _append(self, base, csv_path) -> str:
        """Run an oracle estimate appending row ``new``; the CSV line it should write."""
        assert run(*_oracle_inputs(base), "--append", csv_path, "--image-id", "new") == 0
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
        assert run("calibrate", "--estimates", csv_path, "--out", out) == 0
        assert "fit over 3 estimates" in capsys.readouterr().out
        # alpha from the two iso rows only: (100 * 0.5 + 200 * 1.0) / (100^2 + 200^2)
        assert json.loads(out.read_text())["alpha"] == pytest.approx(0.005, rel=1e-12)

    def test_rows_without_iso_keep_their_bytes(self, tmp_path):
        csv_path = tmp_path / "est.csv"
        kept = "image_id,K,sigma,mu_c,sigma_r\na,0.5,1.0,0.0,0.5\nb,1.0,1.3,0.0,0.7\n"
        csv_path.write_text(kept)
        new = self._append(tmp_path, csv_path)
        assert csv_path.read_text() == f"{kept}{new}\n"

    @pytest.mark.parametrize(
        "header", ["image_id,K,sigma,mu_c,sigma_r,note", "image_id,K,sigma,mu_c,sigma_r,iso,note"]
    )
    def test_any_other_header_is_refused(self, tmp_path, capsys, header):
        csv_path = tmp_path / "est.csv"
        csv_path.write_text(f"{header}\na,0.5,1.0,0.0,0.5,1\n")
        before = csv_path.read_bytes()
        assert run(*_oracle_inputs(tmp_path), "--append", csv_path) == 2
        assert capsys.readouterr().err == (
            f"DOMAIN: {csv_path} must have header image_id,K,sigma,mu_c,sigma_r "
            "or image_id,K,sigma,mu_c,sigma_r,iso\n"
        )
        assert csv_path.read_bytes() == before
        assert not (tmp_path / "out.json").exists()

    def test_append_to_the_out_path_is_refused(self, tmp_path, capsys, monkeypatch):
        """The estimate JSON would be replaced by the CSV; the same file,
        spelled two ways, is refused before any frame is read."""
        argv = _oracle_inputs(tmp_path)
        before = set(tmp_path.rglob("*"))
        read = []
        monkeypatch.setattr(cli, "read_tensor", lambda path: read.append(path))
        assert run(*argv, "--append", f"{tmp_path}/flats/../out.json") == 2
        assert capsys.readouterr().err == (
            f"CONFIG: --append {tmp_path}/flats/../out.json would replace the estimate at --out\n"
        )
        assert read == []
        assert set(tmp_path.rglob("*")) == before

    def test_row_with_more_fields_than_its_header_is_refused(self, tmp_path, capsys):
        """An extra field would be dropped when the CSV is rewritten."""
        csv_path = tmp_path / "est.csv"
        csv_path.write_text("image_id,K,sigma,mu_c,sigma_r,iso\na,0.5,1.0,0.0,0.5,100,note\n")
        before = csv_path.read_bytes()
        assert run(*_oracle_inputs(tmp_path), "--append", csv_path) == 2
        assert capsys.readouterr().err == f"DOMAIN: {csv_path} row 2: expected 6 fields, got 7\n"
        assert csv_path.read_bytes() == before
        assert not (tmp_path / "out.json").exists()


def _tree(base) -> dict:
    """Every path under ``base``, with its bytes when it is a file."""
    return {p: p.read_bytes() if p.is_file() else None for p in base.rglob("*")}


def _mkdir(path) -> Path:
    path.mkdir()
    return path


def _camera_file(path) -> Path:
    path.write_text(json.dumps(synthetic.default_camera_bank()[0].as_dict()))
    return path


def _train_config(base, **keys) -> Path:
    """A toy training config at ``base/train.json`` over the camera ``base/camera.json``."""
    config_path = base / "train.json"
    config_path.write_text(json.dumps({
        "extractor": [{"kernel": 3, "stride": 2, "width": 4}], "feature_dim": 8,
        "projector": [6, 4], "head": [6, 4], "patch_height": 8, "patch_width": 8,
        "batch_size": 4, "epochs_per_stage": 1, "train_triplets": 8, "scene_pool_size": 4,
        "cameras": [str(_camera_file(base / "camera.json"))],
        "out_checkpoint": str(base / "model.nest"), **keys,
    }))
    return config_path


def _with_out(argv, out) -> list:
    """``argv``, which ends in ``--out PATH``, with ``out`` as that path."""
    return [*argv[:-1], out]


def _calibrate_at_estimates(base):
    csv_path = base / "e.csv"
    csv_path.write_text("image_id,K,sigma,mu_c,sigma_r\na,0.5,1.0,0.0,0.5\n")
    return ["calibrate", "--estimates", csv_path, "--out", csv_path], "--out", "--estimates"


def _calibrate_at_a_hard_link(base):
    argv, *_ = _calibrate_at_estimates(base)
    os.link(base / "e.csv", base / "link.csv")
    return _with_out(argv, base / "link.csv"), "--out", "--estimates"


def _sample_params_at_camera(base):
    camera = _camera_file(base / "cam.json")
    argv = ["sample-params", "--camera", camera, "--count", 2, "--seed", 1, "--out", camera]
    return argv, "--out", "--camera"


def _sample_params_provenance_at_camera(base):
    camera = _camera_file(base / "x.provenance.json")
    argv = ["sample-params", "--camera", camera, "--count", 2, "--seed", 1, "--out", base / "x"]
    return argv, "--out provenance", "--camera"


def _synthesize_manifest_at_params(base):
    (base / "p.json").write_text(PARAMS_JSON)
    argv = _synthesize_inputs(base)
    argv[argv.index("--params") + 1] = base / "p.json"
    return _with_out(argv, base / "p.nraw"), "--out manifest", "--params"


def _synthesize_at_clean(base):
    return _with_out(_synthesize_inputs(base), base / "clean.nraw"), "--out", "--clean"


def _estimate_at_input(base):
    return _with_out(_estimate_inputs(base), base / "patch.nraw"), "--out", "--input"


def _estimate_at_checkpoint(base):
    return _with_out(_estimate_inputs(base), base / "model.nest"), "--out", "--checkpoint"


def _oracle_estimate_in_dark(base):
    return _with_out(_oracle_inputs(base), base / "darks/noisy_0001.nraw"), "--out", "--dark"


def _train_checkpoint_at_config(base):
    config_path = _train_config(base, out_checkpoint=str(base / "train.json"))
    return ["train", "--config", config_path], "out_checkpoint", "--config"


def _train_log_at_camera(base):
    config_path = _train_config(base, out_log=str(base / "camera.json"))
    return ["train", "--config", config_path], "out_log", "cameras[0]"


def _train_checkpoint_at_a_directory(base):
    config_path = _train_config(base, out_checkpoint=str(_mkdir(base / "sub")))
    return ["train", "--config", config_path], "out_checkpoint", base / "sub"


def _out_at_a_directory(build):
    """``build``'s case with its ``--out`` at the new directory ``base/sub``."""
    return lambda base: (_with_out(build(base)[0], _mkdir(base / "sub")), "--out", base / "sub")


# Each case: (command, build); build(base) writes the inputs under base and
# returns (argv, the output's flag or key, the input's flag or key or the
# directory that the output names).
CLASH_CASES = {
    "calibrate_out_at_estimates": ("calibrate", _calibrate_at_estimates),
    "calibrate_out_at_a_hard_link": ("calibrate", _calibrate_at_a_hard_link),
    "sample_params_out_at_camera": ("sample-params", _sample_params_at_camera),
    "sample_params_provenance_at_camera": ("sample-params", _sample_params_provenance_at_camera),
    "synthesize_manifest_at_params": ("synthesize", _synthesize_manifest_at_params),
    "synthesize_out_at_clean": ("synthesize", _synthesize_at_clean),
    "estimate_out_at_input": ("estimate", _estimate_at_input),
    "estimate_out_at_checkpoint": ("estimate", _estimate_at_checkpoint),
    "estimate_out_in_dark_dir": ("estimate", _oracle_estimate_in_dark),
    "train_checkpoint_at_config": ("train", _train_checkpoint_at_config),
    "train_log_at_camera": ("train", _train_log_at_camera),
    "synthesize_out_at_a_directory": ("synthesize", _out_at_a_directory(_synthesize_at_clean)),
    "calibrate_out_at_a_directory": ("calibrate", _out_at_a_directory(_calibrate_at_estimates)),
    "estimate_out_at_a_directory": ("estimate", _out_at_a_directory(_estimate_at_input)),
    "sample_params_out_at_a_directory": (
        "sample-params", _out_at_a_directory(_sample_params_at_camera)),
    "train_checkpoint_at_a_directory": ("train", _train_checkpoint_at_a_directory),
}


@pytest.mark.parametrize("case", sorted(CLASH_CASES))
def test_output_that_would_replace_an_input_is_refused(tmp_path, capsys, monkeypatch, case):
    """Exit 2 with one CONFIG line naming both paths' flags or keys, before
    anything is read: every file is left as it was and nothing is created."""
    command, build = CLASH_CASES[case]
    argv, out_name, in_name = build(tmp_path)
    assert argv[0] == command
    monkeypatch.setattr(cli, "train_estimator", lambda *a: pytest.fail("training ran"))
    before = _tree(tmp_path)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"CONFIG: {out_name} ") and err.endswith(f" at {in_name}\n")
    assert err.count("\n") == 1
    assert _tree(tmp_path) == before


def test_out_at_the_working_directory_is_refused(tmp_path, capsys, monkeypatch):
    """``--out .`` names no file to write: refused before the clean patch is read."""
    argv = _with_out(_synthesize_inputs(tmp_path), ".")
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    assert run(*argv) == 2
    assert capsys.readouterr().err == "CONFIG: --out . would replace the directory at .\n"
    assert _tree(tmp_path) == before


def test_every_writing_command_has_a_clash_case():
    """Each command with an --out, and train, has a case above, so none skips
    the output rule.  gen-dataset is exempt: it claims a new --out with one
    mkdir, so no input can lie under it."""
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    writers = {
        name for name, parser in subcommands.items()
        if any(action.type is cli._out_path for action in parser._actions)
    }
    assert "gen-dataset" in writers and "eval-kl" not in writers
    covered = {command for command, _ in CLASH_CASES.values()}
    assert {*writers, "train"} - {"gen-dataset"} <= covered


class TestOutOfMemory:
    """A size whose arrays cannot be allocated gives a coded exit 2.

    The sizes ask for petabytes, beyond any address space, so numpy refuses
    them at once and nothing is ever allocated.
    """

    def test_eval_kl_bins(self, tmp_path, capsys):
        path = tmp_path / "samples.nraw"
        write_tensor(path, np.random.default_rng(6).normal(size=(4, 8, 8)))
        assert run("eval-kl", "--real", path, "--synth", path, "--bins", 10**15) == 2
        assert capsys.readouterr().err.startswith("OUT_OF_MEMORY: ")

    def test_gen_dataset_frame_size(self, tmp_path, capsys):
        out = tmp_path / "set"
        assert run("gen-dataset", "--out", out, "--seed", 1, "--mode", "dark", "--count", 1,
                   "--params", PARAMS_JSON, "--height", 10**7, "--width", 10**7) == 2
        assert capsys.readouterr().err.startswith("OUT_OF_MEMORY: ")
        assert not out.exists()


class TestTrainCommand:
    def test_train_writes_checkpoint_and_log(self, tmp_path):
        camera = tmp_path / "camera.json"
        camera.write_text(
            json.dumps(
                {
                    "a": 0.7, "b": 0.3, "a_r": 0.5, "b_r": -0.2,
                    "sigma_hat": 0.2, "sigma_r_hat": 0.2,
                    "K_min": 0.3, "K_max": 4.0, "mu_c_model": 0.1,
                }
            )
        )
        config = {
            "extractor": [{"kernel": 3, "stride": 2, "width": 4, "nonlinearity": "relu"}],
            "feature_dim": 8,
            "projector": [6, 4],
            "head": [6, 4],
            "patch_height": 8,
            "patch_width": 8,
            "batch_size": 4,
            "epochs_per_stage": 1,
            "train_triplets": 8,
            "seed": 21,
            "cameras": [str(camera)],
            "scene_pool_size": 4,
            "out_checkpoint": str(tmp_path / "model.nest"),
            "out_log": str(tmp_path / "losses.csv"),
        }
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(config))
        assert run("train", "--config", config_path) == 0

        checkpoint = EstimatorCheckpoint.load(tmp_path / "model.nest")
        assert checkpoint.metadata["epochs_completed"] == 2
        log_lines = (tmp_path / "losses.csv").read_text().splitlines()
        assert log_lines[0] == "stage,epoch,contrastive,regression,total"
        assert len(log_lines) == 3

        # Re-running the identical config reproduces the checkpoint bytes.
        first = (tmp_path / "model.nest").read_bytes()
        assert run("train", "--config", config_path) == 0
        assert (tmp_path / "model.nest").read_bytes() == first

    def test_log_at_the_checkpoint_path_is_refused_before_training(self, tmp_path, capsys):
        """The loss CSV would replace the checkpoint, so nothing is trained or written."""
        camera = tmp_path / "camera.json"
        camera.write_text(json.dumps(synthetic.default_camera_bank()[0].as_dict()))
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "extractor": [{"kernel": 3, "stride": 2, "width": 4}], "feature_dim": 8,
            "projector": [6, 4], "head": [6, 4], "patch_height": 8, "patch_width": 8,
            "batch_size": 4, "epochs_per_stage": 1, "train_triplets": 8,
            "cameras": [str(camera)], "scene_pool_size": 4,
            "out_checkpoint": str(tmp_path / "t.nest"),
            "out_log": f"{tmp_path}/./t.nest",
        }))
        before = set(tmp_path.rglob("*"))
        assert run("train", "--config", config_path) == 2
        assert capsys.readouterr().err.startswith(f"CONFIG: out_log {tmp_path}/./t.nest ")
        assert set(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("key", ["out_checkpoint", "out_log"])
    def test_empty_output_path_is_refused_before_training(
        self, tmp_path, capsys, monkeypatch, key
    ):
        """As an empty --out is a USAGE error, an empty output key is a CONFIG one."""
        config_path = _train_config(tmp_path, **{key: ""})
        monkeypatch.setattr(cli, "train_estimator", lambda *a: pytest.fail("training ran"))
        before = _tree(tmp_path)
        assert run("train", "--config", config_path) == 2
        assert capsys.readouterr().err == (
            "CONFIG: out_checkpoint and out_log must be non-empty paths\n"
        )
        assert _tree(tmp_path) == before

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({"cameras": ["x.json"], "out_checkpoint": "m", "bogus": 1}))
        assert run("train", "--config", config_path) == 2
        assert capsys.readouterr().err.startswith("CONFIG:")

    def test_single_triplet_rejected_before_writing(self, tmp_path, capsys):
        """One triplet makes every batch contrast-free; that is a CONFIG error, not a no-op run."""
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "patch_height": 8, "patch_width": 8, "train_triplets": 1,
            "cameras": ["x.json"], "out_checkpoint": str(tmp_path / "model.nest"),
        }))
        assert run("train", "--config", config_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG:") and "train_triplets" in err
        assert not (tmp_path / "model.nest").exists()


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
        with pytest.raises(SystemExit) as exc:
            run("eval-kl", "--real", path, "--synth", path, "--bins", "many")
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("USAGE: ")
        assert run("eval-kl", "--real", path, "--synth", path, "--bins", 32) == 0
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

        def tree(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        shared = []
        for argv in commands(tmp_path / "shared"):
            assert run(*argv) == 0
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
