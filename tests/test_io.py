"""Binary tensor format, JSON files and manifest schema round trips."""

import json
import math
import os
import stat
import warnings

import numpy as np
import pytest

from rawnoise.errors import BadManifestError, BadTensorFileError, DomainError
from rawnoise.io import (
    Manifest,
    atomic_write_bytes,
    atomic_write_text,
    load_json,
    read_tensor,
    save_json,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)
from rawnoise.noise_core import NoiseParams


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        array = rng.normal(0, 100, size=(4, 6, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.nraw"
        write_tensor(path, array)
        loaded = read_tensor(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, array)
        write_tensor(tmp_path / "t2.nraw", loaded)
        assert (tmp_path / "t2.nraw").read_bytes() == path.read_bytes()

    def test_header_layout(self):
        raw = tensor_to_bytes(np.zeros((2, 3)))
        assert raw[:4] == b"NRAW"
        assert len(raw) == 4 + 12 + 8 + 2 * 3 * 4

    def test_bad_magic(self):
        with pytest.raises(BadTensorFileError):
            tensor_from_bytes(b"JUNK" + b"\x00" * 32)

    def test_payload_length_mismatch(self):
        raw = tensor_to_bytes(np.zeros((2, 3)))
        with pytest.raises(BadTensorFileError):
            tensor_from_bytes(raw[:-4])

    def test_unsupported_dtype_code(self):
        raw = bytearray(tensor_to_bytes(np.zeros(3)))
        raw[8] = 7  # dtype code field
        with pytest.raises(BadTensorFileError):
            tensor_from_bytes(bytes(raw))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300], ids=["nan", "inf", "overflow"])
    def test_non_finite_float32_refused_before_writing(self, tmp_path, bad):
        """1e300 is finite as float64 but overflows the float32 cast, silently."""
        path = tmp_path / "t.nraw"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite as float32"):
                write_tensor(path, np.array([[0.0, bad]]))
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_payload_refused_on_reading(self, tmp_path, bad):
        """Writers refuse such a payload, so it is put in by hand; reading names the file."""
        raw = tensor_to_bytes(np.zeros((2, 3)))
        raw = raw[:-4] + np.array([bad], dtype="<f4").tobytes()
        with pytest.raises(DomainError, match="^NRAW payload holds a value that is not finite$"):
            tensor_from_bytes(raw)
        path = tmp_path / "t.nraw"
        path.write_bytes(raw)
        with pytest.raises(DomainError) as exc:
            read_tensor(path)
        assert str(exc.value) == f"{path} holds a value that is not finite"


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = Manifest(
            camera_id="camA",
            iso=800.0,
            params=NoiseParams(K=1.5, sigma=2.0, mu_c=-0.5, sigma_r=0.8),
            seed=42,
            stream_index=7,
        )
        path = tmp_path / "m.json"
        manifest.save(path)
        assert Manifest.load(path) == manifest

    def test_optional_fields_omitted(self, tmp_path):
        manifest = Manifest(camera_id="bare")
        path = tmp_path / "m.json"
        manifest.save(path)
        record = json.loads(path.read_text())
        assert set(record) == {"version", "camera_id"}

    def test_unknown_fields_rejected(self):
        with pytest.raises(BadManifestError):
            Manifest.from_dict({"version": 1, "camera_id": "x", "surprise": True})

    def test_extensions_escape_hatch(self):
        manifest = Manifest.from_dict(
            {"version": 1, "camera_id": "x", "extensions": {"vendor_tag": 9}}
        )
        assert manifest.extensions == {"vendor_tag": 9}

    def test_wrong_version_rejected(self):
        with pytest.raises(BadManifestError):
            Manifest.from_dict({"version": 2, "camera_id": "x"})

    def test_missing_camera_id_rejected(self):
        with pytest.raises(BadManifestError):
            Manifest.from_dict({"version": 1})

    def test_saved_with_the_json_file_codec(self, tmp_path):
        manifest = Manifest(camera_id="c", seed=3, params=NoiseParams(1.5, 2.0, -0.5, 0.8))
        manifest.save(tmp_path / "m.json")
        save_json(tmp_path / "r.json", manifest.as_dict())
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "r.json").read_bytes()
        assert load_json(tmp_path / "m.json", BadManifestError, "manifest") == manifest.as_dict()

    def test_invalid_json_names_what_was_read(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(BadManifestError, match="^manifest is not valid JSON"):
            Manifest.load(path)


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


class TestAtomicWrite:
    @pytest.fixture()
    def umask_022(self):
        previous = os.umask(0o022)
        try:
            yield
        finally:
            os.umask(previous)

    def test_new_files_honour_the_umask(self, tmp_path, umask_022):
        write_tensor(tmp_path / "t.nraw", np.zeros((4, 2, 2)))
        save_json(tmp_path / "new.json", {"a": 1}, exclusive=True)
        atomic_write_text(tmp_path / "rows.csv", "a,b\n")
        assert [_mode(tmp_path / name) for name in ("t.nraw", "new.json", "rows.csv")] == [
            0o644, 0o644, 0o644]

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o664, 0o755])
    def test_a_replaced_file_keeps_its_mode(self, tmp_path, umask_022, mode):
        path = tmp_path / "estimates.csv"
        path.write_text("old\n")
        path.chmod(mode)
        atomic_write_text(path, "new\n")
        assert path.read_text() == "new\n"
        assert _mode(path) == mode

    def test_chunks_written_in_order_and_no_temp_file_left(self, tmp_path):
        atomic_write_bytes(tmp_path / "f.bin", b"ab", memoryview(b"cd"), np.arange(2, dtype="<u1"))
        assert (tmp_path / "f.bin").read_bytes() == b"abcd\x00\x01"
        with pytest.raises(FileExistsError, match="f.bin"):
            atomic_write_bytes(tmp_path / "f.bin", b"x", exclusive=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin"]

    def test_write_tensor_writes_the_bytes_of_tensor_to_bytes(self, tmp_path):
        array = np.arange(60.0).reshape(4, 5, 3).transpose(0, 2, 1) / 7
        write_tensor(tmp_path / "t.nraw", array)
        assert (tmp_path / "t.nraw").read_bytes() == tensor_to_bytes(array)
