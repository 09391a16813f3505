"""JSON sidecar manifests for tensor files.

A manifest records where a tensor came from: camera id, optional ISO,
the ground-truth parameter tuple when the data is synthetic, and seed
provenance (master seed plus the per-patch stream index).  Parsing is
strict -- unknown top-level fields are rejected -- except for the
versioned escape hatch: forward-compatible additions may ride inside an
``"extensions"`` object, which v1 readers ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BadManifestError
from ..noise_core import NoiseParams
from ..records import Record
from .jsonfile import load_json, save_json

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class Manifest(Record, error=BadManifestError):
    camera_id: str
    iso: float | None = None
    params: NoiseParams | None = None
    seed: int | None = None
    stream_index: int | None = None
    extensions: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"version": MANIFEST_VERSION, **super().as_dict()}

    @classmethod
    def from_dict(cls, record) -> "Manifest":
        if not isinstance(record, dict):
            raise BadManifestError("manifest must be a JSON object")
        version = record.get("version")
        if type(version) is not int or version != MANIFEST_VERSION:
            raise BadManifestError(
                f"unsupported manifest version {version!r} (expected {MANIFEST_VERSION})"
            )
        return super().from_dict({k: v for k, v in record.items() if k != "version"})

    def save(self, path) -> None:
        save_json(path, self.as_dict())

    @classmethod
    def load(cls, path) -> "Manifest":
        return cls.from_dict(load_json(Path(path), BadManifestError, "manifest"))
