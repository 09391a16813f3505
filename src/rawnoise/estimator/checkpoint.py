"""Binary checkpoint format for the estimator ("NEST").

Layout, all integers little-endian unsigned 32-bit:

    magic "NEST" | format version | json length | json blob (UTF-8)
    then per tensor, in sorted name order:
    name length | name (UTF-8) | tensor record (float64 LE payload)

The tensor record is the one NRAW files use (``io.tensorfile``).

The JSON blob holds the config echo under ``"config"`` and training
metadata (epochs completed, stage, final losses) under ``"metadata"``.
Serialization is canonical (sorted keys, fixed separators), so identical
checkpoints are identical byte-for-byte and a load/save round trip
reproduces the file exactly.

Version 2 marks weights trained behind the rebalanced Haar front end
(``network.BAND_GAIN``); a version-1 file was trained on different input
scaling and is refused rather than loaded into wrong estimates.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import BadCheckpointError
from ..io.atomic import atomic_write_bytes
from ..io.tensorfile import pack_tensor, unpack_tensor
from .config import EstimatorConfig
from .network import parameter_shapes

MAGIC = b"NEST"
FORMAT_VERSION = 2


@dataclass
class EstimatorCheckpoint:
    """Config echo, named parameter tensors, and training metadata."""

    config: EstimatorConfig
    params: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = parameter_shapes(self.config)
        if set(self.params) != set(expected):
            raise BadCheckpointError("checkpoint parameter names do not match its config")
        for name, shape in expected.items():
            if tuple(self.params[name].shape) != shape:
                raise BadCheckpointError(
                    f"checkpoint tensor {name} has shape {self.params[name].shape}, "
                    f"config requires {shape}"
                )

    def to_bytes(self) -> bytes:
        blob = json.dumps(
            {"config": self.config.as_dict(), "metadata": self.metadata},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(blob)), blob]
        for name in sorted(self.params):
            encoded = name.encode("utf-8")
            tensor = pack_tensor(self.params[name], "<f8")
            parts += [struct.pack("<I", len(encoded)), encoded, tensor]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EstimatorCheckpoint":
        if len(raw) < 12 or raw[:4] != MAGIC:
            raise BadCheckpointError("not a NEST checkpoint (bad magic)")
        version, blob_len = struct.unpack_from("<II", raw, 4)
        if version != FORMAT_VERSION:
            raise BadCheckpointError(f"unsupported checkpoint format version {version}")
        offset = 12
        if offset + blob_len > len(raw):
            raise BadCheckpointError("truncated checkpoint header")
        try:
            blob = json.loads(raw[offset : offset + blob_len].decode("utf-8"))
            if not isinstance(blob, dict):
                raise ValueError("the header is not a JSON object")
            config = EstimatorConfig.from_dict(blob["config"])
            metadata = blob.get("metadata", {})
            if not isinstance(metadata, dict):
                raise ValueError("metadata is not a JSON object")
        except (ValueError, KeyError) as exc:
            raise BadCheckpointError(f"invalid checkpoint header JSON: {exc}") from exc
        offset += blob_len

        params: dict[str, np.ndarray] = {}
        while offset < len(raw):
            try:
                (name_len,) = struct.unpack_from("<I", raw, offset)
                name = raw[offset + 4 : offset + 4 + name_len].decode("utf-8")
            except (struct.error, UnicodeDecodeError) as exc:
                raise BadCheckpointError(f"corrupt checkpoint tensor table: {exc}") from exc
            if name in params:
                raise BadCheckpointError(f"duplicate checkpoint tensor {name}")
            params[name], offset = unpack_tensor(raw, offset + 4 + name_len, "<f8",
                                                 BadCheckpointError)
        return cls(config=config, params=params, metadata=metadata)

    def save(self, path) -> None:
        atomic_write_bytes(Path(path), self.to_bytes())

    @classmethod
    def load(cls, path) -> "EstimatorCheckpoint":
        return cls.from_bytes(Path(path).read_bytes())
