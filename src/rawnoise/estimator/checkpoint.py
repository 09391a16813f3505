"""Binary checkpoint format for the estimator ("NEST").

Layout, all integers little-endian unsigned 32-bit:

    magic "NEST" | format version | json length | json blob (UTF-8)
    then per tensor, in sorted name order:
    name length | name (UTF-8) | rank | dims... | values (float64 LE, row-major)

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

import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import BadCheckpointError
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
        out = io.BytesIO()
        out.write(MAGIC)
        out.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        out.write(blob)
        for name in sorted(self.params):
            tensor = np.ascontiguousarray(self.params[name], dtype=np.float64)
            encoded = name.encode("utf-8")
            out.write(struct.pack("<I", len(encoded)))
            out.write(encoded)
            out.write(struct.pack("<I", tensor.ndim))
            out.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            out.write(tensor.astype("<f8").tobytes())
        return out.getvalue()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EstimatorCheckpoint":
        view = memoryview(raw)
        if len(view) < 12 or bytes(view[:4]) != MAGIC:
            raise BadCheckpointError("not a NEST checkpoint (bad magic)")
        version, blob_len = struct.unpack("<II", view[4:12])
        if version != FORMAT_VERSION:
            raise BadCheckpointError(f"unsupported checkpoint format version {version}")
        offset = 12
        if offset + blob_len > len(view):
            raise BadCheckpointError("truncated checkpoint header")
        try:
            blob = json.loads(bytes(view[offset : offset + blob_len]).decode("utf-8"))
            if not isinstance(blob, dict):
                raise ValueError("the header is not a JSON object")
            config = EstimatorConfig.from_dict(blob["config"])
            metadata = blob.get("metadata", {})
        except (ValueError, KeyError) as exc:
            raise BadCheckpointError(f"invalid checkpoint header JSON: {exc}") from exc
        offset += blob_len

        params: dict[str, np.ndarray] = {}
        while offset < len(view):
            try:
                (name_len,) = struct.unpack("<I", view[offset : offset + 4])
                offset += 4
                name = bytes(view[offset : offset + name_len]).decode("utf-8")
                offset += name_len
                (rank,) = struct.unpack("<I", view[offset : offset + 4])
                offset += 4
                dims = struct.unpack(f"<{rank}I", view[offset : offset + 4 * rank])
                offset += 4 * rank
            except (struct.error, UnicodeDecodeError) as exc:
                raise BadCheckpointError(f"corrupt checkpoint tensor table: {exc}") from exc
            if name in params:
                raise BadCheckpointError(f"duplicate checkpoint tensor {name}")
            count = int(np.prod(dims)) if rank else 1
            if offset + 8 * count > len(view):
                raise BadCheckpointError(f"truncated tensor payload for {name}")
            tensor = np.frombuffer(view[offset : offset + 8 * count], dtype="<f8")
            offset += 8 * count
            params[name] = tensor.reshape(dims).astype(np.float64)
        return cls(config=config, params=params, metadata=metadata)

    def save(self, path) -> None:
        from ..io.atomic import atomic_write_bytes

        atomic_write_bytes(Path(path), self.to_bytes())

    @classmethod
    def load(cls, path) -> "EstimatorCheckpoint":
        path = Path(path)
        return cls.from_bytes(path.read_bytes())
