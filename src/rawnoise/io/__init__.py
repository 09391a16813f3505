"""File formats: NRAW tensors, JSON files and manifests, atomic writes."""

from .atomic import atomic_write_bytes, atomic_write_text
from .jsonfile import json_text, load_json, save_json
from .manifest import MANIFEST_VERSION, Manifest
from .tensorfile import read_tensor, tensor_from_bytes, tensor_to_bytes, write_tensor

__all__ = [
    "MANIFEST_VERSION",
    "Manifest",
    "atomic_write_bytes",
    "atomic_write_text",
    "json_text",
    "load_json",
    "read_tensor",
    "save_json",
    "tensor_from_bytes",
    "tensor_to_bytes",
    "write_tensor",
]
