"""JSON files: one parser and one byte-stable format for every JSON the toolkit reads or writes."""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import RawNoiseError
from .atomic import atomic_write_bytes


def load_json(source: str | Path, error: type[RawNoiseError], what: str):
    """Parse inline JSON text, or the UTF-8 file when ``source`` is a Path."""
    try:
        return json.loads(source.read_text("utf-8") if isinstance(source, Path) else source)
    except ValueError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def json_text(record: dict) -> str:
    """``record`` with sorted keys, two-space indent and a final newline."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def save_json(path, record: dict) -> None:
    """Write ``json_text(record)`` atomically."""
    atomic_write_bytes(Path(path), json_text(record).encode("utf-8"))
