"""Atomic file writes: no command ever leaves partial output behind."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: Path, payload: bytes, exclusive: bool = False) -> None:
    """Write to a temp file in the target directory, then rename over.

    With ``exclusive`` the temp file is hard-linked into place instead, so
    an existing ``path`` is never replaced: FileExistsError is raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        if exclusive:
            try:
                os.link(tmp_name, path)
            except FileExistsError as exc:  # name the target, not the temp file
                raise FileExistsError(exc.errno, exc.strerror, str(path)) from None
            os.unlink(tmp_name)
        else:
            os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
