"""Atomic file writes: no command ever leaves partial output behind.

Each file is written to a temp file beside it and renamed over the target,
so a reader sees the old bytes or the new ones, never a mix.  A write
replaces an existing file; ``gen-dataset`` keeps earlier trees by claiming
a new output directory before it writes.  A new file gets the permission
bits that ``open`` gives it under the process umask (0o666 less the
umask); a replaced file keeps its own.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import stat
from pathlib import Path


def _create_temp(directory: Path, name: str) -> tuple[int, Path]:
    """Open a new, empty ``.<name>.<random>.tmp`` file in ``directory`` for writing."""
    while True:
        tmp = directory / f".{name}.{secrets.token_hex(4)}.tmp"
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write_bytes(path: Path, *chunks) -> None:
    """Write the bytes-like ``chunks``, in order, to a temp file in the target directory, then rename over."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = _create_temp(path.parent, path.name)
    try:
        with os.fdopen(fd, "wb") as handle:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(handle.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
