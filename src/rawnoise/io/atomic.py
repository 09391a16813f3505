"""Atomic file writes: no command ever leaves partial output behind.

A new file gets the permission bits that ``open`` gives it under the
process umask (0o666 less the umask); a replaced file keeps its own.
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


def atomic_write_bytes(path: Path, *chunks, exclusive: bool = False) -> None:
    """Write the bytes-like ``chunks``, in order, to a temp file in the target directory, then rename over.

    With ``exclusive`` the temp file is hard-linked into place instead, so
    an existing ``path`` is never replaced: FileExistsError is raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = _create_temp(path.parent, path.name)
    try:
        with os.fdopen(fd, "wb") as handle:
            if not exclusive:
                with contextlib.suppress(FileNotFoundError):
                    os.fchmod(handle.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            for chunk in chunks:
                handle.write(chunk)
        if exclusive:
            try:
                os.link(tmp, path)
            except FileExistsError as exc:  # name the target, not the temp file
                raise FileExistsError(exc.errno, exc.strerror, str(path)) from None
            os.unlink(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
