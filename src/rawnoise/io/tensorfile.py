"""Binary tensor records and tensor files ("NRAW").

A tensor record, all integers little-endian unsigned 32-bit:

    rank | dims... | payload (row-major, in the caller's dtype)

An NRAW file is one record behind a fixed header, with nothing after it:

    magic "NRAW" | format version | dtype code | record

The only dtype code is 1 (32-bit float, little-endian).  Storage is 32-bit
for economy while all computation stays in 64-bit: readers upcast on load,
and since every float32 is exactly representable as float64 the
write/read/write round trip is bit-exact.  Every stored value is finite:
writers refuse a tensor that is not finite as float32, and readers refuse a
payload that holds NaN or an infinity.  NEST checkpoints store their tensors
as named float64 records (``estimator.checkpoint``).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import BadTensorFileError, DomainError, FileFormatError
from .atomic import atomic_write_bytes

MAGIC = b"NRAW"
FORMAT_VERSION = 1
DTYPE_F32 = 1


def _record_head(array: np.ndarray) -> bytes:
    return struct.pack(f"<{array.ndim + 1}I", array.ndim, *array.shape)


def pack_tensor(array: np.ndarray, dtype: str) -> bytes:
    """Encode ``array`` as one tensor record with a ``dtype`` payload."""
    array = np.ascontiguousarray(array, dtype=dtype)
    return _record_head(array) + array.tobytes()


def unpack_tensor(
    raw: bytes, offset: int, dtype: str, error: type[FileFormatError]
) -> tuple[np.ndarray, int]:
    """Decode the record at ``raw[offset:]`` as a read-only ``dtype`` view of ``raw``.

    Returns the view and the offset after it; a truncated record, or dims
    the payload cannot be reshaped to, raise ``error``.
    """
    try:
        (rank,) = struct.unpack_from("<I", raw, offset)
        dims = struct.unpack_from(f"<{rank}I", raw, offset + 4)
    except struct.error as exc:
        raise error(f"truncated tensor record: {exc}") from exc
    start = offset + 4 + 4 * rank
    count = math.prod(dims)
    end = start + np.dtype(dtype).itemsize * count
    if end > len(raw):
        raise error(f"truncated tensor payload: dims {dims} need {end - start} bytes, "
                    f"{len(raw) - start} remain")
    try:
        tensor = np.frombuffer(raw, dtype=dtype, count=count, offset=start).reshape(dims)
    except ValueError as exc:
        raise error(f"tensor dims {dims} cannot be read: {exc}") from exc
    return tensor, end


def _nraw_chunks(array: np.ndarray) -> tuple[bytes, np.ndarray]:
    """An NRAW file as its header and its float32 payload array.

    DomainError if a value is not a finite float32.
    """
    with np.errstate(over="ignore"):  # an overflowing cast is refused just below
        payload = np.ascontiguousarray(array, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise DomainError("tensor holds a value that is not finite as float32; NRAW cannot hold it")
    return MAGIC + struct.pack("<II", FORMAT_VERSION, DTYPE_F32) + _record_head(payload), payload


def tensor_to_bytes(array: np.ndarray) -> bytes:
    """Encode ``array`` as an NRAW file; DomainError if a value is not a finite float32."""
    return b"".join(_nraw_chunks(array))


def tensor_from_bytes(raw: bytes) -> np.ndarray:
    """Decode an NRAW file as float64; DomainError if a value is not finite."""
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise BadTensorFileError("not an NRAW tensor file (bad magic)")
    version, dtype_code = struct.unpack_from("<II", raw, 4)
    if version != FORMAT_VERSION:
        raise BadTensorFileError(f"unsupported tensor format version {version}")
    if dtype_code != DTYPE_F32:
        raise BadTensorFileError(f"unsupported dtype code {dtype_code}")
    tensor, end = unpack_tensor(raw, 12, "<f4", BadTensorFileError)
    if end != len(raw):
        raise BadTensorFileError(f"{len(raw) - end} trailing bytes after the tensor payload")
    if not np.isfinite(tensor).all():
        raise DomainError("NRAW payload holds a value that is not finite")
    return tensor.astype(np.float64)


def write_tensor(path, array: np.ndarray, exclusive: bool = False) -> None:
    """Write ``array`` as an NRAW file, straight from its float32 payload."""
    atomic_write_bytes(Path(path), *_nraw_chunks(array), exclusive=exclusive)


def read_tensor(path) -> np.ndarray:
    """The NRAW file at ``path`` as float64; DomainError naming it if a value is not finite."""
    try:
        return tensor_from_bytes(Path(path).read_bytes())
    except DomainError:
        raise DomainError(f"{path} holds a value that is not finite") from None
