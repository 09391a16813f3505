"""Malformed NRAW, NEST, estimates-CSV and frame-set inputs give a coded exit 2.

The probe rows (a directory where a file is expected, non-finite samples
and noise parameters that no NRAW file or sampler can hold, missing frame
sets and flags among them) live in the refusal table (see ``refusals``).
The fuzz tests truncate a tiny NEST checkpoint and a small NRAW tensor at
every length, XOR every byte with four masks, and splice tensor records;
every load must succeed or raise the format's own error (``BAD_CHECKPOINT``
or ``BAD_TENSOR_FILE``), and a sample of them run through the CLI must exit
0 or refuse cleanly.
"""

import math
import struct
from dataclasses import replace

import pytest
from cli_harness import TINY, TINY_NEST, estimate_inputs, nest_bytes
from refusals import NRAW, eval_kl_of, refusal_test, run

from rawnoise.errors import BadCheckpointError, BadTensorFileError
from rawnoise.estimator import ConvStage, EstimatorCheckpoint
from rawnoise.io import tensor_from_bytes

MASKS = (0x01, 0x10, 0x80, 0xFF)


def _table(raw: bytes) -> tuple[bytes, list[bytes]]:
    """Split a valid NEST file into its header and its tensor-table entries."""
    (blob_len,) = struct.unpack_from("<I", raw, 8)
    offset = 12 + blob_len
    header, entries = raw[:offset], []
    while offset < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        (rank,) = struct.unpack_from("<I", raw, offset + 4 + name_len)
        dims = struct.unpack_from(f"<{rank}I", raw, offset + 8 + name_len)
        end = offset + 8 + name_len + 4 * rank + 8 * math.prod(dims)
        entries.append(raw[offset:end])
        offset = end
    return header, entries


def _mutations(raw: bytes):
    """Every truncation, then every byte XORed with each mask."""
    for end in range(len(raw)):
        yield f"truncate to {end}", raw[:end]
    for at in range(len(raw)):
        for mask in MASKS:
            flipped = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]
            yield f"xor byte {at} with {mask:#04x}", flipped


test_malformed_input_is_coded_exit_2 = refusal_test


# ----------------------------------------------------------------------
# fuzz

LOADS = {
    "nest": (TINY_NEST, EstimatorCheckpoint.from_bytes, BadCheckpointError),
    "nraw": (NRAW, tensor_from_bytes, BadTensorFileError),
}


@pytest.mark.parametrize("kind", sorted(LOADS))
def test_every_mutation_loads_or_raises_its_format_error(kind):
    raw, load, error = LOADS[kind]
    escapes = []
    for how, payload in _mutations(raw):
        try:
            load(payload)
        except error:
            pass
        except Exception as exc:  # noqa: BLE001 - every escape is collected and reported
            escapes.append((how, repr(exc)))
    assert escapes == []


def test_spliced_records_are_refused():
    header, entries = _table(TINY_NEST)
    assert header + b"".join(entries) == TINY_NEST
    two_stages = replace(TINY, extractor=(ConvStage(3, 2, 3), ConvStage(3, 2, 2)))
    _, deeper = _table(nest_bytes(two_stages))
    _, reseeded = _table(nest_bytes(replace(TINY, seed=1)))
    for entry in [*deeper, *reseeded]:
        with pytest.raises(BadCheckpointError):
            EstimatorCheckpoint.from_bytes(TINY_NEST + entry)
    for entry in entries:
        with pytest.raises(BadCheckpointError, match="duplicate"):
            EstimatorCheckpoint.from_bytes(TINY_NEST.replace(entry, entry * 2, 1))
    with pytest.raises(BadTensorFileError, match="trailing"):
        tensor_from_bytes(NRAW + NRAW)


CLI_SAMPLE = 7  # mutations of each file run through the CLI, evenly spaced


@pytest.mark.parametrize("kind", sorted(LOADS))
def test_sampled_mutations_never_internal(tmp_path, kind):
    mutations = list(_mutations(LOADS[kind][0]))
    for i, (how, payload) in enumerate(mutations[:: len(mutations) // CLI_SAMPLE]):
        base = tmp_path / f"case{i}"
        base.mkdir()
        argv = estimate_inputs(base, payload) if kind == "nest" else eval_kl_of(real=payload)(base)
        run(argv, base, note=how)
