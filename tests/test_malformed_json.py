"""Malformed JSON inputs give a coded exit 2 and leave no output behind.

The probe rows live in the refusal table (see ``refusals``); the fuzz test
mutates valid camera, noise-parameter, training-config and NEST-header JSON
with a seeded generator and requires exit 0 or a clean coded refusal,
never INTERNAL.
"""

import json
import random

import pytest
from cli_harness import CAMERA, NET, PARAMS
from refusals import dump, nest_header, record_inputs, refusal_test, run, train_json


test_malformed_record_is_coded_exit_2 = refusal_test
test_bad_flag_is_coded_exit_2_before_writing = refusal_test


# ----------------------------------------------------------------------
# fuzz

VALID = {
    "camera": dump(CAMERA),
    "params": dump(PARAMS),
    "train": train_json(),
    "nest": nest_header(NET),
}
SWAPS = ("null", "str", "list", "bool", "float", "negative")
MUTATIONS_PER_KIND = 100
# Dropping these keys falls back to the full-size defaults (200 epochs per
# stage, 2000 triplets), which is valid but too slow for a unit test.
SLOW_TO_DROP = {("epochs_per_stage",), ("train_triplets",)}


def _paths(node, prefix=()):
    """Every key/index path into a parsed JSON value."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _swap(value, how: str):
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    negative = -value if number and value else -1
    swaps = {"null": None, "str": str(value), "list": [value], "bool": True, "float": 0.5,
             "negative": negative}
    return swaps[how]


def _mutate(text: bytes, rng: random.Random) -> tuple[str, bytes]:
    how = rng.choice(("drop", *SWAPS, "truncate", "flip"))
    if how == "truncate":
        return how, text[: rng.randrange(len(text))]
    if how == "flip":
        at = rng.randrange(len(text))
        return how, text[:at] + bytes([text[at] ^ (1 << rng.randrange(8))]) + text[at + 1 :]
    record = json.loads(text)
    path = rng.choice([p for p in _paths(record) if how != "drop" or p not in SLOW_TO_DROP])
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _swap(parent[path[-1]], how)
    return f"{how} {path}", json.dumps(record).encode()


@pytest.mark.parametrize("kind", sorted(VALID))
def test_fuzzed_json_never_internal(tmp_path, kind):
    rng = random.Random(f"rawnoise-fuzz-{kind}")
    for i in range(MUTATIONS_PER_KIND):
        how, payload = _mutate(VALID[kind], rng)
        base = tmp_path / f"case{i}"
        base.mkdir()
        run(record_inputs(kind, base, payload), base, note=(how, payload))
