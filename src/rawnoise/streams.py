"""Deterministic random-stream derivation.

All stochastic operations take an explicit ``numpy.random.Generator``.  When
many patches are produced under one master seed, each patch gets its own
stream derived from ``(master_seed, patch_index)`` so that serial and
parallel generation agree bit-for-bit regardless of worker count or
evaluation order.

Derivation rule (stable across releases): stream ``i`` is
``PCG64(SeedSequence(master_seed, spawn_key=(i,)))``.  A set of units
drawn from one stream takes one child per unit: triplet ``i`` of a
training set draws on child ``i`` of the data stream,
``PCG64(SeedSequence(seed, spawn_key=(DATA_STREAM, i)))``, so training-set
bytes do not depend on the thread count either.

The streams of a training seed are the table below; index 3 is unused.
"""

from __future__ import annotations

import numpy as np

INIT_STREAM = 0  # network weight initialisation
DATA_STREAM = 1  # the training set, one child per triplet
SHUFFLE_STREAM = 2  # the per-epoch batch order
SCENE_STREAM = 4  # the scene pool of ``train``


def derive_stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for patch ``index`` under ``master_seed``.

    Streams for distinct indices are statistically independent, and the
    mapping is pure: the same (seed, index) pair always yields a generator
    producing the identical draw sequence.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))
