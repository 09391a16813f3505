"""Deterministic random-stream derivation.

All stochastic operations take an explicit ``numpy.random.Generator``.  When
many patches are produced under one master seed, each patch gets its own
stream derived from ``(master_seed, patch_index)`` so that serial and
parallel generation agree bit-for-bit regardless of worker count or
evaluation order.

Derivation rule (stable across releases): stream ``i`` is
``PCG64(SeedSequence(master_seed, spawn_key=(i,)))``.
"""

from __future__ import annotations

import numpy as np


def derive_stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for patch ``index`` under ``master_seed``.

    Streams for distinct indices are statistically independent, and the
    mapping is pure: the same (seed, index) pair always yields a generator
    producing the identical draw sequence.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))
