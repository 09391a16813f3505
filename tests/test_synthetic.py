"""Procedural clean scenes."""

import numpy as np
import pytest

from conftest import roll_scene
from rawnoise import synthetic
from rawnoise.streams import derive_stream


@pytest.mark.parametrize("kind", synthetic.SCENE_KINDS)
@pytest.mark.parametrize("size", [(1, 1), (1, 7), (2, 3), (33, 17), (64, 64)])
def test_scene_matches_the_roll_formula(kind, size):
    """The in-place blur and normalisation give the bits of the np.roll version."""
    height, width = size
    for index in range(3):
        rng, oracle_rng = derive_stream(8, index), derive_stream(8, index)
        scene = synthetic.make_scene(rng, height, width, 700.0, kind=kind)
        expected = roll_scene(oracle_rng, height, width, 700.0, kind)
        assert scene.shape == (4, height, width) and scene.dtype == np.float64
        assert scene.tobytes() == expected.tobytes()
        assert rng.random(4).tobytes() == oracle_rng.random(4).tobytes()
