"""The CLI's artifacts do not depend on the number of BLAS threads.

Criterion 11's command sequence runs in two child processes, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``=2``, each set in that child's
environment only.  A forced ``OPENBLAS_CORETYPE`` picks other kernels, so it
counts as another BLAS and is not checked here.
"""

import os
import subprocess
import sys
from pathlib import Path

import cli_sequence

import rawnoise


def _run_in_child(base: Path, threads: int) -> dict[str, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(rawnoise.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, cli_sequence.__file__, str(base)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return {rel: (base / rel).read_bytes() for rel in cli_sequence.ARTIFACTS}


def test_artifacts_match_at_one_and_two_blas_threads(tmp_path):
    one = _run_in_child(tmp_path / "one", 1)
    two = _run_in_child(tmp_path / "two", 2)
    assert [rel for rel in cli_sequence.ARTIFACTS if one[rel] != two[rel]] == []
