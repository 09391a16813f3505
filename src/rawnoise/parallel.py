"""Independent units of work on every CPU, with the result of a serial loop.

Each unit draws on a random stream of its own (see ``streams``) and writes
only its own outputs, so the order in which threads run the units changes
no byte of the result.  numpy releases the interpreter lock inside its
samplers and array loops, but the units also spend time in Python that
holds it.  On a shared 2-vCPU Xeon host with one BLAS thread, two sets of
8 rounds ran the 256-triplet draw 0.98-2.17x and 1.09-1.72x faster on two
CPUs than on one (medians 1.55x and 1.57x), where a GEMM control through
the same runner (64 units of one 400x400 matmul) ran 1.86-2.29x and
1.60-2.24x (medians 2.10x and 1.90x); the host's speed drifts between
rounds, which is why single ratios pass 2x.
"""

from __future__ import annotations

import itertools
import os
import threading


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def run_units(count: int, unit) -> None:
    """Call ``unit(i)`` for every ``i < count`` on this thread and one helper per further CPU.

    Threads claim indices from one counter, in ascending order.  After the
    first failure no thread claims another index; once all have stopped, the
    error of the lowest failing index is raised, so a failure reads as it
    would in a serial loop.  Units must be independent of each other.
    """
    claims = itertools.count()
    failures = {}

    def work():
        while not failures:
            i = next(claims)
            if i >= count:
                return
            try:
                unit(i)
            except BaseException as exc:
                failures[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(min(cpu_count(), count) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
