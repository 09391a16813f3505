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

Training is the second caller: ``run_ahead`` prepares the next batch's
input on one helper thread while the calling thread trains on the current
one.  Both take their thread count from ``cpu_count`` alone.
"""

from __future__ import annotations

import itertools
import os
import queue
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


def run_ahead(jobs):
    """Yield ``job()`` for every job of ``jobs``, in order, one job ahead of the caller.

    With more than one CPU, one helper thread runs job ``i + 1`` while the
    caller uses the result of job ``i``; with one, each job runs on this
    thread when its result is asked for.  Jobs are taken from ``jobs`` on the
    calling thread, and the helper runs them one at a time in order, so job
    ``i + 2`` may reuse what job ``i`` returned.  A job's error is raised
    where its result would be yielded.  Closing the generator, as
    ``contextlib.closing`` does when the caller returns or raises, waits for
    the running job and joins the helper.
    """
    jobs = iter(jobs)
    if cpu_count() < 2:
        for job in jobs:
            yield job()
        return
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        while (job := todo.get()) is not None:
            try:
                done.put((job(), None))
            except BaseException as exc:
                done.put((None, exc))

    job = next(jobs, None)
    if job is None:
        return
    helper = threading.Thread(target=serve)
    helper.start()
    try:
        todo.put(job)
        while job is not None:
            result, error = done.get()
            if error is not None:
                raise error
            job = next(jobs, None)
            if job is not None:
                todo.put(job)
            yield result
    finally:
        todo.put(None)
        helper.join()
