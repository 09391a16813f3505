"""Independent units of work on every CPU, with the result of a serial loop.

Each unit draws on a random stream of its own (see ``streams``) and writes
only its own outputs, so the order in which threads run the units changes
no byte of the result.  numpy releases the interpreter lock inside its
samplers and array loops, and every such call drops and retakes it, so
each small numpy call around the samplers costs two to three times its
one-thread time when two threads issue them at once.  On a shared 2-vCPU
Xeon host with one BLAS thread, the samplers alone of the 256-triplet
toy draw (32x32 patches) took 189 ms on one CPU and 113 ms on two, but
the whole draw took a median 261 ms and 240 ms (1.09x) when the package
made 74 numpy calls per triplet around them, and 242 ms and 215 ms
(1.13x) at 49 calls (6 alternating process pairs of 10 draws at each CPU
count).

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
