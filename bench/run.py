"""Benchmark of the rawnoise pipeline: train, gen_dataset and estimate.

    python3 bench/run.py --workload train --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the last
stdout line is a JSON object carrying the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics
of a separate traced run.  Untraced times are scaled to the reference
host speed by a probe timed between steps.  The lines before the result
name every metric with its unit and sample count, give the raw wall-clock
figures, and record the machine.  A failed correctness check makes the
exit status 1.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import astuple
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train", "gen_dataset", "estimate")

# One BLAS thread: on the 2-core reference machine the training step ran
# about 10% slower with two.  The count is recorded with the results.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc settings of the measuring processes: every allocation comes
# from the heap, which is never trimmed, so after the warm-up step the
# steps reuse memory that is already mapped.  Otherwise each step mapped
# and faulted in fresh pages for the large arrays, and on the reference VM
# the cost of a page fault varied enough to move gen_dataset by 10%.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
    "MALLOC_TOP_PAD_": str(1 << 26),
}
# An untraced run measures in this many fresh processes, one after another,
# and pools their samples: timings shift from one process to the next, and
# each process also gives one set-up time.
WORKER_PROCESSES = 3
WORKER_TIMEOUT_S = 150
# Timings are reported at the reference host speed: raw time multiplied by
# PROBE_REFERENCE_S over the median probe time of the measuring process.
# The constant is the probe's median on the reference machine (2-vCPU
# Xeon VM, OpenBLAS 0.3.31, one thread) and only fixes the scale.
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.015


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one measuring process of an untraced run, and its index.
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median_ms(samples) -> float:
    return 1e3 * statistics.median(s.seconds for s in samples)


def _p90_ms(samples):
    """Nearest-rank p90, or None when fewer than ten samples lie beyond it."""
    ordered = sorted(s.seconds for s in samples)
    rank = math.ceil(0.9 * len(ordered))
    return 1e3 * ordered[rank - 1] if len(ordered) - rank >= 10 else None


def _machine() -> dict:
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name", "unknown"),
        "blas_threads": BLAS_THREADS,
    }


def _set_up(name: str, seed: int, workdir: Path, part: int = 0):
    """Import the package, build the inputs of one process and make the warm-up step.

    Returns (workload, warm-up samples, seconds); the seconds include the
    imports.
    """
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir, part)
    warm_up = workload.step()
    return workload, warm_up, time.perf_counter() - start


@contextlib.contextmanager
def _work_directory(name: str):
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()


def _run_steps(workload, seconds: float, after_step=None) -> list[list]:
    steps = []
    start = time.perf_counter()
    while not steps or time.perf_counter() - start < seconds:
        steps.append(workload.step())
        if after_step is not None:
            after_step()
    return steps


def _step_seconds(step) -> float:
    return sum(s.seconds for s in step)


class HostProbe:
    """Fixed numpy and interpreter work that no change to rawnoise can alter.

    Timed after every step, it measures how fast the shared host runs
    while the steps run.  Its median converts a process's timings to the
    reference host speed (see ``PROBE_REFERENCE_S``).
    """

    def __init__(self):
        import numpy

        self._numpy = numpy
        self._rng = numpy.random.default_rng(0)
        self._matrix = self._rng.standard_normal((256, 256))
        self._values = self._rng.standard_normal(200_000)
        self.times: list[float] = []

    def __call__(self) -> None:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            for _ in range(4):
                self._matrix @ self._matrix
            self._numpy.sort(self._values)
            self._rng.poisson(5.0, size=100_000)
            sum(range(100_000))
            self.times.append(time.perf_counter() - start)


def _worker(args) -> int:
    """One measuring process: set-up, then steps for ``--seconds``."""
    with _work_directory(args.workload) as workdir:
        workload, warm_up, setup_seconds = _set_up(args.workload, args.seed, workdir, args.worker)
        probe = HostProbe()
        probe()
        steps = _run_steps(workload, args.seconds, after_step=probe)
    print(json.dumps({
        "setup_s": setup_seconds,
        "probe_s": statistics.median(probe.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "steps": [[astuple(s) for s in step] for step in [warm_up, *steps]],
    }))
    return 0


def _spawn_worker(args, part: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / WORKER_PROCESSES),
               "--worker", str(part)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"measuring process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _scaled(run: dict) -> list[list]:
    """A process's steps, timed at the reference host speed."""
    from workloads import Sample

    factor = PROBE_REFERENCE_S / run["probe_s"]
    return [[Sample(kind, seconds * factor, work, ok) for kind, seconds, work, ok in step]
            for step in run["steps"]]


def _figures(steps, setups, rss) -> tuple[dict, dict]:
    """End-to-end values, and the samples of each request kind."""
    kinds = {}
    for s in (s for step in steps for s in step):
        kinds.setdefault(s.kind, []).append(s)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        "throughput_per_s": statistics.median(
            sum(s.work for s in step) / _step_seconds(step) for step in steps
        ),
        "op_ms_p50": statistics.geometric_mean([_median_ms(group) for group in kinds.values()]),
    }
    return values, kinds


def _end_to_end(workload, runs) -> tuple[dict, list[str], list]:
    from workloads import Sample

    # Each process's first step is its warm-up: checked, not timed.
    scaled = [_scaled(run) for run in runs]
    rss = [run["peak_rss_mb"] for run in runs]
    values, kinds = _figures(
        [step for steps in scaled for step in steps[1:]],
        [run["setup_s"] * PROBE_REFERENCE_S / run["probe_s"] for run in runs],
        rss,
    )
    raw, _ = _figures(
        [[Sample(*row) for row in step] for run in runs for step in run["steps"][1:]],
        [run["setup_s"] for run in runs],
        rss,
    )
    n_steps = sum(len(run["steps"]) - 1 for run in runs)
    lines = [
        f"{workload.throughput_name} = {values['throughput_per_s']:.6g} {workload.unit} "
        f"(median of {n_steps} steps)"
    ]
    for kind, group in kinds.items():
        lines.append(f"{kind}_ms_p50 = {_median_ms(group):.6g} ms (n={len(group)})")
        p90 = _p90_ms(group)
        if p90 is not None:
            lines.append(f"{kind}_ms_p90 = {p90:.6g} ms (n={len(group)})")
    lines.append(
        f"setup_s = {values['setup_s']:.6g} s (median of {len(runs)} set-ups, "
        f"each: imports, inputs, warm-up step)"
    )
    lines.append(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB (median of {len(runs)} processes)")
    lines.append(
        "host probe: " + ", ".join(f"{1e3 * run['probe_s']:.4g}" for run in runs)
        + f" ms in the {len(runs)} processes, {1e3 * PROBE_REFERENCE_S:.4g} ms on the reference host"
    )
    lines += [f"raw_{name} = {raw[name]:.6g} (wall clock, not scaled)"
              for name in ("throughput_per_s", "op_ms_p50", "setup_s")]
    return values, lines, [step for steps in scaled for step in steps]


def _traced(args) -> tuple[dict, list[str], list]:
    """Per-layer figures from a fixed number of traced steps.

    Untraced and traced steps alternate, so a drift in machine speed
    affects both sides of ``trace.overhead_frac`` alike, and the counts
    repeat exactly from run to run.
    """
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    with _work_directory(args.workload) as workdir:
        workload, warm_up, _ = _set_up(args.workload, args.seed, workdir)
        for _ in range(workload.TRACE_STEPS):
            untraced.append(workload.step())
            tracer.install(tracing.HOOKS)
            try:
                traced.append(workload.step())
            finally:
                tracer.uninstall()
    overhead = statistics.fmean(map(_step_seconds, traced)) / statistics.fmean(
        map(_step_seconds, untraced)
    ) - 1.0
    values = {}
    for spec in _metric_specs()["per_layer"]:
        if spec["name"] == "trace.overhead_frac":
            values[spec["name"]] = overhead
            continue
        layer, field_name = spec["name"].rsplit(".", 1)
        values[spec["name"]] = tracing.layer_value(tracer.stats[layer], field_name)
    lines = [f"trace: {len(traced)} traced steps against {len(untraced)} untraced"]
    lines += [f"trace: absent hook {label}" for label in tracer.absent]
    lines += [f"trace: work counter broken for {name}" for name in sorted(tracer.broken_counters)]
    return values, lines, [warm_up, *untraced, *traced]


def _run_workload(args) -> int:
    import workloads

    specs = _metric_specs()
    if args.trace:
        values, lines, steps = _traced(args)
        units = {spec["name"]: spec["unit"] for spec in specs["per_layer"]}
    else:
        runs = [_spawn_worker(args, part) for part in range(WORKER_PROCESSES)]
        values, lines, steps = _end_to_end(workloads.WORKLOADS[args.workload], runs)
        units = {spec["name"]: spec["unit"] for spec in specs["end_to_end"]}

    samples = [s for step in steps for s in step]
    failed = sum(not s.ok for s in samples)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(samples)} calls (warm-ups included)")
    print("machine: " + json.dumps(_machine(), sort_keys=True))
    for line in lines:
        print(line)
    print(f"failed_frac = {failed / len(samples):.6g} ({failed} of {len(samples)} calls)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def _run_all(args) -> int:
    """Run every workload in its own process and merge the result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 and not done.stdout.strip():
            return done.returncode
        status = status or done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, record in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = record
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "rawnoise" / "__init__.py").is_file():
        print(f"bench: no rawnoise sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.update(MALLOC_ENV)
    sys.path.insert(0, str(SRC))
    return _run_workload(args) if args.worker is None else _worker(args)


if __name__ == "__main__":
    sys.exit(main())
