"""Per-layer spans recorded from outside the program.

The tracer replaces a module or class attribute at the place the program
looks it up (``rawnoise.cli.write_tensor``, ``EstimatorNetwork.forward_batch``)
with a wrapper that records one span per call.  Nothing under ``src/``
knows about it.  Spans are aggregated in memory per layer: call count,
inclusive time, time covered by child spans, and work counters computed
from argument and result shapes.

A hook whose module or attribute no longer exists is recorded as absent,
and a work counter that no longer fits its function's arguments is
recorded as broken, so a refactor shows up in the report instead of
crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(float))


@dataclass
class _Frame:
    name: str
    child_seconds: float = 0.0


class Tracer:
    """Aggregated spans of the layers named by :data:`HOOKS`."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, counter):
        # A layer re-entered through a second wrapped name (an alias kept
        # after a refactor) is covered by the outer span alone.
        if any(frame.name == name for frame in self._stack):
            return fn(*args, **kwargs)
        frame = _Frame(name)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            stats = self.stats[name]
            stats.calls += 1
            stats.seconds += elapsed
            stats.child_seconds += frame.child_seconds
            if self._stack:
                self._stack[-1].child_seconds += elapsed
        if counter is not None:
            try:
                counts = counter(args, kwargs, result)
            except (AttributeError, IndexError, TypeError, ValueError):
                # The wrapped function changed its signature or result.
                self.broken_counters.add(name)
                counts = {}
            for key, amount in counts.items():
                stats.counts[key] += amount
        return result

    def install(self, hooks) -> None:
        """Wrap every hook; statistics accumulate across installs."""
        self.absent = []
        for layer, module_name, attr_path, counter in hooks:
            self._wrap(layer, module_name, attr_path, counter)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, module_name, attr_path, counter) -> None:
        label = f"{layer if isinstance(layer, str) else 'cli.*'} <- {module_name}.{attr_path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(label)
            return
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        raw = (vars(owner).get(attr) if isinstance(owner, type) else None) or getattr(
            owner, attr, None
        )
        if raw is None:
            self.absent.append(label)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrapper(layer, raw.__func__, counter))
        else:
            replacement = self._wrapper(layer, raw, counter)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _wrapper(self, layer, fn, counter):
        name_of = layer if callable(layer) else (lambda args, kwargs: layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name_of(args, kwargs), fn, args, kwargs, counter)

        return traced


# ----------------------------------------------------------------------
# Work counters, computed from array shapes only.


def _megapixels(shape) -> float:
    return math.prod(shape) / 1e6


def _shot_mpx(args, kwargs, result):
    return {"mpx": _megapixels(result.shape)}


def _shape_mpx(args, kwargs, result):
    return {"mpx": _megapixels(args[0])}


def _written_mb(args, kwargs, result):
    # NRAW stores float32 payloads.
    return {"mb": 4 * math.prod(args[1].shape) / 1e6}


def _read_mb(args, kwargs, result):
    return {"mb": 4 * math.prod(result.shape) / 1e6}


def _conv_macs(dy_shape, weight_shape) -> int:
    n, out_ch, oh, ow = dy_shape
    _, in_ch, kh, kw = weight_shape
    return n * out_ch * in_ch * kh * kw * oh * ow


def _conv_forward_gflop(args, kwargs, result):
    return {"gflop": 2 * _conv_macs(result[0].shape, args[1].shape) / 1e9}


def _conv_backward_gflop(args, kwargs, result):
    # d_weight and dcols are one matmul each of the forward's size.
    return {"gflop": 4 * _conv_macs(args[0].shape, args[1].shape) / 1e9}


def _cli_layer(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli"


_TRAIN = "rawnoise.estimator.train"
_NET = "rawnoise.estimator.network"

# (layer, module, attribute at its lookup site, counter).  A layer may be
# reached through several names; every name that exists is wrapped.
HOOKS = [
    ("noise_core.sample_shot", "rawnoise.noise_core", "sample_shot", _shot_mpx),
    ("noise_core.sample_read", "rawnoise.noise_core", "sample_read", _shape_mpx),
    ("noise_core.sample_row", "rawnoise.noise_core", "sample_row", None),
    ("noise_core.synthesize_noise", "rawnoise.noise_core", "synthesize_noise", None),
    ("noise_core.synthesize_noise", "rawnoise.cli", "synthesize_noise", None),
    ("noise_core.synthesize_noise", "rawnoise.estimator.triplets", "synthesize_noise", None),
    ("synthetic.make_scene", "rawnoise.synthetic", "make_scene", None),
    ("calibration.sample_params", "rawnoise.calibration", "sample_params", None),
    ("calibration.sample_params", "rawnoise.estimator.triplets", "sample_params", None),
    ("io.write_tensor", "rawnoise.cli", "write_tensor", _written_mb),
    ("io.read_tensor", "rawnoise.cli", "read_tensor", _read_mb),
    ("io.manifest_save", "rawnoise.io.manifest", "Manifest.save", None),
    ("io.checkpoint_load", "rawnoise.estimator.checkpoint", "EstimatorCheckpoint.load", None),
    ("oracle.estimate_params_oracle", "rawnoise.oracle", "estimate_params_oracle", None),
    ("oracle.estimate_color_bias", "rawnoise.oracle", "estimate_color_bias", None),
    ("oracle.estimate_row_sigma", "rawnoise.oracle", "estimate_row_sigma", None),
    ("oracle.estimate_gain_and_read", "rawnoise.oracle", "estimate_gain_and_read", None),
    ("metrics.default_range", "rawnoise.metrics", "default_range", None),
    ("metrics.build_histogram", "rawnoise.metrics", "build_histogram", None),
    ("metrics.kl_divergence", "rawnoise.metrics", "kl_divergence", None),
    ("estimator.triplets.augment_triplet", _TRAIN, "augment_triplet", None),
    ("estimator.train.generate_dataset", _TRAIN, "_generate_dataset", None),
    ("estimator.train.take", _TRAIN, "_take", None),
    ("estimator.train.stacked", _TRAIN, "_stacked", None),
    ("estimator.train.adam_step", _TRAIN, "Adam.step", None),
    ("estimator.losses.batch_contrastive", _TRAIN, "batch_contrastive", None),
    ("estimator.losses.batch_regression", _TRAIN, "batch_regression", None),
    # The network calls its private batched Haar today; once it calls the
    # shared wavelets transform instead, the last two names carry the layer.
    ("estimator.network.haar", _NET, "_haar_batch", None),
    ("estimator.network.haar", _NET, "haar_dwt2", None),
    ("estimator.network.haar", "rawnoise.wavelets", "haar_dwt2", None),
    ("estimator.network.conv_forward", _NET, "_conv_forward", _conv_forward_gflop),
    ("estimator.network.conv_backward", _NET, "_conv_backward", _conv_backward_gflop),
    ("estimator.network.nonlin", _NET, "_nonlin_forward", None),
    ("estimator.network.nonlin", _NET, "_nonlin_backward", None),
    ("estimator.network.pool_forward", _NET, "_pool_forward", None),
    ("estimator.network.pool_backward", _NET, "_pool_backward", None),
    ("estimator.network.mlp_forward", _NET, "EstimatorNetwork._mlp_forward", None),
    ("estimator.network.mlp_backward", _NET, "EstimatorNetwork._mlp_backward", None),
    ("estimator.network.forward_batch", _NET, "EstimatorNetwork.forward_batch", None),
    ("estimator.network.backward_batch", _NET, "EstimatorNetwork.backward_batch", None),
    ("estimator.network.construct", _NET, "EstimatorNetwork.__init__", None),
    (_cli_layer, "rawnoise.cli", "main", None),
]


def layer_value(stats: LayerStats, field_name: str) -> float:
    """One per-layer metric from a layer's aggregate (0 for an idle layer)."""
    if field_name == "calls":
        return float(stats.calls)
    if field_name == "ms":
        return stats.seconds * 1e3
    if field_name == "self_ms":
        return (stats.seconds - stats.child_seconds) * 1e3
    if field_name in ("mb", "gflop"):
        return stats.counts[field_name]
    if field_name in ("mpx_per_s", "gflop_per_s"):
        amount = stats.counts[field_name.removesuffix("_per_s")]
        return amount / stats.seconds if stats.seconds > 0 else 0.0
    raise KeyError(f"unknown per-layer field {field_name!r}")
