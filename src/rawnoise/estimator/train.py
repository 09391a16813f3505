"""Two-stage training of the contrastive estimator, and single-patch inference.

Stage 1 trains the extractor and projector on the contrastive objective
alone; stage 2 attaches the regression head and minimizes the joint loss
(weighted r-space MSE plus ``tau_loss`` times the contrastive term, both
averaged per batch).  Optimization is adaptive moment estimation with
first-moment coefficient 0.9, and the step size is divided by
``decay_factor`` every ``decay_epochs`` epochs within each stage.

Runs are fully reproducible: the parameter init, the triplet dataset, and
the epoch shuffles each use a stream derived from ``config.seed``, and
triplet ``i`` of the dataset draws on child ``i`` of its stream, so the
dataset is drawn on every CPU with the same bytes at any thread count.  The
training step runs the network's convolutions in float32 over float64
master parameters and Adam state; ``total_loss``, ``backward`` and
``estimate`` compute in float64 throughout.

A step's data-only start, the gather of its triplets and the first
convolution's column matrix, needs no weights, so with more than one CPU
one helper thread builds it for the next step while the current one trains
(``parallel.run_ahead``); with one CPU it runs inline.  It reads only the
training set and the shuffle order, which the run draws in the same
sequence either way, and it writes only buffers whose contents the running
step does not read, so the checkpoint has the same bytes at any CPU count.
"""

from __future__ import annotations

from contextlib import closing
from functools import partial

import numpy as np

from ..errors import ConfigurationError, DomainError, ShapeError
from ..noise_core import NUM_CHANNELS, NoiseParams, as_patch
from ..parallel import run_ahead, run_units
from ..streams import DATA_STREAM, SHUFFLE_STREAM, derive_stream
from .checkpoint import EstimatorCheckpoint
from .config import EstimatorConfig
from .losses import batch_contrastive, batch_regression, inverse_param_transform, param_targets
from .network import EstimatorNetwork, first_conv_geometry, im2col, parameter_shapes
from .triplets import TripletBatch, augment_triplet

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _stacked(batch: TripletBatch) -> np.ndarray:
    """(3B, 4, H, W) view ordered [anchors, positives, negatives]."""
    return batch.patches.reshape(-1, *batch.patches.shape[2:])


def _losses(net: EstimatorNetwork, batch: TripletBatch, targets, dtype=np.float64, cols=None):
    """Loss components of one batch and the upstream gradients of their total.

    ``targets=None`` is the stage-1 objective (contrastive only); the
    anchors' ``param_targets`` give the full loss.  Returns ``(parts,
    cache, dz, dr)``: parts has keys contrastive / regression / total, and
    ``net.backward_batch(cache, dz, dr)`` gives the parameter gradients of
    the total; ``dr`` is None in stage 1.  The convolutions compute in
    ``dtype``, the first one on ``cols`` if they are given (see
    ``forward_batch``); losses and gradients are float64.
    """
    config = net.config
    n_anchors = len(batch)
    _, z, r, cache = net.forward_batch(_stacked(batch), dtype, cols)

    c_loss, dz = batch_contrastive(z, n_anchors, config.tau)
    if targets is None:
        return {"contrastive": c_loss, "regression": 0.0, "total": c_loss}, cache, dz, None

    reg_loss, d_r = batch_regression(r[:n_anchors], targets)
    total = reg_loss + config.tau_loss * c_loss
    parts = {"contrastive": c_loss, "regression": reg_loss, "total": total}
    dr = np.zeros_like(r)
    dr[:n_anchors] = d_r
    return parts, cache, config.tau_loss * dz, dr


def total_loss(batch: TripletBatch, checkpoint: EstimatorCheckpoint) -> float:
    """The joint training objective on one batch (no network backward pass)."""
    net = EstimatorNetwork(checkpoint.config, checkpoint.params)
    targets = param_targets(batch.anchor_params, checkpoint.config.param_weights)
    return _losses(net, batch, targets)[0]["total"]


def backward(batch: TripletBatch, checkpoint: EstimatorCheckpoint) -> dict[str, np.ndarray]:
    """Exact analytic gradients of :func:`total_loss` for every parameter."""
    net = EstimatorNetwork(checkpoint.config, checkpoint.params)
    targets = param_targets(batch.anchor_params, checkpoint.config.param_weights)
    _, cache, dz, dr = _losses(net, batch, targets)
    return net.backward_batch(cache, dz, dr)


class Adam:
    """Adaptive moment estimation over a named-parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], trainable):
        self.trainable = tuple(sorted(trainable))
        self.m = {name: np.zeros_like(params[name]) for name in self.trainable}
        self.v = {name: np.zeros_like(params[name]) for name in self.trainable}
        self.t = 0

    def step(self, params, grads, lr: float) -> None:
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        for name in self.trainable:
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g**2
            m_hat = m / bias1
            v_hat = v / bias2
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def make_triplet_batch(scene_pool, camera_bank, rng, size: int) -> TripletBatch:
    """Draw ``size`` triplets into one float32 (3, size, 4, H, W) stack.

    The stack is allocated from the first scene's shape before any stream
    is spawned or thread started.  Triplet ``i`` then draws on
    ``rng.spawn(size)[i]`` straight into ``patches[:, i]``, on every CPU
    (see ``parallel.run_units``) with the bytes of a serial loop; a refused
    batch raises the error of its lowest failing triplet.  Spawning does
    not advance the draws of ``rng``, but a second call on the same ``rng``
    takes its next ``size`` children.
    """
    if size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {size}")
    if not scene_pool:
        raise ConfigurationError("scene pool is empty")
    if not camera_bank:
        raise ConfigurationError("camera bank is empty")
    shape = np.shape(scene_pool[0])
    if any(np.shape(scene) != shape for scene in scene_pool):
        raise ShapeError(f"scene pool mixes shapes; the first scene is {shape}")
    patches = np.empty((3, size, *shape), dtype=np.float32)
    anchor_params = [None] * size
    streams = rng.spawn(size)

    def draw(i):
        anchor_params[i] = augment_triplet(scene_pool, camera_bank, streams[i], patches[:, i])

    run_units(size, draw)
    return TripletBatch(patches=patches, anchor_params=tuple(anchor_params))


def _take(
    batch: TripletBatch, idx: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> TripletBatch:
    """Triplets ``idx`` of ``batch``, their patches copied into ``out``.

    ``out`` is a ``(4, H, W, 3 * len(idx))`` array, filled batch-innermost
    in ``_stacked`` order; the batch returned views it.  Each stack slot is
    gathered first into the front of ``scratch``, a flat float32 buffer of
    at least one slot's size, so no step allocates.
    """
    b = len(idx)
    gather = scratch[: out.size // 3].reshape(b, *batch.patches.shape[2:])
    for j in range(3):
        # "clip" writes straight into gather, where "raise" would buffer; idx is in range.
        np.take(batch.patches[j], idx, axis=0, out=gather, mode="clip")
        out[..., j * b : (j + 1) * b] = gather.transpose(1, 2, 3, 0)
    # Splitting one axis in two never copies, so this is a view of out.
    patches = out.transpose(3, 0, 1, 2).reshape(3, b, *out.shape[:3])
    return TripletBatch(patches, tuple(batch.anchor_params[i] for i in idx))


def _step_jobs(dataset: TripletBatch, config: EstimatorConfig, shuffle_rng, starts):
    """The data-only start of every training step, one job per step in run order.

    Each epoch draws its order from ``shuffle_rng`` and cuts its steps at
    ``starts``.  A job gathers its step's triplets into the interior of a
    zero-bordered buffer, batch-innermost, builds the first convolution's
    column matrix from it, and returns ``(idx, batch, cols)``.  The buffer
    and two column buffers are made once, here, on the thread that takes
    the jobs.  Every job refills the buffer, so the batch, which views it,
    is good for its shape only once the next job starts; job ``i`` builds
    its columns in column buffer ``i % 2``, which step ``i`` reads until
    job ``i + 2``.  Until then it is free, so job ``i`` first gathers its
    triplets through it.
    """
    k, stride, pad = first_conv_geometry(config)
    h, w = config.patch_height, config.patch_width
    n = 3 * min(config.batch_size, len(dataset))
    padded = np.zeros((NUM_CHANNELS, h + 2 * pad, w + 2 * pad, n), np.float32)
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    size = NUM_CHANNELS * max(k * k * oh * ow * n, h * w * n // 3)  # columns, or one gathered slot
    columns = [np.empty(size, np.float32) for _ in range(2)]

    def prepare(idx, cols):
        xp = padded[..., : 3 * len(idx)]
        batch = _take(dataset, idx, xp[:, pad : pad + h, pad : pad + w], cols)
        return idx, batch, im2col(xp, k, stride, cols)

    step = 0
    for _ in range(2 * config.epochs_per_stage):
        order = shuffle_rng.permutation(len(dataset))
        for start in starts:
            yield partial(prepare, order[start : start + config.batch_size], columns[step % 2])
            step += 1


def train(
    config: EstimatorConfig, scene_pool, camera_bank, on_stage_end=None
) -> EstimatorCheckpoint:
    """Run both training stages and return the finished checkpoint.

    The checkpoint metadata carries the per-epoch loss log
    (stage, epoch, contrastive, regression, total) and the final losses.
    ``on_stage_end(stage, params)`` is invoked with a snapshot copy of the
    parameters after each stage, e.g. to evaluate the representation
    before the head is attached; it does not influence the run.  An anchor
    stage 2 cannot regress on raises ``DomainError`` before any step runs, as
    does an epoch whose mean losses or trained parameters are not all finite.
    The helper thread that prepares each step ahead (see the module
    docstring) is joined before ``train`` returns or raises.
    """
    expected = (NUM_CHANNELS, config.patch_height, config.patch_width)
    for scene in scene_pool:
        if tuple(np.shape(scene)) != expected:
            raise ConfigurationError(
                f"scene shape {np.shape(scene)} does not match config patch shape {expected}"
            )

    net = EstimatorNetwork.initialize(config)
    dataset = make_triplet_batch(
        scene_pool, camera_bank, derive_stream(config.seed, DATA_STREAM), config.train_triplets
    )
    try:  # stage 2 regresses on every anchor: refuse one it cannot before stage 1 runs
        targets = param_targets(dataset.anchor_params, config.param_weights)
    except DomainError as exc:
        raise DomainError(f"a training anchor has no regression target: {exc}") from exc
    # A lone triplet has no in-batch contrast, so a batch of one is skipped.
    n = len(dataset)
    starts = [s for s in range(0, n, config.batch_size) if min(config.batch_size, n - s) >= 2]
    jobs = _step_jobs(dataset, config, derive_stream(config.seed, SHUFFLE_STREAM), starts)

    loss_log: list[dict] = []
    final_parts = {"contrastive": 0.0, "regression": 0.0, "total": 0.0}
    stage_specs = [
        (1, False, _stage_trainable(config, stage=1)),
        (2, True, _stage_trainable(config, stage=2)),
    ]
    with closing(run_ahead(jobs)) as steps:
        for stage, joint, trainable in stage_specs:
            optimizer = Adam(net.params, trainable)
            for epoch in range(config.epochs_per_stage):
                lr = config.learning_rate_at(epoch)
                epoch_parts = {"contrastive": 0.0, "regression": 0.0, "total": 0.0}
                # A step that overflows is left infinite or NaN and refused after its epoch.
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    for _ in starts:
                        idx, batch, cols = next(steps)
                        batch_targets = targets[idx] if joint else None
                        parts, cache, dz, dr = _losses(net, batch, batch_targets, np.float32, cols)
                        grads = net.backward_batch(cache, dz, dr)
                        del cache  # else the next step's forward holds two caches at once
                        optimizer.step(net.params, grads, lr)
                        for key in epoch_parts:
                            epoch_parts[key] += parts[key]
                for key in epoch_parts:
                    epoch_parts[key] /= max(len(starts), 1)
                trained = {name: net.params[name] for name in trainable}
                _check_finite(stage, epoch, epoch_parts, trained)
                loss_log.append({"stage": stage, "epoch": epoch, **epoch_parts})
                final_parts = epoch_parts
            if on_stage_end is not None:
                on_stage_end(stage, {name: value.copy() for name, value in net.params.items()})

    metadata = {
        "epochs_completed": 2 * config.epochs_per_stage,
        "stage": 2,
        "final_losses": final_parts,
        "loss_log": loss_log,
    }
    return EstimatorCheckpoint(config=config, params=net.params, metadata=metadata)


def _check_finite(stage: int, epoch: int, losses: dict, params: dict) -> None:
    """Refuse an epoch whose mean losses or trained parameters are not all finite."""
    bad = [f"{key} loss" for key, value in losses.items() if not np.isfinite(value)]
    bad += [f"parameter {name}" for name, value in params.items() if not np.isfinite(value).all()]
    if bad:
        raise DomainError(
            f"training diverged at stage {stage}, epoch {epoch}: the {bad[0]} is not finite"
        )


def _stage_trainable(config: EstimatorConfig, stage: int) -> list[str]:
    groups = {"extractor", "projector" if stage == 1 else "head"}
    if stage == 2 and config.projector_trainable_stage2:
        groups.add("projector")
    return [name for name in parameter_shapes(config) if name.split(".")[0] in groups]


def estimate(patch: np.ndarray, checkpoint: EstimatorCheckpoint) -> NoiseParams:
    """Estimate the noise parameter tuple of a single noisy patch."""
    net = EstimatorNetwork(checkpoint.config, checkpoint.params)
    _, _, r, _ = net.forward_batch(as_patch(patch)[None])
    return inverse_param_transform(r[0], checkpoint.config.param_weights)
