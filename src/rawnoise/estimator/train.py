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
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, DomainError, ShapeError
from ..noise_core import NUM_CHANNELS, NoiseParams, as_patch
from ..parallel import run_units
from ..streams import DATA_STREAM, SHUFFLE_STREAM, derive_stream
from .checkpoint import EstimatorCheckpoint
from .config import EstimatorConfig
from .losses import batch_contrastive, batch_regression, inverse_param_transform, param_targets
from .network import EstimatorNetwork, parameter_shapes
from .triplets import TripletBatch, augment_triplet

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _stacked(batch: TripletBatch) -> np.ndarray:
    """(3B, 4, H, W) view ordered [anchors, positives, negatives]."""
    return batch.patches.reshape(-1, *batch.patches.shape[2:])


def _losses(net: EstimatorNetwork, batch: TripletBatch, joint: bool, dtype=np.float64):
    """Loss components of one batch and the upstream gradients of their total.

    ``joint=False`` is the stage-1 objective (contrastive only);
    ``joint=True`` is the full loss.  Returns ``(parts, cache, dz, dr)``:
    parts has keys contrastive / regression / total, and
    ``net.backward_batch(cache, dz, dr)`` gives the parameter gradients of
    the total; ``dr`` is None in stage 1.  The convolutions compute in
    ``dtype``; losses and gradients are float64.
    """
    config = net.config
    n_anchors = len(batch)
    _, z, r, cache = net.forward_batch(_stacked(batch), dtype=dtype)

    c_loss, dz = batch_contrastive(z, n_anchors, config.tau)
    if not joint:
        return {"contrastive": c_loss, "regression": 0.0, "total": c_loss}, cache, dz, None

    targets = param_targets(batch.anchor_params, config.param_weights)
    reg_loss, d_r = batch_regression(r[:n_anchors], targets)
    total = reg_loss + config.tau_loss * c_loss
    parts = {"contrastive": c_loss, "regression": reg_loss, "total": total}
    dr = np.zeros_like(r)
    dr[:n_anchors] = d_r
    return parts, cache, config.tau_loss * dz, dr


def total_loss(batch: TripletBatch, checkpoint: EstimatorCheckpoint) -> float:
    """The joint training objective on one batch (no network backward pass)."""
    net = EstimatorNetwork(checkpoint.config, checkpoint.params)
    return _losses(net, batch, joint=True)[0]["total"]


def backward(batch: TripletBatch, checkpoint: EstimatorCheckpoint) -> dict[str, np.ndarray]:
    """Exact analytic gradients of :func:`total_loss` for every parameter."""
    net = EstimatorNetwork(checkpoint.config, checkpoint.params)
    _, cache, dz, dr = _losses(net, batch, joint=True)
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


def _take(batch: TripletBatch, idx: np.ndarray) -> TripletBatch:
    return TripletBatch(batch.patches[:, idx], tuple(batch.anchor_params[i] for i in idx))


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
        param_targets(dataset.anchor_params, config.param_weights)
    except DomainError as exc:
        raise DomainError(f"a training anchor has no regression target: {exc}") from exc
    shuffle_rng = derive_stream(config.seed, SHUFFLE_STREAM)

    loss_log: list[dict] = []
    final_parts = {"contrastive": 0.0, "regression": 0.0, "total": 0.0}
    stage_specs = [
        (1, False, _stage_trainable(config, stage=1)),
        (2, True, _stage_trainable(config, stage=2)),
    ]
    for stage, joint, trainable in stage_specs:
        optimizer = Adam(net.params, trainable)
        for epoch in range(config.epochs_per_stage):
            lr = config.learning_rate_at(epoch)
            order = shuffle_rng.permutation(len(dataset))
            epoch_parts = {"contrastive": 0.0, "regression": 0.0, "total": 0.0}
            n_batches = 0
            # A step that overflows is left infinite or NaN and refused after its epoch.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for start in range(0, len(order), config.batch_size):
                    idx = order[start : start + config.batch_size]
                    if idx.size < 2:
                        continue  # a lone triplet has no in-batch contrast
                    parts, cache, dz, dr = _losses(net, _take(dataset, idx), joint, np.float32)
                    grads = net.backward_batch(cache, dz, dr)
                    del cache  # else the next step's forward holds two caches at once
                    optimizer.step(net.params, grads, lr)
                    for key in epoch_parts:
                        epoch_parts[key] += parts[key]
                    n_batches += 1
            for key in epoch_parts:
                epoch_parts[key] /= max(n_batches, 1)
            _check_finite(stage, epoch, epoch_parts, {name: net.params[name] for name in trainable})
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
