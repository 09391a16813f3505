"""Held-out scoring of a trained estimator, for criterion 8 and the opt-in seed check."""

import numpy as np

from rawnoise.estimator import EstimatorNetwork, draw_params
from rawnoise.estimator.losses import batch_regression, param_targets
from rawnoise.estimator.train import _stacked
from rawnoise.streams import DATA_STREAM, derive_stream


def train_anchor_params(bank, config) -> tuple:
    """The anchor tuples of ``train(config, scenes, bank)``: each triplet stream draws one first."""
    streams = derive_stream(config.seed, DATA_STREAM).spawn(config.train_triplets)
    return tuple(draw_params(bank, stream) for stream in streams)


def score_heldout(checkpoint, batch, train_params) -> dict:
    """Scores of ``checkpoint`` on a held-out triplet batch, from one float64 forward.

    ``accuracy`` is the fraction of anchors that project closer (in cosine)
    to their positive than to their negative, ``separation`` the mean cosine
    gap.  ``mse`` is the anchors' r-space error, and ``baseline`` that of
    the constant prediction at the mean r of ``train_params``.
    """
    config = checkpoint.config
    n = len(batch)
    _, z, r, _ = EstimatorNetwork(config, checkpoint.params).forward_batch(_stacked(batch))
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    cos_pos = np.sum(unit[:n] * unit[n : 2 * n], axis=1)
    cos_neg = np.sum(unit[:n] * unit[2 * n :], axis=1)
    targets = param_targets(batch.anchor_params, config.param_weights)
    mean_r = param_targets(train_params, config.param_weights).mean(axis=0)
    return {
        "accuracy": float(np.mean(cos_pos > cos_neg)),
        "separation": float(np.mean(cos_pos) - np.mean(cos_neg)),
        "cos_pos": float(np.mean(cos_pos)),
        "cos_neg": float(np.mean(cos_neg)),
        "mse": batch_regression(r[:n], targets)[0],
        "baseline": batch_regression(np.broadcast_to(mean_r, targets.shape), targets)[0],
    }
