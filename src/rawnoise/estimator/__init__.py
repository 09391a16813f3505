"""Learned single-image noise parameter estimation (contrastive training)."""

from .checkpoint import EstimatorCheckpoint
from .config import ConvStage, EstimatorConfig
from .losses import inverse_param_transform, param_transform_r
from .network import EstimatorNetwork, parameter_shapes
from .train import (
    backward,
    estimate,
    evaluate_triplets,
    heldout_weighted_mse,
    make_triplet_batch,
    mean_r_baseline_mse,
    total_loss,
    train,
)
from .triplets import TripletBatch, augment_triplet, draw_params

__all__ = [
    "ConvStage",
    "EstimatorCheckpoint",
    "EstimatorConfig",
    "EstimatorNetwork",
    "TripletBatch",
    "augment_triplet",
    "backward",
    "draw_params",
    "estimate",
    "evaluate_triplets",
    "heldout_weighted_mse",
    "inverse_param_transform",
    "make_triplet_batch",
    "mean_r_baseline_mse",
    "param_transform_r",
    "parameter_shapes",
    "total_loss",
    "train",
]
