"""Loss functions and the transformed parameter space of the estimator.

Regression happens in a transformed space ``r`` that balances the scale of
the four parameters: ``r(P) = (w1*K, w2*ln sigma, w3*mu_c, w4*ln sigma_r)``
with default weights (1, 1, 10, 10).  The contrastive objective is a
temperature-scaled softmax over cosine similarities: the anchor's
projection should be closest to the projection of a patch carrying the
same parameter tuple, against everything else in the batch.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, ShapeError
from ..noise_core import NoiseParams

DEFAULT_PARAM_WEIGHTS = (1.0, 1.0, 10.0, 10.0)

# Inference guard floors keep degenerate head outputs inside the parameter
# domain (K, sigma, sigma_r > 0).
PARAM_FLOOR = 1e-6

_EXP_CLIP = 700.0  # largest exponent math.exp survives


def param_transform_r(params: NoiseParams, weights=DEFAULT_PARAM_WEIGHTS) -> np.ndarray:
    """Map a parameter tuple into the weighted regression space."""
    if params.sigma <= 0 or params.sigma_r <= 0:
        raise DomainError(f"param transform needs sigma > 0 and sigma_r > 0, got {params}")
    w1, w2, w3, w4 = weights
    return np.array(
        [
            w1 * params.K,
            w2 * math.log(params.sigma),
            w3 * params.mu_c,
            w4 * math.log(params.sigma_r),
        ],
        dtype=np.float64,
    )


def param_targets(params, weights=DEFAULT_PARAM_WEIGHTS) -> np.ndarray:
    """(N, 4) regression targets for a sequence of parameter tuples."""
    return np.stack([param_transform_r(p, weights) for p in params])


def inverse_param_transform(r: np.ndarray, weights=DEFAULT_PARAM_WEIGHTS) -> NoiseParams:
    """Map an r-space vector back to parameters, flooring the positives at ``PARAM_FLOOR``."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (4,):
        raise ShapeError(f"expected a 4-vector, got shape {r.shape}")
    w1, w2, w3, w4 = weights
    return NoiseParams(
        K=max(r[0] / w1, PARAM_FLOOR),
        sigma=max(math.exp(min(r[1] / w2, _EXP_CLIP)), PARAM_FLOOR),
        mu_c=r[2] / w3,
        sigma_r=max(math.exp(min(r[3] / w4, _EXP_CLIP)), PARAM_FLOOR),
    )


def batch_contrastive(projections: np.ndarray, n_anchors: int, tau: float):
    """Mean in-batch contrastive loss over anchors, and its gradient.

    Args:
        projections: (3B, dim) stack ordered [anchors, positives, negatives];
            the positive of anchor ``i`` sits at row ``B + i``.
        n_anchors: B.
        tau: temperature.

    Returns ``(loss, d_proj)`` with ``d_proj`` = d(mean loss)/d(projections).

    Every projection except the anchor itself appears in the anchor's
    denominator, i.e. all other in-batch projections act as negatives.
    """
    if not tau > 0:
        raise DomainError(f"temperature must be positive, got {tau}")
    norms = np.linalg.norm(projections, axis=1)
    if np.any(norms == 0.0):
        raise DomainError("cosine similarity undefined for zero-norm projections")
    unit = projections / norms[:, None]

    sims = unit @ unit.T
    logits = sims / tau
    anchor_rows = logits[:n_anchors].copy()
    idx = np.arange(n_anchors)
    anchor_rows[idx, idx] = -np.inf  # the anchor itself never competes

    row_max = anchor_rows.max(axis=1, keepdims=True)
    exp_rows = np.exp(anchor_rows - row_max)
    denom = exp_rows.sum(axis=1, keepdims=True)
    log_denom = np.log(denom[:, 0]) + row_max[:, 0]
    pos_logits = logits[idx, n_anchors + idx]
    losses = log_denom - pos_logits
    loss = float(losses.mean())

    g = exp_rows / denom  # softmax over the anchor's candidates
    g[idx, n_anchors + idx] -= 1.0
    g[idx, idx] = 0.0
    d_sims = np.zeros_like(sims)
    d_sims[:n_anchors] = g / (n_anchors * tau)

    d_unit = d_sims @ unit + d_sims.T @ unit
    # Un-normalize: remove the radial component, then scale by 1/|z|.
    radial = np.sum(d_unit * unit, axis=1, keepdims=True)
    d_proj = (d_unit - radial * unit) / norms[:, None]
    return loss, d_proj


def batch_regression(r_pred: np.ndarray, r_target: np.ndarray):
    """Mean squared r-space error over a batch, and its gradient with respect to ``r_pred``."""
    if r_pred.shape != r_target.shape:
        raise ShapeError(f"prediction/target shape mismatch: {r_pred.shape} vs {r_target.shape}")
    diff = r_pred - r_target
    loss = float(np.sum(diff**2) / r_pred.shape[0])
    return loss, 2.0 * diff / r_pred.shape[0]
