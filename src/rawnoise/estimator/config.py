"""Configuration for the contrastive noise estimator.

The network is a small convolutional extractor over the Haar subbands,
followed by an MLP projector (for the contrastive objective) and an MLP
regression head (for the parameter estimate), both reading the pooled
extractor feature.  Every architectural and optimization choice lives
here so runs are reproducible from the config document alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..records import Record
from .losses import DEFAULT_PARAM_WEIGHTS

NONLINEARITIES = ("relu", "tanh")


@dataclass(frozen=True)
class ConvStage(Record, error=ConfigurationError):
    """One extractor stage: convolution (kernel, stride) + nonlinearity."""

    kernel: int
    stride: int
    width: int
    nonlinearity: str = "relu"

    def __post_init__(self):
        super().__post_init__()
        if self.kernel < 1 or self.stride < 1 or self.width < 1:
            raise ConfigurationError(f"conv stage fields must be >= 1, got {self}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigurationError(
                f"unknown nonlinearity {self.nonlinearity!r}; expected one of {NONLINEARITIES}"
            )


@dataclass(frozen=True)
class EstimatorConfig(Record, error=ConfigurationError):
    """Hyperparameters of the estimator network and its two-stage training.

    ``feature_dim`` is the pooled feature size |h| and must equal twice the
    last stage width (global mean+std pooling).  ``tau`` is the contrastive
    temperature and ``tau_loss`` the contrastive weight in the joint loss;
    they are independent knobs that happen to share the 0.1 default.
    ``param_weights`` scales the regression targets
    (K, ln sigma, mu_c, ln sigma_r).  ``input_scale`` multiplies every Haar
    plane; the network then applies its fixed per-band gain
    (``network.BAND_GAIN``).
    """

    extractor: tuple[ConvStage, ...] = (
        ConvStage(kernel=3, stride=2, width=16),
        ConvStage(kernel=3, stride=2, width=32),
        ConvStage(kernel=3, stride=2, width=64),
    )
    feature_dim: int = 128
    projector: tuple[int, ...] = (64, 32)
    head: tuple[int, ...] = (64, 4)
    tau: float = 0.1
    tau_loss: float = 0.1
    param_weights: tuple[float, float, float, float] = DEFAULT_PARAM_WEIGHTS
    learning_rate: float = 1e-4
    decay_epochs: int = 50
    decay_factor: float = 10.0
    batch_size: int = 32
    epochs_per_stage: int = 200
    patch_height: int = 64
    patch_width: int = 64
    input_scale: float = 1.0 / 1023.0
    train_triplets: int = 2000
    projector_trainable_stage2: bool = True
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not self.extractor:
            raise ConfigurationError("extractor needs at least one conv stage")
        if self.feature_dim != 2 * self.extractor[-1].width:
            raise ConfigurationError(
                f"feature_dim must be 2x the last stage width "
                f"(mean+std pooling), got {self.feature_dim} vs "
                f"2*{self.extractor[-1].width}"
            )
        if not self.projector or any(w < 1 for w in self.projector):
            raise ConfigurationError("projector widths must be >= 1 and non-empty")
        if not self.head or any(w < 1 for w in self.head) or self.head[-1] != 4:
            raise ConfigurationError("head widths must be >= 1 and end in 4")
        if not self.tau > 0:
            raise ConfigurationError(f"tau must be positive, got {self.tau}")
        if self.tau_loss < 0:
            # zero is allowed: it degenerates the joint loss to pure regression
            raise ConfigurationError(f"tau_loss must be non-negative, got {self.tau_loss}")
        if any(w <= 0 for w in self.param_weights):
            raise ConfigurationError("param_weights must be 4 positive scalars")
        if self.batch_size < 2:
            raise ConfigurationError(f"batch size must be >= 2, got {self.batch_size}")
        if self.decay_epochs < 1 or self.decay_factor <= 0:
            raise ConfigurationError("invalid learning-rate schedule")
        if self.epochs_per_stage < 0:
            raise ConfigurationError("invalid training run length")
        # The rate is monotonic in the epoch, so its first and last epochs bound it.
        for epoch in (0, max(self.epochs_per_stage - 1, 0)):
            try:
                rate = self.learning_rate_at(epoch)
            except (OverflowError, ZeroDivisionError):  # the divisor leaves float's range
                rate = math.nan
            if not (math.isfinite(rate) and rate > 0):
                raise ConfigurationError(
                    f"the learning rate at epoch {epoch} is not a finite number above 0"
                )
        if self.train_triplets < 2:  # a batch needs two triplets for in-batch contrast
            raise ConfigurationError(f"train_triplets must be >= 2, got {self.train_triplets}")
        if any(dim < 2 or dim % 2 for dim in (self.patch_height, self.patch_width)):
            raise ConfigurationError("patch dims must be even and >= 2 for the Haar front end")
        if self.input_scale <= 0:
            raise ConfigurationError(f"input_scale must be positive, got {self.input_scale}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    def learning_rate_at(self, epoch: int) -> float:
        """The step size of ``epoch`` within a stage: divided by ``decay_factor``
        every ``decay_epochs`` epochs."""
        return self.learning_rate / self.decay_factor ** (epoch // self.decay_epochs)
