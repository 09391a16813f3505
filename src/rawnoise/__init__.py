"""Physics-based raw sensor noise: synthesis, calibration, and estimation.

The pipeline estimates a four-tuple noise parameter (K, sigma, mu_c,
sigma_r) per image, fits a camera-specific joint distribution over those
tuples, samples fresh tuples from it, synthesizes realistic noisy raw
patches, and scores synthesis fidelity with histogram KL divergence.
"""

from .calibration import (
    CameraModel,
    fit_iso_gain,
    fit_log_linear,
    sample_params,
    sample_params_at_iso,
)
from .metrics import NoiseHistogram, build_histogram, kl_divergence
from .noise_core import (
    NoiseParams,
    NoiseSample,
    add_noise,
    as_patch,
    sample_read,
    sample_row,
    sample_shot,
    synthesize_noise,
)
from .oracle import estimate_bias_and_row_sigma, estimate_gain_and_read, estimate_params_oracle
from .streams import derive_stream
from .wavelets import haar_dwt2, haar_idwt2

__version__ = "0.1.0"

__all__ = [
    "CameraModel",
    "NoiseHistogram",
    "NoiseParams",
    "NoiseSample",
    "add_noise",
    "as_patch",
    "build_histogram",
    "derive_stream",
    "estimate_bias_and_row_sigma",
    "estimate_gain_and_read",
    "estimate_params_oracle",
    "fit_iso_gain",
    "fit_log_linear",
    "haar_dwt2",
    "haar_idwt2",
    "kl_divergence",
    "sample_params",
    "sample_params_at_iso",
    "sample_read",
    "sample_row",
    "sample_shot",
    "synthesize_noise",
]
