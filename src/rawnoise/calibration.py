"""Camera noise-model calibration from per-image parameter estimates.

Given a set of per-image tuples (K, sigma, mu_c, sigma_r) estimated from a
camera's captures, both noise standard deviations follow the gain through a
log-linear law.  Fitting those laws (plus residual spreads and the observed
gain range) yields a compact camera model from which fresh, realistic
parameter tuples can be sampled:

    log K       ~ Uniform(log K_min, log K_max)
    log sigma   | log K ~ Normal(a   * log K + b,   sigma_hat^2)
    log sigma_r | log K ~ Normal(a_r * log K + b_r, sigma_r_hat^2)

Natural logarithms throughout; the base only rescales (a, b) jointly and is
fixed for file-format stability.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    MissingCalibrationError,
)
from .noise_core import NoiseParams
from .records import Record

logger = logging.getLogger(__name__)

# log(sigma) must exist; exact-zero estimates are floored here, with a warning.
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class CameraModel(Record, error=DomainError, ignore_unknown=True):
    """Fitted log-linear noise-level functions of one camera.

    Attributes:
        a, b: slope/intercept of log sigma vs log K.
        a_r, b_r: slope/intercept of log sigma_r vs log K.
        sigma_hat: unbiased residual std of the (K, sigma) fit.
        sigma_r_hat: unbiased residual std of the (K, sigma_r) fit.
        K_min, K_max: smallest/largest estimated gain.
        mu_c_model: mean of observed color-bias values.
        alpha: optional ISO-to-gain slope (K = alpha * ISO).
    """

    a: float
    b: float
    a_r: float
    b_r: float
    sigma_hat: float
    sigma_r_hat: float
    K_min: float
    K_max: float
    mu_c_model: float
    alpha: float | None = None

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"camera model {field.name} must be finite, got {value}")
        if not (self.K_min > 0 and self.K_min <= self.K_max):
            raise DomainError(f"need 0 < K_min <= K_max, got [{self.K_min}, {self.K_max}]")
        if self.sigma_hat < 0 or self.sigma_r_hat < 0:
            raise DomainError("residual spreads must be non-negative")
        if self.alpha is not None and not self.alpha > 0:
            raise DomainError(f"alpha must be positive when present, got {self.alpha}")


def ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = a*x + b plus the unbiased residual std.

    The residual std uses the n-2 denominator; with exactly two points the
    fit is exact and the spread is reported as zero.
    """
    n = x.size
    x_mean = x.mean()
    y_mean = y.mean()
    s_xx = float(np.sum((x - x_mean) ** 2))
    if s_xx == 0.0:
        raise DegenerateDesignError("all gains identical; log-linear fit is undetermined")
    a = float(np.sum((x - x_mean) * (y - y_mean)) / s_xx)
    b = float(y_mean - a * x_mean)
    if n <= 2:
        return a, b, 0.0
    residuals = y - (a * x + b)
    spread = math.sqrt(max(0.0, float(np.sum(residuals**2)) / (n - 2)))
    return a, b, spread


def fit_log_linear(params) -> CameraModel:
    """Fit both log-linear noise-level functions from per-image estimates.

    ``params`` is an iterable of NoiseParams, one per image, with at least
    two distinct gains.  Sigma estimates below ``SIGMA_FLOOR`` (exact
    zeros, say) are floored there, with a warning, so the logarithm exists.
    """
    params = list(params)
    if len(params) < 2:
        raise InsufficientDataError(f"need >= 2 parameter tuples to fit, got {len(params)}")

    gains = np.array([p.K for p in params], dtype=np.float64)
    sigmas = np.array([p.sigma for p in params], dtype=np.float64)
    sigma_rs = np.array([p.sigma_r for p in params], dtype=np.float64)
    biases = np.array([p.mu_c for p in params], dtype=np.float64)

    for name, values in (("sigma", sigmas), ("sigma_r", sigma_rs)):
        floored = values < SIGMA_FLOOR
        if np.any(floored):
            logger.warning(
                "flooring %d degenerate %s estimate(s) at %g DN for the log fit",
                int(floored.sum()),
                name,
                SIGMA_FLOOR,
            )
            values[floored] = SIGMA_FLOOR

    log_k = np.log(gains)
    a, b, sigma_hat = ols_line(log_k, np.log(sigmas))
    a_r, b_r, sigma_r_hat = ols_line(log_k, np.log(sigma_rs))
    with np.errstate(over="ignore"):  # an overflowing mean is refused by CameraModel
        mu_c_model = float(biases.mean())

    return CameraModel(
        a=a,
        b=b,
        a_r=a_r,
        b_r=b_r,
        sigma_hat=sigma_hat,
        sigma_r_hat=sigma_r_hat,
        K_min=float(gains.min()),
        K_max=float(gains.max()),
        mu_c_model=mu_c_model,
        alpha=None,
    )


def _sample_sigmas_at(model: CameraModel, log_k: float, rng: np.random.Generator):
    log_sigma = rng.normal(model.a * log_k + model.b, model.sigma_hat)
    log_sigma_r = rng.normal(model.a_r * log_k + model.b_r, model.sigma_r_hat)
    try:
        return math.exp(log_sigma), math.exp(log_sigma_r)
    except OverflowError:
        # exp is increasing, so the exp of the larger draw overflows
        name = "sigma" if log_sigma >= log_sigma_r else "sigma_r"
        raise DomainError(
            f"camera model draws log {name} = {max(log_sigma, log_sigma_r):.6g},"
            " beyond a float's range"
        ) from None


def sample_params(model: CameraModel, rng: np.random.Generator) -> NoiseParams:
    """Draw one parameter tuple from the fitted joint distribution.

    Gain is log-uniform over the observed range and both sigmas follow
    their conditional log-normals; the color bias is the model constant
    (a fixed-pattern property, not a per-shot random variable).
    """
    log_k = rng.uniform(math.log(model.K_min), math.log(model.K_max))
    sigma, sigma_r = _sample_sigmas_at(model, log_k, rng)
    return NoiseParams(K=math.exp(log_k), sigma=sigma, mu_c=model.mu_c_model, sigma_r=sigma_r)


def fit_iso_gain(pairs) -> float:
    """Through-origin least-squares slope of gain on ISO: K = alpha * O."""
    pairs = list(pairs)
    if not pairs:
        raise InsufficientDataError("need at least one (ISO, gain) pair")
    iso = np.array([o for o, _ in pairs], dtype=np.float64)
    gain = np.array([k for _, k in pairs], dtype=np.float64)
    if np.any(iso <= 0) or np.any(gain <= 0):
        raise DomainError("ISO values and gains must be positive")
    with np.errstate(all="ignore"):  # a slope that is not finite is refused by CameraModel
        return float(np.sum(iso * gain) / np.sum(iso**2))


def sample_params_at_iso(
    model: CameraModel, iso: float, rng: np.random.Generator
) -> NoiseParams:
    """Sample a tuple with the gain pinned to ``alpha * iso``.

    Replaces the log-uniform gain draw for synthesis at a specific ISO
    setting; sigma, sigma_r, and mu_c follow :func:`sample_params`.
    """
    if model.alpha is None:
        raise MissingCalibrationError("camera model has no fitted ISO-to-gain slope")
    gain = model.alpha * iso
    if not (gain > 0 and math.isfinite(gain)):
        raise DomainError(f"--iso {iso} times alpha {model.alpha} is a gain of {gain}, "
                          "not a positive finite number")
    sigma, sigma_r = _sample_sigmas_at(model, math.log(gain), rng)
    return NoiseParams(K=gain, sigma=sigma, mu_c=model.mu_c_model, sigma_r=sigma_r)
