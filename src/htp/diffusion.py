"""Forward perturbation, DDIM reverse stepping, hypothesis aggregation, MPJPE.

Timesteps are 1-indexed into the schedule arrays; t = 0 means clean data
with cumulative signal fraction exactly 1. The reverse sampler predicts the
clean sequence, re-derives the implied noise, and steps along a shrinking
timestep subset; ddim_eta scales the stochastic term (0 = deterministic).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import RngStream, ShapeError, gaussian

log = logging.getLogger(__name__)

SCHEDULE_KINDS = ("linear", "cosine")

_BETA_START = 1e-4
_BETA_END = 2e-2
_COSINE_OFFSET = 8e-3
# e**-x rounds to 0 in float64 beyond x = 1075 ln 2 (745.13): half the smallest subnormal
_UNDERFLOW_EXPONENT = 1075 * np.log(2.0)


@dataclass(frozen=True)
class DiffusionSchedule:
    """Variance schedule with cumulative products; arrays are 1-indexed by t."""

    total_steps: int
    betas: np.ndarray
    alpha_bars: np.ndarray

    def alpha_bar(self, t: int) -> float:
        """Cumulative signal fraction at step t; t = 0 returns exactly 1."""
        if not 0 <= t <= self.total_steps:
            raise ValueError(f"timestep {t} outside [0, {self.total_steps}]")
        return 1.0 if t == 0 else float(self.alpha_bars[t - 1])


def build_schedule(total_steps: int, kind: str = "linear") -> DiffusionSchedule:
    """Variance schedule of the given family over ``total_steps`` steps."""
    if total_steps < 1:
        raise ValueError(f"build_schedule: total_steps must be >= 1, got {total_steps}")
    if kind == "linear":
        # prod(1 - beta) <= exp(-sum(beta)), and the betas sum to T (beta_start + beta_end) / 2: past
        # the underflow exponent the product is 0, so refuse before allocating T entries
        if total_steps * (_BETA_START + _BETA_END) / 2 > _UNDERFLOW_EXPONENT:
            raise ValueError(f"build_schedule: cumulative products underflow to 0 within {total_steps} linear steps")
        betas = np.linspace(_BETA_START, _BETA_END, total_steps)
    elif kind == "cosine":
        s = _COSINE_OFFSET
        t = np.arange(total_steps + 1) / total_steps
        bars = np.cos((t + s) / (1 + s) * np.pi / 2) ** 2
        bars /= bars[0]
        betas = np.clip(1.0 - bars[1:] / bars[:-1], 1e-8, 0.999)
    else:
        raise ValueError(f"build_schedule: unknown kind {kind!r}, expected one of {SCHEDULE_KINDS}")
    alpha_bars = np.cumprod(1.0 - betas)
    if np.any(alpha_bars[1:] >= alpha_bars[:-1]):
        raise ValueError("build_schedule: cumulative products must be strictly decreasing")
    return DiffusionSchedule(total_steps, betas, alpha_bars)


def forward_diffuse(clean: np.ndarray, t: int, noise: np.ndarray, sched: DiffusionSchedule) -> np.ndarray:
    """Perturb clean data to step t: sqrt(abar_t) * clean + sqrt(1 - abar_t) * noise."""
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if clean.shape != noise.shape:
        raise ShapeError(f"forward_diffuse: shapes {clean.shape} and {noise.shape} differ")
    bar = sched.alpha_bar(t)
    return np.sqrt(bar) * clean + np.sqrt(1.0 - bar) * noise


def predict_eps(noisy: np.ndarray, clean_hat: np.ndarray, t: int, sched: DiffusionSchedule) -> np.ndarray:
    """Noise implied by a clean-sequence prediction at step t."""
    bar = sched.alpha_bar(t)
    if bar >= 1.0:
        raise ValueError(f"predict_eps: no noise component at t={t} (signal fraction is 1)")
    return (np.asarray(noisy, dtype=np.float64) - np.sqrt(bar) * clean_hat) / np.sqrt(1.0 - bar)


def ddim_sigma(alpha_bar_t: float, alpha_bar_prev: float) -> float:
    """Stochastic step width between two cumulative signal fractions."""
    return float(
        np.sqrt((1.0 - alpha_bar_prev) / (1.0 - alpha_bar_t))
        * np.sqrt(1.0 - alpha_bar_t / alpha_bar_prev)
    )


def ddim_step(
    noisy: np.ndarray,
    clean_hat: np.ndarray,
    t: int,
    t_prev: int,
    ddim_eta: float,
    rng: RngStream | None,
    sched: DiffusionSchedule,
) -> np.ndarray:
    """One reverse step from t to t_prev < t.

    ddim_eta in [0, 1] scales the stochastic width; 0 makes the step a pure
    function of its inputs. A slightly negative directional coefficient from
    floating-point rounding is clamped to 0 with a warning.
    """
    if not t_prev < t:
        raise ValueError(f"ddim_step: t_prev={t_prev} must be < t={t}")
    if not 0.0 <= ddim_eta <= 1.0:
        raise ValueError(f"ddim_step: ddim_eta must be in [0, 1], got {ddim_eta}")
    bar_t = sched.alpha_bar(t)
    bar_prev = sched.alpha_bar(t_prev)
    sigma = ddim_eta * ddim_sigma(bar_t, bar_prev)
    eps_hat = predict_eps(noisy, clean_hat, t, sched)
    coef = 1.0 - bar_prev - sigma * sigma
    if coef < 0.0:
        log.warning("ddim_step: clamping negative direction coefficient %.3e to 0", coef)
        coef = 0.0
    out = np.sqrt(bar_prev) * np.asarray(clean_hat, dtype=np.float64) + np.sqrt(coef) * eps_hat
    if sigma > 0.0:
        if rng is None:
            raise ValueError("ddim_step: stochastic step requires an RngStream")
        out = out + sigma * gaussian(rng, noisy.shape)
    return out


def timestep_for_iteration(k: int, iterations: int, total_steps: int) -> int:
    """Timestep after iteration k of the shrinking schedule; k = K gives 0.

    Half-up rounding in exact integer arithmetic keeps this platform-stable.
    """
    if not 1 <= k <= iterations:
        raise ValueError(f"iteration {k} outside [1, {iterations}]")
    return (2 * total_steps * (iterations - k) + iterations) // (2 * iterations)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.fx, self.fy, self.cx, self.cy))):
            raise ValueError(f"camera intrinsics must be finite, got ({self.fx}, {self.fy}, {self.cx}, {self.cy})")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"camera focal lengths must be positive, got ({self.fx}, {self.fy})")

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project (..., 3) points; callers must handle nonpositive depth and overflow to +-inf pixels."""
        points = np.asarray(points, dtype=np.float64)
        z = points[..., 2]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u = self.fx * points[..., 0] / z + self.cx
            v = self.fy * points[..., 1] / z + self.cy
        return np.stack([u, v], axis=-1)


def jpma_aggregate(poses: np.ndarray, keypoints_2d: np.ndarray, camera: CameraModel) -> np.ndarray:
    """Per joint and frame, keep the one of the (H, J, F, 3) hypotheses whose
    reprojection best matches the 2-D input; hypotheses behind the camera are
    disqualified, a reprojection error that overflows is inf (so it loses to any
    finite one), and a position with no finite error falls back to hypothesis 0.
    """
    poses = np.asarray(poses, dtype=np.float64)
    if poses.ndim != 4 or poses.shape[0] < 1:
        raise ShapeError(f"jpma_aggregate: expected (H, J, F, 3) hypotheses with H >= 1, got {poses.shape}")
    keypoints_2d = np.asarray(keypoints_2d, dtype=np.float64)
    if keypoints_2d.shape != poses.shape[1:3] + (2,):
        raise ShapeError(
            f"jpma_aggregate: keypoints {keypoints_2d.shape} do not match hypotheses {poses.shape}"
        )
    projected = camera.project(poses)  # (H, J, F, 2)
    with np.errstate(over="ignore"):  # an error past the float range is inf, so it loses to every finite one
        err = np.linalg.norm(projected - keypoints_2d[None], axis=-1)
    err = np.where(poses[..., 2] > 0, err, np.inf)
    best = np.argmin(err, axis=0)  # ties and all-inf both resolve to index 0
    j_idx, f_idx = np.meshgrid(np.arange(poses.shape[1]), np.arange(poses.shape[2]), indexing="ij")
    return poses[best, j_idx, f_idx]


def mpjpe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean per-joint Euclidean distance over joints and frames (mm)."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeError(f"mpjpe: shapes {pred.shape} and {gt.shape} differ")
    return float(np.linalg.norm(pred - gt, axis=-1).mean())
