"""Run configuration: JSON loading, strict validation, CLI overrides."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

from .denoiser import ConfigError, DenoiserConfig
from .diffusion import SCHEDULE_KINDS, CameraModel


_CAMERA_KEYS = ("fx", "fy", "cx", "cy")

DEFAULT_CAMERA = {"fx": 1145.0, "fy": 1145.0, "cx": 512.0, "cy": 512.0}


@dataclass(frozen=True)
class RunConfig(DenoiserConfig):
    """The architecture fields of DenoiserConfig plus sampling, camera and paths.

    Construction checks every field and raises one ConfigError naming each
    violated one; joint_adjacency may be given as nested lists.
    """

    # sampling
    hypotheses: int = 20
    iterations: int = 10
    timesteps: int = 1000
    ddim_eta: float = 1.0
    schedule: str = "linear"
    seed: int = 0
    # profiling; None lets macs.profile_model use min(2, blocks)
    inference_sparse_blocks: int | None = None
    # camera and paths
    camera: dict = field(default_factory=lambda: dict(DEFAULT_CAMERA))
    input_2d: str | None = None
    input_gt: str | None = None
    output_3d: str | None = None

    def problems(self) -> list[str]:
        problems = super().problems()
        if self.hypotheses < 1:
            problems.append(f"hypotheses: must be >= 1 (got {self.hypotheses})")
        if self.iterations < 1:
            problems.append(f"iterations: must be >= 1 (got {self.iterations})")
        if self.timesteps < 1:
            problems.append(f"timesteps: must be >= 1 (got {self.timesteps})")
        if 1 <= self.timesteps < self.iterations:
            problems.append(f"iterations: must be <= timesteps={self.timesteps} (got {self.iterations})")
        if not 0.0 <= self.ddim_eta <= 1.0:
            problems.append(f"ddim_eta: must be in [0, 1] (got {self.ddim_eta})")
        if self.schedule not in SCHEDULE_KINDS:
            problems.append(f"schedule: must be one of {SCHEDULE_KINDS} (got {self.schedule!r})")
        if self.inference_sparse_blocks is not None and not 0 <= self.inference_sparse_blocks <= self.blocks:
            problems.append(
                f"inference_sparse_blocks: must be in [0, blocks={self.blocks}] "
                f"(got {self.inference_sparse_blocks})"
            )
        unknown_cam = sorted(set(self.camera) - set(_CAMERA_KEYS))
        missing_cam = sorted(set(_CAMERA_KEYS) - set(self.camera))
        if unknown_cam or missing_cam:
            problems.append(f"camera: unknown keys {unknown_cam}, missing keys {missing_cam}")
        elif not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in self.camera.values()):
            problems.append(f"camera: intrinsics must be numbers (got {self.camera})")
        else:
            try:
                self.camera_model()
            except ValueError as exc:
                problems.append(f"camera: {exc}")
        return problems

    def denoiser_config(self) -> DenoiserConfig:
        return DenoiserConfig(**{f.name: getattr(self, f.name) for f in fields(DenoiserConfig)})

    def camera_model(self) -> CameraModel:
        return CameraModel(**{k: float(self.camera[k]) for k in _CAMERA_KEYS})


GENERATE_FIELDS = ("joints", "frames", "seed", "camera")


@dataclass(frozen=True)
class GenerateConfig(RunConfig):
    """The RunConfig fields `htp generate` reads, checked with RunConfig's messages.

    Every other field keeps its default and goes unchecked, so a geometry that
    only the network constrains (say frames < keep_frames) is no reason to refuse.
    """

    def problems(self) -> list[str]:
        return [p for p in super().problems() if p.split(":", 1)[0] in GENERATE_FIELDS]


def _config_data(path: str | Path | None, overrides: dict | None) -> dict:
    """The JSON file's object with the non-None overrides on top; malformed
    JSON and unknown keys are ConfigErrors."""
    data: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
    if overrides:
        data = {**data, **{k: v for k, v in overrides.items() if v is not None}}

    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return data


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus overrides (flags win).

    Unknown keys are rejected; every violated constraint is reported with its
    field name.
    """
    return RunConfig(**_config_data(path, overrides))


def load_generate_config(path: str | Path | None = None, overrides: dict | None = None) -> GenerateConfig:
    """load_config for `htp generate`: the same keys are refused, but only the
    GENERATE_FIELDS are taken and checked."""
    return GenerateConfig(**{k: v for k, v in _config_data(path, overrides).items() if k in GENERATE_FIELDS})
