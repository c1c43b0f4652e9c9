"""Benchmark workloads, their seeded inputs, and the checks on every output.

Each workload runs two cases: the reference case, drawn from REFERENCE_SEED
and compared with the outputs committed under ``reference/``, and the seed
case, drawn from the ``--seed`` argument and checked for validity and for
run-to-run determinism. Operations alternate between the two cases, reference
first. The program receives only the generated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from htp import io as htp_io
from htp.config import load_config
from htp.core import RngStream, gaussian
from htp.synthetic import generate_synthetic

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
TIMESTEPS = 1000
# Largest deviation from a committed reference pose, relative to the
# reference's largest magnitude. Float64 reorderings of the same arithmetic
# stay near 1e-13; a changed algorithm does not.
POSE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # RunConfig keys: geometry plus hypotheses and iterations
    kind: str  # synthetic motion kind
    noise_2d: float  # pixel noise on the 2-D projection
    # An untraced run is `rounds` rounds, each one infer followed by at least
    # `min_forwards_per_round` units of (`setups_per_forward` set-ups, one
    # forward); more units fill the round's share of the run's seconds.
    rounds: int
    min_forwards_per_round: int
    setups_per_forward: int
    traced_forwards: int


# Why each workload exists is in README.md and BENCHMARK.json.
_SMALL = {"embed_dim": 64, "blocks": 4, "sparse_blocks": 2, "heads": 2, "mlp_ratio": 2.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_default",
            {"hypotheses": 1, "iterations": 1},
            "walk_cycle", 0.0, rounds=1, min_forwards_per_round=2, setups_per_forward=2, traced_forwards=1,
        ),
        Workload(
            "smoke_infer",
            {**_SMALL, "hypotheses": 4, "iterations": 5},
            "walk_cycle", 0.0, rounds=2, min_forwards_per_round=5, setups_per_forward=2, traced_forwards=4,
        ),
        Workload(
            "long_sparse",
            {**_SMALL, "frames": 729, "keep_frames": 162, "corr_topk": 8,
             "recompute_mask_per_block": True, "hypotheses": 1, "iterations": 1},
            "random_smooth", 2.0, rounds=3, min_forwards_per_round=1, setups_per_forward=8, traced_forwards=2,
        ),
    )
}


@dataclass
class Case:
    """One seeded input set, written where `htp infer` reads it."""

    seed: int
    config_path: Path
    obs_path: Path
    keypoints: np.ndarray  # (J, F, 2)
    noisy: np.ndarray  # (J, F, 3) direct-forward input at t = TIMESTEPS
    weight_seed: int  # the seed infer derives its weights from


def run_config(wl: Workload, seed: int) -> dict:
    return {**wl.config, "timesteps": TIMESTEPS, "seed": seed}


def make_case(wl: Workload, seed: int, workdir: Path) -> Case:
    workdir.mkdir(parents=True, exist_ok=True)
    values = run_config(wl, seed)
    cfg = load_config(None, values)
    _, keypoints = generate_synthetic(
        cfg.joints, cfg.frames, seed, wl.kind, cfg.camera_model(), noise_2d=wl.noise_2d
    )
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(values))
    obs_path = workdir / "obs.csv"
    htp_io.write_pose_csv(obs_path, keypoints)
    root = RngStream(seed)
    # The first draw of hypothesis 0 in `htp infer`, so a direct forward sees
    # the same kind of input as the first step of the chain.
    noisy = gaussian(root.child(1), (cfg.joints, cfg.frames, 3))
    return Case(seed, config_path, obs_path, keypoints, noisy, root.child(0).seed)


def read_csv_pose(path: Path, width: int) -> np.ndarray:
    """Parse a dense frame,joint pose CSV without going through htp."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != 2 + width:
        raise ValueError(f"{path.name}: {table.shape[1]} columns, expected {2 + width}")
    frames = int(table[:, 0].max()) + 1
    joints = int(table[:, 1].max()) + 1
    out = np.full((joints, frames, width), np.nan)
    out[table[:, 1].astype(int), table[:, 0].astype(int)] = table[:, 2:]
    return out


def check_pose(pose, shape: tuple[int, ...]) -> list[str]:
    pose = np.asarray(pose)
    if pose.shape != shape:
        return [f"pose shape {pose.shape}, expected {shape}"]
    if not np.isfinite(pose).all():
        return [f"{int(np.size(pose) - np.isfinite(pose).sum())} non-finite pose values"]
    return []


def check_retained(indices, frames: int, keep: int) -> list[str]:
    if indices is None:
        return ["retained indices missing"]
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size != keep:
        return [f"retained indices shape {idx.shape}, expected ({keep},)"]
    if not np.issubdtype(idx.dtype, np.integer):
        return [f"retained indices dtype {idx.dtype} is not integer"]
    if np.any(np.diff(idx) <= 0):
        return ["retained indices not strictly increasing"]
    if idx.size and (idx[0] < 0 or idx[-1] >= frames):
        return [f"retained indices outside [0, {frames})"]
    return []


def compare_pose(pose, ref) -> list[str]:
    scale = float(np.max(np.abs(ref))) or 1.0
    dev = float(np.max(np.abs(np.asarray(pose) - ref))) / scale
    return [] if dev <= POSE_RTOL else [f"pose deviates from reference by {dev:.3e} > {POSE_RTOL:.0e} (relative)"]


def compare_retained(indices, ref) -> list[str]:
    return [] if np.array_equal(np.asarray(indices), ref) else ["retained indices differ from reference"]


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.npz"


def load_reference(wl: Workload) -> dict[str, np.ndarray]:
    with np.load(reference_path(wl)) as data:
        return {k: data[k] for k in data.files}


def save_reference(wl: Workload, arrays: dict[str, np.ndarray]) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = reference_path(wl)
    np.savez_compressed(path, **arrays)
    return path
