"""Command-line front end: generate, infer, profile, verify.

Exit codes: 0 success, 1 pipeline stage failure (the stage is named on
stderr), 2 configuration error, 3 I/O error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import io as htp_io
from .config import ConfigError, RunConfig, load_config, load_generate_config
from .core import RngStream, gaussian
from .denoiser import (
    StageError,
    denoise_forward,
    init_params,
    load_denoiser_params,
    save_denoiser_params,
)
from .diffusion import (
    build_schedule,
    ddim_step,
    jpma_aggregate,
    mpjpe,
    timestep_for_iteration,
)
from .macs import mask_support_rows, profile_model
from .synthetic import MOTION_KINDS, generate_synthetic

EXIT_OK = 0
EXIT_STAGE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4

log = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="htp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic 3-D sequence and its 2-D projection")
    gen.add_argument("--config", help="JSON run config")
    gen.add_argument("--joints", type=int)
    gen.add_argument("--frames", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--kind", choices=MOTION_KINDS, default="walk_cycle")
    gen.add_argument("--noise-2d", type=float, default=0.0, help="pixel noise added to the projection")
    gen.add_argument("--out-3d", required=True)
    gen.add_argument("--out-2d", required=True)

    inf = sub.add_parser("infer", help="run the multi-hypothesis reverse chain on a 2-D sequence")
    inf.add_argument("--config", help="JSON run config")
    inf.add_argument("--in-2d", dest="input_2d", help="2-D keypoints CSV (overrides config input_2d)")
    inf.add_argument("--gt-3d", dest="input_gt",
                     help="optional ground-truth 3-D CSV for an MPJPE report (overrides config input_gt)")
    inf.add_argument("--out", dest="output_3d", help="output 3-D CSV (overrides config output_3d)")
    inf.add_argument("--H", type=int, dest="hypotheses", help="hypothesis count")
    inf.add_argument("--K", type=int, dest="iterations", help="reverse iterations")
    inf.add_argument("--T", type=int, dest="timesteps", help="diffusion timesteps")
    inf.add_argument("--eta-ddim", type=float, dest="ddim_eta", help="stochastic step scale in [0, 1]")
    inf.add_argument("--seed", type=int)
    inf.add_argument("--oracle-y0", help="bypass the network: denoiser returns this 3-D CSV")
    inf.add_argument("--params", help="load denoiser parameters from a checkpoint")
    inf.add_argument("--save-params", help="write the (seeded) denoiser parameters to a checkpoint")
    inf.add_argument("--emit-retained", help="write retained frame indices as a JSON array")
    inf.add_argument("--emit-mask", help="write the temporal mask as an HTP1 tensor")
    inf.add_argument("--time", action="store_true", help="report wall-clock FPS (informational)")

    prof = sub.add_parser("profile", help="print the analytic MACs report")
    prof.add_argument("--config", help="JSON run config")
    prof.add_argument("--H", type=int, dest="hypotheses")
    prof.add_argument("--K", type=int, dest="iterations")
    prof.add_argument("--json", dest="json_out", help="also write the report as JSON")

    ver = sub.add_parser("verify", help="run the full oracle and invariant suite")
    ver.add_argument("--seed", type=int, default=2024)
    return parser


def _config_from_args(args) -> RunConfig:
    """The run's config: the --config file with every RunConfig field given as a flag overriding it."""
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return load_config(args.config, overrides)


def _read_pose(path: str, field: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read a pose CSV that must have the given (J, F, width) shape; a mismatch is a config error."""
    pose = htp_io.read_pose_csv(path)
    if pose.shape != shape:
        raise ConfigError(f"{field}: {path} has shape {pose.shape}, config expects {shape}")
    return pose


def _check_outputs(*named_paths: tuple[str, str | None]) -> None:
    """Refuse, before any work, an output path that cannot be opened for writing: its directory must exist and
    the path must not be a directory. A failure is an I/O error (exit 3) that names the field."""
    for name, path in named_paths:
        if path and not Path(path).parent.is_dir():
            raise FileNotFoundError(f"{name}: directory of {path} does not exist")
        if path and Path(path).is_dir():
            raise IsADirectoryError(f"{name}: {path} is a directory")


def _cmd_generate(args) -> int:
    for name in ("out_3d", "out_2d"):  # required, so "" is not "not given" as for the optional paths
        if not getattr(args, name):
            raise ConfigError(f"{name}: no output path given")
    cfg = load_generate_config(args.config, {"joints": args.joints, "frames": args.frames, "seed": args.seed})
    if not (math.isfinite(args.noise_2d) and args.noise_2d >= 0.0):
        raise ConfigError(f"noise_2d: must be finite and >= 0 (got {args.noise_2d})")
    _check_outputs(("out_3d", args.out_3d), ("out_2d", args.out_2d))
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing pixel noise is reported below
            pose_3d, pose_2d = generate_synthetic(
                cfg.joints, cfg.frames, cfg.seed, args.kind, cfg.camera_model(), noise_2d=args.noise_2d
            )
    except MemoryError as exc:  # a (J, F) geometry numpy refuses to allocate
        raise ConfigError(f"joints, frames: cannot allocate ({cfg.joints}, {cfg.frames}) poses ({exc})") from None
    if not np.isfinite(pose_2d).all():  # before either file is opened, so a failure writes neither
        with np.errstate(over="ignore", invalid="ignore"):  # blame the noise only if the camera alone projects
            field = "noise_2d" if np.isfinite(cfg.camera_model().project(pose_3d)).all() else "camera"
        raise ConfigError(f"{field}: the generated poses project to non-finite pixels "
                          f"(camera {cfg.camera}, noise_2d {args.noise_2d})")
    htp_io.write_pose_csv(args.out_3d, pose_3d)
    htp_io.write_pose_csv(args.out_2d, pose_2d)
    print(f"generate: wrote {args.out_3d} and {args.out_2d} "
          f"(J={cfg.joints}, F={cfg.frames}, kind={args.kind}, seed={cfg.seed})")
    return EXIT_OK


def _cmd_infer(args) -> int:
    cfg = _config_from_args(args)
    if not cfg.input_2d:  # None or "": only the optional paths read "" as "not given"
        raise ConfigError("input_2d: no 2-D input file given (use --in-2d or config input_2d)")
    if not cfg.output_3d:
        raise ConfigError("output_3d: no output path given (use --out or config output_3d)")
    network_only = [name for name in ("params", "save_params", "emit_retained", "emit_mask") if getattr(args, name)]
    if args.oracle_y0 and network_only:
        raise ConfigError(f"{', '.join(network_only)}: not available with --oracle-y0 (the network never runs)")
    try:  # before any input is read, so an unusable step count costs nothing
        sched = build_schedule(cfg.timesteps, cfg.schedule)
    except (ValueError, MemoryError) as exc:  # underflowing products, or a step array too large to allocate
        raise ConfigError(f"timesteps: no {cfg.schedule} schedule over {cfg.timesteps} steps ({exc})") from None
    _check_outputs(("output_3d", cfg.output_3d), ("emit_retained", args.emit_retained),
                   ("emit_mask", args.emit_mask), ("save_params", args.save_params))

    keypoints = _read_pose(cfg.input_2d, "input_2d", (cfg.joints, cfg.frames, 2))
    shape = (cfg.joints, cfg.frames, 3)
    gt = _read_pose(cfg.input_gt, "input_gt", shape) if cfg.input_gt else None

    root = RngStream(cfg.seed)
    diagnostics: dict = {}

    if args.oracle_y0:
        oracle = _read_pose(args.oracle_y0, "oracle_y0", shape)

        def denoise(noisy, t, diag=None):
            return oracle
    else:
        if 2 <= cfg.frames <= cfg.corr_topk:  # once per run, not once per mask build
            log.warning("infer: clamping corr_topk=%d to %d for %d frames", cfg.corr_topk, cfg.frames - 1, cfg.frames)
        if args.params:
            params = load_denoiser_params(args.params, cfg)
        else:
            try:
                params = init_params(cfg, root.child(0).seed)
            except MemoryError as exc:  # a tensor numpy refuses to allocate, named by init_params
                raise ConfigError(f"parameters: cannot allocate {exc}") from None
        if args.save_params:
            save_denoiser_params(args.save_params, params)

        def denoise(noisy, t, diag=None):
            return denoise_forward(noisy, keypoints, t, cfg, params, diagnostics=diag)

    started = time.perf_counter()
    finals = []
    for h in range(cfg.hypotheses):
        stream = root.child(1 + h)
        current = gaussian(stream, shape)
        t = cfg.timesteps
        for k in range(1, cfg.iterations + 1):
            t_next = timestep_for_iteration(k, cfg.iterations, cfg.timesteps)
            is_last = h == 0 and k == cfg.iterations
            clean_hat = denoise(current, t, diagnostics if is_last else None)
            current = ddim_step(current, clean_hat, t, t_next, cfg.ddim_eta, stream, sched)
            t = t_next
        finals.append(current)
    elapsed = time.perf_counter() - started

    final = jpma_aggregate(np.stack(finals), keypoints, cfg.camera_model())
    htp_io.write_pose_csv(cfg.output_3d, final)
    print(f"infer: wrote {cfg.output_3d} (H={cfg.hypotheses}, K={cfg.iterations}, seed={cfg.seed})")

    if args.emit_retained:
        with open(args.emit_retained, "w") as fh:
            json.dump([int(i) for i in diagnostics["retained_indices"]], fh)
        print(f"infer: retained indices -> {args.emit_retained}")
    if args.emit_mask:
        htp_io.write_tensor(args.emit_mask, diagnostics["temporal_mask"])
        print(f"infer: temporal mask -> {args.emit_mask}")
    if gt is not None:
        print(f"infer: MPJPE vs {cfg.input_gt}: {mpjpe(final, gt):.6f} mm")
    if args.time:
        fps = cfg.frames / elapsed if elapsed > 0 else float("inf")
        print(f"infer: {elapsed:.2f}s sampling, {fps:.1f} frames/s (informational, hardware-dependent)")
    return EXIT_OK


def _cmd_profile(args) -> int:
    cfg = _config_from_args(args)
    _check_outputs(("json_out", args.json_out))
    report = profile_model(cfg, cfg.hypotheses, cfg.iterations, cfg.inference_sparse_blocks)
    print(report.format_table())
    if mask_support_rows(cfg.frames, cfg.corr_topk) == cfg.frames:
        print(
            f"temporal mask saturated: 2*min(corr_topk, F-1)+1 >= F={cfg.frames}, so masked "
            f"temporal attention costs as much as dense; the savings come only from pruning"
        )
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.as_json())
        print(f"profile: report -> {args.json_out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_all  # verify drives `infer` through main, so import it here, not at load

    RunConfig(seed=args.seed)  # a seed outside the config's range is refused as in a run config
    results = run_all(seed=args.seed, echo=True)
    failures = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"verify: {len(results) - len(failures)}/{len(results)} checks passed in {total:.1f}s")
    return EXIT_VERIFY if failures else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "infer": _cmd_infer,
        "profile": _cmd_profile,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"{args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (htp_io.FormatError, OSError) as exc:
        print(f"{args.command}: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except StageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
