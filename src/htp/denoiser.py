"""Full denoising network: embedding, spatial mixing, sparse temporal stack,
frame pruning, condensed refinement, and length-restoring cross attention.

The forward pass is a pure function of (inputs, config, params). A dense
reference path with no mask and no pruning backs the degenerate
equivalence checks.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from itertools import groupby
from time import perf_counter

import numpy as np

from . import io as htp_io
from .attention import (
    AttnWeights,
    CrossWeights,
    MlpWeights,
    attention_block,
    cross_mhsa,
    to_additive_mask,
)
from .core import RngStream, ShapeError, gelu, linear
from .mgptp import prune_frames
from .tcep import (
    chain_adjacency,
    frame_similarity,
    fuse_adjacency,
    select_topk_mask,
    tcep_refine,
)

# Human3.6M 17-joint skeleton (hip root, legs, spine/head, arms).
H36M_EDGES = (
    (0, 1), (1, 2), (2, 3),
    (0, 4), (4, 5), (5, 6),
    (0, 7), (7, 8), (8, 9), (9, 10),
    (8, 11), (11, 12), (12, 13),
    (8, 14), (14, 15), (15, 16),
)

TEMPORAL_GRAPHS = ("chain", "full")

# Values each declared config field type accepts; joint_adjacency is converted instead.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str, "dict": dict,
                "str | None": (str, type(None)), "int | None": (numbers.Integral, type(None))}

# Uniform draws per init_params thread; a config with fewer draws runs on the
# calling thread, with no pool. Two threads against one, measured at J=17,
# F=243, 4 blocks (2 cores, medians of alternating calls): 1.2-1.9x the time
# at 25k-345k draws, 0.93x at 763k, 0.59-0.70x from 1.3M up.
_DRAWS_PER_WORKER = 1 << 20

INPUT_WIDTH = 5  # 3-D pose concatenated with the 2-D keypoints
OUTPUT_WIDTH = 3


class StageError(RuntimeError):
    """A pipeline stage failed; the message carries the stage name."""


def skeleton_adjacency(joints: int) -> np.ndarray:
    """Default joint graph with self-loops: Human3.6M skeleton for 17 joints,
    a joint chain otherwise."""
    if joints != 17:
        return chain_adjacency(joints)
    adj = np.eye(joints)
    for a, b in H36M_EDGES:
        adj[a, b] = adj[b, a] = 1.0
    return adj


def normalize_adjacency(adj: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization D^-1/2 A D^-1/2 of a finite, symmetric
    matrix whose rows all have finite sums > 0; DenoiserConfig.problems reports
    its errors."""
    adj = np.asarray(adj, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"normalize_adjacency: expected square matrix, got {adj.shape}")
    if not np.isfinite(adj).all():
        raise ValueError("entries must be finite")
    if not np.array_equal(adj, adj.T):
        raise ValueError("must be symmetric")
    with np.errstate(over="ignore"):  # an overflowing sum is reported below, not warned about
        deg = adj.sum(axis=1)
    if not np.isfinite(deg).all():
        raise ValueError(f"row sums must be finite (rows {np.flatnonzero(~np.isfinite(deg)).tolist()} overflow)")
    if np.any(deg <= 0):
        raise ValueError(f"every row must sum to > 0 (rows {np.flatnonzero(deg <= 0).tolist()} do not)")
    inv_sqrt = 1.0 / np.sqrt(deg)
    return adj * inv_sqrt[:, None] * inv_sqrt[None, :]


class ConfigError(ValueError):
    """Invalid or unknown configuration content; message names the field."""


@dataclass(frozen=True)
class DenoiserConfig:
    joints: int = 17
    frames: int = 243
    embed_dim: int = 512
    keep_frames: int = 54
    corr_topk: int = 162
    blocks: int = 8
    sparse_blocks: int = 3
    heads: int = 8
    mlp_ratio: float = 6.0
    pool_threshold: float = 0.5
    knn_k: int = 5
    temporal_graph: str = "chain"
    recompute_mask_per_block: bool = False
    joint_adjacency: np.ndarray | None = None

    def __post_init__(self):
        problems = self.type_problems()
        if self.joint_adjacency is not None:
            try:
                object.__setattr__(self, "joint_adjacency", np.asarray(self.joint_adjacency, dtype=np.float64))
            except (ValueError, TypeError) as exc:  # a string, a ragged nesting, a non-number
                problems.append(f"joint_adjacency: must be a numeric ({self.joints}, {self.joints}) matrix ({exc})")
        problems = problems or self.problems()
        if problems:
            raise ConfigError("; ".join(problems))

    def type_problems(self) -> list[str]:
        """One message per field whose value is not of its declared type; only
        a bool field takes a bool (which Python counts as an int)."""
        problems = []
        for f in fields(self):
            value, allowed = getattr(self, f.name), _FIELD_TYPES.get(f.type)
            if allowed and (isinstance(value, bool) != (allowed is bool) or not isinstance(value, allowed)):
                problems.append(f"{f.name}: must be of type {f.type} (got {value!r})")
        return problems

    def problems(self) -> list[str]:
        """One message per violated constraint, each naming its field; the
        values must already have their declared types (type_problems)."""
        problems = []
        if self.joints < 1:
            problems.append(f"joints: must be >= 1 (got {self.joints})")
        if self.frames < 1:
            problems.append(f"frames: must be >= 1 (got {self.frames})")
        if not 1 <= self.keep_frames <= self.frames:
            problems.append(f"keep_frames: must be in [1, frames={self.frames}] (got {self.keep_frames})")
        if self.corr_topk < 1:
            problems.append(f"corr_topk: must be >= 1 (got {self.corr_topk})")
        if not 0 <= self.sparse_blocks <= self.blocks:
            problems.append(f"sparse_blocks: must be in [0, blocks={self.blocks}] (got {self.sparse_blocks})")
        if self.heads < 1:
            problems.append(f"heads: must be >= 1 (got {self.heads})")
        if self.embed_dim < 1 or self.embed_dim % max(self.heads, 1) != 0:
            problems.append(f"embed_dim: must be a positive multiple of heads={self.heads} (got {self.embed_dim})")
        if not math.isfinite(self.embed_dim * self.mlp_ratio) or self.mlp_hidden < 1:
            problems.append(f"mlp_ratio: hidden width must be finite and >= 1 (got ratio {self.mlp_ratio})")
        if not 0.0 < self.pool_threshold <= 1.0:
            problems.append(f"pool_threshold: must be in (0, 1] (got {self.pool_threshold})")
        if self.frames > 1 and not 1 <= self.knn_k <= self.frames - 1:
            problems.append(f"knn_k: must be in [1, frames-1={self.frames - 1}] (got {self.knn_k})")
        if self.temporal_graph not in TEMPORAL_GRAPHS:
            problems.append(f"temporal_graph: must be one of {TEMPORAL_GRAPHS} (got {self.temporal_graph!r})")
        adj = self.joint_adjacency
        if adj is None:
            return problems
        if adj.shape != (self.joints, self.joints):
            problems.append(f"joint_adjacency: must be a ({self.joints}, {self.joints}) matrix (got shape {adj.shape})")
        else:
            try:
                normalize_adjacency(adj)
            except ValueError as exc:
                problems.append(f"joint_adjacency: {exc}")
        return problems

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.embed_dim * self.mlp_ratio))

    def joint_graph(self) -> np.ndarray:
        if self.joint_adjacency is not None:
            return self.joint_adjacency
        return skeleton_adjacency(self.joints)

    def temporal_base(self) -> np.ndarray:
        if self.temporal_graph == "full":
            return np.ones((self.frames, self.frames))
        return chain_adjacency(self.frames)


@dataclass
class BlockParams:
    spatial_attn: AttnWeights
    spatial_mlp: MlpWeights
    temporal_attn: AttnWeights
    temporal_mlp: MlpWeights


@dataclass
class DenoiserParams:
    blocks: list[BlockParams]  # first, as in the table, so _leaves walks the arrays in table order
    embed_w: np.ndarray
    embed_b: np.ndarray
    gcn_w: np.ndarray
    spatial_pos: np.ndarray
    temporal_pos: np.ndarray
    entry_attn: AttnWeights
    entry_mlp: MlpWeights
    tcep_w: np.ndarray
    adj_learned: np.ndarray
    time_w1: np.ndarray
    time_b1: np.ndarray
    time_w2: np.ndarray
    time_b2: np.ndarray
    cross: CrossWeights
    head_w: np.ndarray
    head_b: np.ndarray


def _build_params(cfg: DenoiserConfig, tensor) -> DenoiserParams:
    """The one parameter table. Each array is ``tensor(name, shape, init)``:
    ``name`` is its checkpoint name, and ``init`` is an int fan-in for a drawn
    weight or a float constant fill. init_params draws the weights in call
    order (every block, then embedding to head) from one sequence, so a
    weight's offset into it is the element count of the weights called before
    it."""
    dim, hidden = cfg.embed_dim, cfg.mlp_hidden

    def projections(prefix: str) -> dict[str, np.ndarray]:
        return {w: tensor(f"{prefix}.{w}", (dim, dim), dim) for w in ("wq", "wk", "wv", "wo")}

    def norm(prefix: str, field: str = "ln") -> dict[str, np.ndarray]:
        return {f"{field}_scale": tensor(f"{prefix}.{field}_scale", (dim,), 1.0),
                f"{field}_shift": tensor(f"{prefix}.{field}_shift", (dim,), 0.0)}

    def attn(prefix: str) -> AttnWeights:
        return AttnWeights(**projections(prefix), heads=cfg.heads, **norm(prefix))

    def mlp(prefix: str) -> MlpWeights:
        return MlpWeights(
            w1=tensor(f"{prefix}.w1", (dim, hidden), dim),
            b1=tensor(f"{prefix}.b1", (hidden,), 0.0),
            w2=tensor(f"{prefix}.w2", (hidden, dim), hidden),
            b2=tensor(f"{prefix}.b2", (dim,), 0.0),
            **norm(prefix),
        )

    blocks = [
        BlockParams(
            spatial_attn=attn(f"block{i}.spatial.attn"),
            spatial_mlp=mlp(f"block{i}.spatial.mlp"),
            temporal_attn=attn(f"block{i}.temporal.attn"),
            temporal_mlp=mlp(f"block{i}.temporal.mlp"),
        )
        for i in range(cfg.blocks)
    ]
    return DenoiserParams(
        blocks=blocks,
        embed_w=tensor("embed.w", (INPUT_WIDTH, dim), INPUT_WIDTH),
        embed_b=tensor("embed.b", (dim,), 0.0),
        gcn_w=tensor("gcn.w", (dim, dim), dim),
        spatial_pos=tensor("pos.spatial", (cfg.joints, dim), dim),
        temporal_pos=tensor("pos.temporal", (cfg.frames, dim), dim),
        entry_attn=attn("entry.attn"),
        entry_mlp=mlp("entry.mlp"),
        tcep_w=tensor("tcep.w", (dim, dim), dim),
        adj_learned=tensor("tcep.adj_learned", (cfg.frames, cfg.frames), 0.0),
        time_w1=tensor("time.w1", (dim, dim), dim),
        time_b1=tensor("time.b1", (dim,), 0.0),
        time_w2=tensor("time.w2", (dim, dim), dim),
        time_b2=tensor("time.b2", (dim,), 0.0),
        cross=CrossWeights(**projections("cross"), heads=cfg.heads, **norm("cross", "ln_q"), **norm("cross", "ln_kv")),
        head_w=tensor("head.w", (dim, OUTPUT_WIDTH), dim),
        head_b=tensor("head.b", (OUTPUT_WIDTH,), 0.0),
    )


def init_params(cfg: DenoiserConfig, seed: int) -> DenoiserParams:
    """Seeded parameter set: uniform(+-1/sqrt(fan_in)) weights, drawn in table
    order from one Philox sequence of ``seed``, zero biases, zero learned
    temporal overlay.

    The draws run on min(usable cores, ceil(draws / _DRAWS_PER_WORKER))
    threads (see _init_params), with values that do not depend on the count.
    A tensor numpy cannot allocate raises MemoryError("<name> <shape>"): the
    first drawn one in table order, before any draw, else the first constant
    one.
    """
    return _init_params(cfg, seed, None)


def _init_params(cfg: DenoiserConfig, seed: int, workers: int | None) -> DenoiserParams:
    """init_params on ``workers`` threads (None: the count init_params uses).

    The drawn tensors are cut into contiguous runs of about equal draw count,
    and each run is drawn from a stream that starts at the run's offset into
    the sequence, tensor by tensor in table order, so the values are bitwise
    those of one sequential walk of the table. Each drawn tensor is first
    allocated and freed in table order, so a tensor numpy refuses raises before
    any run starts, as one sequential walk would stop at it. A single run is
    drawn in the calling thread, with no pool. The constants are filled in the
    calling thread, while the result is assembled, once every draw has
    succeeded.
    """
    drawn, draws = [], 0

    def collect(name: str, shape: tuple[int, ...], init: int | float) -> None:
        nonlocal draws
        if not isinstance(init, float):
            with _named_allocation(name, shape):  # np.empty touches no page
                np.empty(shape)
            drawn.append((draws, name, shape, init))
            draws += math.prod(shape)

    def assemble(name: str, shape: tuple[int, ...], init: int | float) -> np.ndarray:
        if not isinstance(init, float):
            return arrays[name]
        with _named_allocation(name, shape):  # np.zeros leaves the pages to the allocator: the (F, F) overlay costs no write
            return np.zeros(shape) if init == 0.0 else np.full(shape, init)

    _build_params(cfg, collect)
    if workers is None:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(cores, -(-draws // _DRAWS_PER_WORKER))
    runs = [list(run) for _, run in groupby(drawn, key=lambda entry: entry[0] * workers // draws)]
    if len(runs) == 1:
        arrays = _draw_run(seed, runs[0])
    else:
        arrays = {}
        with ThreadPoolExecutor(len(runs)) as pool:  # joins every worker on exit, also on a failure
            # results come in run order, so an error names the first failing tensor in table order
            for run_arrays in pool.map(lambda run: _draw_run(seed, run), runs):
                arrays.update(run_arrays)
    return _build_params(cfg, assemble)


def _draw_run(seed: int, run: list) -> dict[str, np.ndarray]:
    """Draw a contiguous run of ``(offset, name, shape, fan_in)`` table entries
    from one stream of ``seed`` started at the run's first offset."""
    rng = RngStream(seed, start=run[0][0])
    arrays = {}
    for _, name, shape, fan_in in run:
        bound = 1.0 / np.sqrt(fan_in)
        with _named_allocation(name, shape):
            arrays[name] = rng.uniform(-bound, bound, shape)
    return arrays


@contextmanager
def _named_allocation(name: str, shape: tuple[int, ...]):
    """Re-raise a MemoryError as MemoryError("<name> <shape>")."""
    try:
        yield
    except MemoryError:
        raise MemoryError(f"{name} {shape}") from None


def pose_embed(pose_3d: np.ndarray, keypoints_2d: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate 3-D and 2-D inputs per token and project to the model width."""
    pose_3d = np.asarray(pose_3d, dtype=np.float64)
    keypoints_2d = np.asarray(keypoints_2d, dtype=np.float64)
    if pose_3d.shape[:2] != keypoints_2d.shape[:2]:
        raise ShapeError(
            f"pose_embed: 3-D {pose_3d.shape} and 2-D {keypoints_2d.shape} disagree on (J, F)"
        )
    stacked = np.concatenate([pose_3d, keypoints_2d], axis=-1)
    return linear(stacked, w, b)


def spatial_gcn(tokens: np.ndarray, joint_adj: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One residual graph-convolution step over the joint axis, per frame."""
    norm = normalize_adjacency(joint_adj)
    mixed = np.einsum("ij,jfd->ifd", norm, tokens)
    return tokens + gelu(linear(mixed, w))


def spatial_mhsa(tokens: np.ndarray, attn: AttnWeights, mlp: MlpWeights) -> np.ndarray:
    """Dense attention + MLP over the joint axis, independently per frame.

    The block runs on the (F, J, D) view. It copies one chunk of frames at a
    time into contiguous memory, so no projection reads a strided view, and
    lays its result out like its input, so the (J, F, D) result is contiguous
    without a whole-array copy.
    """
    return np.ascontiguousarray(np.swapaxes(attention_block(np.swapaxes(tokens, 0, 1), None, attn, mlp), 0, 1))


def timestep_features(t: int, dim: int) -> np.ndarray:
    """Sinusoidal encoding of a timestep at the given width (sin half, cos half)."""
    if t < 0:
        raise ValueError(f"timestep_features: t must be >= 0, got {t}")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    angles = t * freqs
    feats = np.concatenate([np.sin(angles), np.cos(angles)])
    if dim % 2:
        feats = np.concatenate([feats, np.zeros(1)])
    return feats


def timestep_embedding(t: int, params: DenoiserParams) -> np.ndarray:
    """Sinusoid followed by affine -> GELU -> affine, ready to broadcast-add."""
    feats = timestep_features(t, params.time_w1.shape[0])
    return linear(gelu(linear(feats, params.time_w1, params.time_b1)), params.time_w2, params.time_b2)


@contextmanager
def _stage(name: str, seconds: dict | None):
    """Re-raise any failure in a pipeline stage as StageError("<name>: ...");
    record the stage's wall seconds under its name when ``seconds`` is a dict."""
    start = perf_counter() if seconds is not None else None
    try:
        yield
    except Exception as exc:
        raise StageError(f"{name}: {exc}") from exc
    if seconds is not None:
        seconds[name] = perf_counter() - start


def denoise_forward(
    noisy_pose: np.ndarray,
    keypoints_2d: np.ndarray,
    t: int,
    cfg: DenoiserConfig,
    params: DenoiserParams,
    diagnostics: dict | None = None,
) -> np.ndarray:
    """Predict the clean (J, F, 3) pose sequence from a noisy one, in the
    stages of ``macs.profile_model``. When ``diagnostics`` is a dict it
    receives the temporal mask, the retained frame indices and the wall
    seconds per stage (``stage_seconds``) of this call.
    """
    seconds = None if diagnostics is None else {}
    with _stage("pose_embed", seconds):
        stream = pose_embed(noisy_pose, keypoints_2d, params.embed_w, params.embed_b)
    with _stage("spatial_gcn", seconds):
        stream = spatial_gcn(stream, cfg.joint_graph(), params.gcn_w) + params.spatial_pos[:, None, :]
    with _stage("entry_spatial", seconds):
        stream = spatial_mhsa(stream, params.entry_attn, params.entry_mlp)
    with _stage("tcep", seconds):
        fused = fuse_adjacency(cfg.temporal_base(), params.adj_learned)
        stream, mask = tcep_refine(stream, fused, params.tcep_w, cfg.corr_topk)
        del fused
    with _stage("timestep_mlp", seconds):
        stream = stream + params.temporal_pos[None, :, :] + timestep_embedding(t, params)

    for i, block in enumerate(params.blocks[: cfg.sparse_blocks]):
        with _stage(f"block{i}_full", seconds):
            stream = spatial_mhsa(stream, block.spatial_attn, block.spatial_mlp)
            if cfg.recompute_mask_per_block:
                mask = add_mask = None  # free the previous block's pair before building the next
                mask = np.stack([select_topk_mask(frame_similarity(joint), cfg.corr_topk) for joint in stream])
            if i == 0 or cfg.recompute_mask_per_block:  # a fixed mask is converted once
                add_mask = to_additive_mask(mask)
            stream = attention_block(stream, add_mask, block.temporal_attn, block.temporal_mlp)
    add_mask = None  # the rest runs unmasked: free the (J, F, F) additive mask before MGPTP

    with _stage("mgptp", seconds):
        condensed, indices = prune_frames(stream, mask, cfg.pool_threshold, cfg.knn_k, cfg.keep_frames)
    for i, block in enumerate(params.blocks[cfg.sparse_blocks :], cfg.sparse_blocks):
        with _stage(f"block{i}_pruned", seconds):
            condensed = spatial_mhsa(condensed, block.spatial_attn, block.spatial_mlp)
            condensed = attention_block(condensed, None, block.temporal_attn, block.temporal_mlp)

    with _stage("cross_mhsa", seconds):
        restored = cross_mhsa(stream, condensed, params.cross)  # full-length queries, condensed keys
    with _stage("head", seconds):
        out = linear(restored, params.head_w, params.head_b)
        if not np.isfinite(out).all():  # stop here, not after a whole sampling chain on nan
            raise FloatingPointError("output is not finite")

    if diagnostics is not None:
        diagnostics.update(retained_indices=indices, temporal_mask=mask, stage_seconds=seconds)
    return out


def dense_reference_forward(
    noisy_pose: np.ndarray,
    keypoints_2d: np.ndarray,
    t: int,
    cfg: DenoiserConfig,
    params: DenoiserParams,
) -> np.ndarray:
    """Reference pipeline built from the same blocks with no mask and no
    pruning; used as the oracle for degenerate-setting equivalence."""
    stream = pose_embed(noisy_pose, keypoints_2d, params.embed_w, params.embed_b)
    stream = spatial_gcn(stream, cfg.joint_graph(), params.gcn_w)
    stream = stream + params.spatial_pos[:, None, :]
    stream = spatial_mhsa(stream, params.entry_attn, params.entry_mlp)

    fused = fuse_adjacency(cfg.temporal_base(), params.adj_learned)
    stream, _ = tcep_refine(stream, fused, params.tcep_w, cfg.frames)  # clamps to F - 1: every frame's neighbor
    stream = stream + params.temporal_pos[None, :, :]
    stream = stream + timestep_embedding(t, params)

    for block in params.blocks[: cfg.sparse_blocks]:
        stream = spatial_mhsa(stream, block.spatial_attn, block.spatial_mlp)
        stream = attention_block(stream, None, block.temporal_attn, block.temporal_mlp)

    skip = stream
    for block in params.blocks[cfg.sparse_blocks :]:
        stream = spatial_mhsa(stream, block.spatial_attn, block.spatial_mlp)
        stream = attention_block(stream, None, block.temporal_attn, block.temporal_mlp)

    restored = cross_mhsa(skip, stream, params.cross)
    return linear(restored, params.head_w, params.head_b)


def _leaves(tree) -> list:
    """Every non-container field of a parameter tree, depth first in declaration order."""
    if isinstance(tree, list):
        return [leaf for item in tree for leaf in _leaves(item)]
    if is_dataclass(tree):
        return [leaf for f in fields(tree) for leaf in _leaves(getattr(tree, f.name))]
    return [tree]


def _tensors_by_name(params: DenoiserParams) -> dict[str, np.ndarray]:
    """The arrays of ``params`` under their checkpoint names, in table order.

    Only the block count shapes the names, so the table is built with each
    array's name in its place and flattened alongside ``params``.
    """
    names = _build_params(DenoiserConfig(blocks=len(params.blocks), sparse_blocks=0), lambda name, shape, init: name)
    return {name: leaf for name, leaf in zip(_leaves(names), _leaves(params)) if isinstance(name, str)}


def save_denoiser_params(path, params: DenoiserParams) -> None:
    """Write all parameter tensors to a checkpoint container, in table order."""
    htp_io.save_checkpoint(path, _tensors_by_name(params))


def load_denoiser_params(path, cfg: DenoiserConfig) -> DenoiserParams:
    """Load a checkpoint and validate every tensor's shape against the config and
    its values as finite; the loaded arrays become the parameters, uncopied."""
    loaded = htp_io.load_checkpoint(path)
    expected = {}
    _build_params(cfg, lambda name, shape, init: expected.setdefault(name, shape))
    missing = sorted(set(expected) - set(loaded))
    extra = sorted(set(loaded) - set(expected))
    if missing or extra:
        raise htp_io.FormatError(f"{path}: checkpoint mismatch: missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if loaded[name].shape != shape:
            raise htp_io.FormatError(f"{path}: tensor {name}: shape {loaded[name].shape}, config expects {shape}")
        if not np.isfinite(loaded[name]).all():
            raise htp_io.FormatError(f"{path}: tensor {name}: non-finite values")
    return _build_params(cfg, lambda name, shape, init: loaded[name])
