"""Full denoising network: embedding, spatial mixing, sparse temporal stack,
frame pruning, condensed refinement, and length-restoring cross attention.

The forward pass is a pure function of (inputs, config, params). A dense
reference path with no mask and no pruning backs the degenerate
equivalence checks.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, fields
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
    matrix whose rows all sum to > 0; DenoiserConfig.problems reports its errors."""
    adj = np.asarray(adj, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"normalize_adjacency: expected square matrix, got {adj.shape}")
    if not np.isfinite(adj).all():
        raise ValueError("entries must be finite")
    if not np.array_equal(adj, adj.T):
        raise ValueError("must be symmetric")
    deg = adj.sum(axis=1)
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
    blocks: list[BlockParams]
    cross: CrossWeights
    head_w: np.ndarray
    head_b: np.ndarray


def _init_attn(draw, dim: int, heads: int) -> AttnWeights:
    return AttnWeights(
        wq=draw((dim, dim), dim),
        wk=draw((dim, dim), dim),
        wv=draw((dim, dim), dim),
        wo=draw((dim, dim), dim),
        heads=heads,
        ln_scale=np.ones(dim),
        ln_shift=np.zeros(dim),
    )


def _init_mlp(draw, dim: int, hidden: int) -> MlpWeights:
    return MlpWeights(
        w1=draw((dim, hidden), dim),
        b1=np.zeros(hidden),
        w2=draw((hidden, dim), hidden),
        b2=np.zeros(dim),
        ln_scale=np.ones(dim),
        ln_shift=np.zeros(dim),
    )


def _build_params(cfg: DenoiserConfig, draw) -> DenoiserParams:
    """The one table of parameter shapes: every weight comes from
    ``draw(shape, fan_in)`` in a fixed order; biases, norms and the learned
    temporal overlay start at their constants."""
    dim, hidden = cfg.embed_dim, cfg.mlp_hidden
    blocks = []
    for _ in range(cfg.blocks):
        blocks.append(
            BlockParams(
                spatial_attn=_init_attn(draw, dim, cfg.heads),
                spatial_mlp=_init_mlp(draw, dim, hidden),
                temporal_attn=_init_attn(draw, dim, cfg.heads),
                temporal_mlp=_init_mlp(draw, dim, hidden),
            )
        )
    return DenoiserParams(
        embed_w=draw((INPUT_WIDTH, dim), INPUT_WIDTH),
        embed_b=np.zeros(dim),
        gcn_w=draw((dim, dim), dim),
        spatial_pos=draw((cfg.joints, dim), dim),
        temporal_pos=draw((cfg.frames, dim), dim),
        entry_attn=_init_attn(draw, dim, cfg.heads),
        entry_mlp=_init_mlp(draw, dim, hidden),
        tcep_w=draw((dim, dim), dim),
        adj_learned=np.zeros((cfg.frames, cfg.frames)),
        time_w1=draw((dim, dim), dim),
        time_b1=np.zeros(dim),
        time_w2=draw((dim, dim), dim),
        time_b2=np.zeros(dim),
        blocks=blocks,
        cross=CrossWeights(
            wq=draw((dim, dim), dim),
            wk=draw((dim, dim), dim),
            wv=draw((dim, dim), dim),
            wo=draw((dim, dim), dim),
            heads=cfg.heads,
            ln_q_scale=np.ones(dim),
            ln_q_shift=np.zeros(dim),
            ln_kv_scale=np.ones(dim),
            ln_kv_shift=np.zeros(dim),
        ),
        head_w=draw((dim, OUTPUT_WIDTH), dim),
        head_b=np.zeros(OUTPUT_WIDTH),
    )


def init_params(cfg: DenoiserConfig, seed: int) -> DenoiserParams:
    """Seeded parameter set: uniform(+-1/sqrt(fan_in)) weights, zero biases,
    zero learned temporal overlay."""
    rng = RngStream(seed)

    def draw(shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, shape)

    return _build_params(cfg, draw)


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


def _named_tensors(params: DenoiserParams) -> dict[str, np.ndarray]:
    out = {
        "embed.w": params.embed_w,
        "embed.b": params.embed_b,
        "gcn.w": params.gcn_w,
        "pos.spatial": params.spatial_pos,
        "pos.temporal": params.temporal_pos,
        "tcep.w": params.tcep_w,
        "tcep.adj_learned": params.adj_learned,
        "time.w1": params.time_w1,
        "time.b1": params.time_b1,
        "time.w2": params.time_w2,
        "time.b2": params.time_b2,
        "head.w": params.head_w,
        "head.b": params.head_b,
    }
    groups = [("entry.attn", params.entry_attn), ("entry.mlp", params.entry_mlp)]
    for i, blk in enumerate(params.blocks):
        groups += [
            (f"block{i}.spatial.attn", blk.spatial_attn),
            (f"block{i}.spatial.mlp", blk.spatial_mlp),
            (f"block{i}.temporal.attn", blk.temporal_attn),
            (f"block{i}.temporal.mlp", blk.temporal_mlp),
        ]
    groups.append(("cross", params.cross))
    for prefix, weights in groups:  # every array field, in declaration order
        for f in fields(weights):
            value = getattr(weights, f.name)
            if isinstance(value, np.ndarray):
                out[f"{prefix}.{f.name}"] = value
    return out


def save_denoiser_params(path, params: DenoiserParams) -> None:
    """Write all parameter tensors to a checkpoint container."""
    htp_io.save_checkpoint(path, _named_tensors(params))


def load_denoiser_params(path, cfg: DenoiserConfig) -> DenoiserParams:
    """Load a checkpoint and validate every tensor's shape against the config and its values as finite."""
    loaded = htp_io.load_checkpoint(path)
    template = _build_params(cfg, lambda shape, fan_in: np.empty(shape))  # every tensor is overwritten below
    expected = _named_tensors(template)
    missing = sorted(set(expected) - set(loaded))
    extra = sorted(set(loaded) - set(expected))
    if missing or extra:
        raise htp_io.FormatError(f"{path}: checkpoint mismatch: missing {missing}, unexpected {extra}")
    for name, arr in expected.items():
        if loaded[name].shape != arr.shape:
            raise htp_io.FormatError(f"{path}: tensor {name}: shape {loaded[name].shape}, config expects {arr.shape}")
        if not np.isfinite(loaded[name]).all():
            raise htp_io.FormatError(f"{path}: tensor {name}: non-finite values")
        arr[...] = loaded[name]
    return template
