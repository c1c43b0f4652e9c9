"""Analytic multiply-accumulate accounting for every pipeline stage.

Conventions: one MAC is one multiply-accumulate; biases, softmax, LayerNorm,
GELU, and pooling count as zero. All counts are exact integers. Masked
temporal attention and the TCEP frame mix are charged F * min(2 * min(top_k,
F-1) + 1, F) admitted pairs per joint, the upper bound on the total support of
the symmetrized top-k mask (a single row may reach F). It saturates to dense
at the default neighbor budget; callers profiling a concrete mask can pass the
measured support instead. Each mask build charges its J * F^2 * D frame
similarity: once in TCEP, and once more per masked block when
recompute_mask_per_block is on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .denoiser import DenoiserConfig

GIGA = 10**9


def macs_linear(tokens: int, d_in: int, d_out: int) -> int:
    """Affine-map MACs: tokens * d_in * d_out (biases excluded)."""
    if tokens < 0 or d_in < 0 or d_out < 0:
        raise ValueError("macs_linear: arguments must be nonnegative")
    return tokens * d_in * d_out


def macs_attention(seq: int, batch_rows: int, dim: int, heads: int, support_total: int | None = None) -> int:
    """Attention MACs: four projections plus score and context terms.

    support_total is the number of admitted (query, key) pairs summed over
    the batch; None means dense, i.e. batch_rows * seq**2.
    """
    if dim % heads != 0:
        raise ValueError(f"macs_attention: dim {dim} not divisible by {heads} heads")
    if support_total is None:
        support_total = batch_rows * seq * seq
    head_dim = dim // heads
    projections = 4 * macs_linear(batch_rows * seq, dim, dim)
    scores = support_total * head_dim * heads
    context = support_total * head_dim * heads
    return projections + scores + context


def macs_ffn(tokens: int, dim: int, hidden: int) -> int:
    return macs_linear(tokens, dim, hidden) + macs_linear(tokens, hidden, dim)


def mask_support_rows(frames: int, top_k: int) -> int:
    """Mean row support bound of the symmetrized top-k temporal mask.

    F times this caps the total support per joint (F*k directed picks, at most
    doubled by the transpose, plus the diagonal). It is not a per-row bound:
    a hub frame that every other row picks has support F.
    """
    if frames < 2:
        return frames
    k = min(top_k, frames - 1)
    return min(2 * k + 1, frames)


def _walk_stages(cfg: DenoiserConfig) -> list[tuple[str, int]]:
    """Stage-by-stage MAC counts of one config's forward pass."""
    j, frames, dim = cfg.joints, cfg.frames, cfg.embed_dim
    hidden, kept = cfg.mlp_hidden, cfg.keep_frames
    support_rows = mask_support_rows(frames, cfg.corr_topk)

    def spatial(n: int) -> int:  # attention over the J joints of each of n frames, then the FFN
        return macs_attention(j, n, dim, cfg.heads) + macs_ffn(j * n, dim, hidden)

    def temporal(n: int, support: int | None = None) -> int:  # attention over n frames per joint, then the FFN
        return macs_attention(n, j, dim, cfg.heads, support_total=support) + macs_ffn(j * n, dim, hidden)

    similarity = j * frames * frames * dim
    tcep_mix = j * frames * support_rows * dim  # the mix, like masked attention, at the support bound
    refresh = similarity if cfg.recompute_mask_per_block else 0
    full = refresh + spatial(frames) + temporal(frames, j * frames * support_rows)
    pruned = spatial(kept) + temporal(kept)
    cross = (
        2 * macs_linear(j * frames, dim, dim)      # query and output projections
        + 2 * macs_linear(j * kept, dim, dim)      # key and value projections
        + 2 * j * frames * kept * dim              # scores and context
    )
    return [
        ("pose_embed", macs_linear(j * frames, 5, dim)),
        ("spatial_gcn", frames * j * j * dim + macs_linear(j * frames, dim, dim)),
        ("entry_spatial", spatial(frames)),
        ("tcep", similarity + tcep_mix + macs_linear(j * frames, dim, dim)),
        ("timestep_mlp", 2 * dim * dim),
        *[(f"block{i}_full", full) for i in range(cfg.sparse_blocks)],
        ("mgptp", frames * frames * dim),
        *[(f"block{i}_pruned", pruned) for i in range(cfg.sparse_blocks, cfg.blocks)],
        ("cross_mhsa", cross),
        ("head", macs_linear(j * frames, dim, 3)),
    ]


@dataclass(frozen=True)
class MacsReport:
    stages: tuple[tuple[str, int], ...]
    single_pass_total: int
    train_macs_per_frame_g: float
    hypotheses: int
    iterations: int
    inference_sparse_blocks: int
    inference_single_pass: int
    inference_total: int
    dense_single_pass: int
    dense_inference_total: int
    reduction_vs_dense: float
    inference_reduction: float

    def as_dict(self) -> dict:
        data = asdict(self)
        data["stages"] = [{"stage": name, "macs": count} for name, count in self.stages]
        return {
            "convention": "MAC = multiply-accumulate; biases/softmax/LayerNorm/GELU excluded; "
            "masked attention counted at the symmetrized support bound",
            **data,
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def format_table(self) -> str:
        width = max(len(name) for name, _ in self.stages)
        lines = [f"{'stage':<{width}}  {'MACs':>16}  {'G':>9}"]
        for name, count in self.stages:
            lines.append(f"{name:<{width}}  {count:>16,}  {count / GIGA:>9.3f}")
        lines.append("-" * len(lines[0]))
        lines.append(f"{'single pass':<{width}}  {self.single_pass_total:>16,}  {self.single_pass_total / GIGA:>9.3f}")
        lines.append(f"{'dense single pass':<{width}}  {self.dense_single_pass:>16,}  {self.dense_single_pass / GIGA:>9.3f}")
        lines.append(
            f"train per frame: {self.train_macs_per_frame_g:.3f}G | single-pass vs dense: "
            f"{self.reduction_vs_dense:.4f}"
        )
        lines.append(
            f"inference (H={self.hypotheses}, K={self.iterations}, "
            f"sparse blocks={self.inference_sparse_blocks}): {self.inference_total / GIGA:.1f}G "
            f"vs dense {self.dense_inference_total / GIGA:.1f}G "
            f"({100 * self.inference_reduction:.1f}% reduction)"
        )
        return "\n".join(lines)


def profile_model(
    cfg: DenoiserConfig,
    hypotheses: int,
    iterations: int,
    inference_sparse_blocks: int | None = None,
) -> MacsReport:
    """Walk three configs analytically and assemble the cost report.

    The training-style single pass walks cfg; the inference pass walks cfg
    with ``inference_sparse_blocks`` masked blocks (default min(2, blocks),
    the deployment setting), and its totals scale exactly by hypotheses *
    iterations. The dense baseline walks criterion 6's degenerate config:
    every frame kept, a saturated mask and no per-block refresh.
    """
    if hypotheses < 1 or iterations < 1:
        raise ValueError("profile_model: hypotheses and iterations must be >= 1")
    if inference_sparse_blocks is None:
        inference_sparse_blocks = min(2, cfg.blocks)
    if not 0 <= inference_sparse_blocks <= cfg.blocks:
        raise ValueError(
            f"profile_model: inference_sparse_blocks must be in [0, {cfg.blocks}], got {inference_sparse_blocks}"
        )

    train_stages = _walk_stages(cfg)
    single_pass = sum(c for _, c in train_stages)
    inference_single = sum(c for _, c in _walk_stages(replace(cfg, sparse_blocks=inference_sparse_blocks)))
    dense_cfg = replace(cfg, keep_frames=cfg.frames, corr_topk=cfg.frames, recompute_mask_per_block=False)
    dense_single = sum(c for _, c in _walk_stages(dense_cfg))

    passes = hypotheses * iterations
    inference_total = inference_single * passes
    dense_inference_total = dense_single * passes
    return MacsReport(
        stages=tuple(train_stages),
        single_pass_total=single_pass,
        train_macs_per_frame_g=single_pass / cfg.frames / GIGA,
        hypotheses=hypotheses,
        iterations=iterations,
        inference_sparse_blocks=inference_sparse_blocks,
        inference_single_pass=inference_single,
        inference_total=inference_total,
        dense_single_pass=dense_single,
        dense_inference_total=dense_inference_total,
        reduction_vs_dense=single_pass / dense_single,
        inference_reduction=1.0 - inference_total / dense_inference_total,
    )
