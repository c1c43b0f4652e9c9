"""Temporal correlation mask construction and token refinement.

Per joint, frames are scored by scaled dot-product similarity, each frame
keeps its top-k most correlated neighbors, and the directed selection is
symmetrized (logical OR) with self-loops restored. The resulting boolean
mask gates a softmax-normalized similarity that is fused with a shared
temporal adjacency to refine the tokens in place of dense temporal mixing.
"""

from __future__ import annotations

import numpy as np

from .core import NEG_INF, ShapeError, admitted_pairs, gelu, linear, softmax_rows, sparse_mix, sparse_route


def chain_adjacency(n: int) -> np.ndarray:
    """Temporal chain graph: self-loops plus +-1 frame neighbors."""
    adj = np.eye(n)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = 1.0
    adj[idx + 1, idx] = 1.0
    return adj


def fuse_adjacency(base: np.ndarray, learned: np.ndarray) -> np.ndarray:
    """Symmetrize the sum of the base graph and the learned overlay."""
    base = np.asarray(base, dtype=np.float64)
    learned = np.asarray(learned, dtype=np.float64)
    if base.shape != learned.shape or base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ShapeError(f"fuse_adjacency: shapes {base.shape} and {learned.shape} must be equal square")
    combined = base + learned
    return (combined + combined.T) / 2.0


def frame_similarity(tokens: np.ndarray) -> np.ndarray:
    """Scaled frame-by-frame similarity: one (F, F) matrix per (F, D) slice of (..., F, D) tokens.

    Exactly symmetric in one pass (``htp verify`` checks it bitwise): on contiguous tokens numpy runs
    a @ a^T as BLAS syrk, which mirrors its triangle; a large strided operand would run as gemm, which does not.
    """
    tokens = np.ascontiguousarray(tokens, dtype=np.float64)
    if tokens.ndim < 2:
        raise ShapeError(f"frame_similarity: expected (..., F, D), got {tokens.shape}")
    gram = tokens @ np.swapaxes(tokens, -1, -2)
    gram /= np.sqrt(tokens.shape[-1])
    return gram


def select_topk_mask(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Boolean (F, F) frame mask of one (F, F) score matrix: self-loops plus OR-symmetrized per-row top-k selection.

    The diagonal is suppressed during selection; ties break toward the lower
    frame index (stable sort). top_k >= F clamps silently to F - 1 (``htp
    infer`` reports the clamp once per run).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ShapeError(f"select_topk_mask: expected one (F, F) matrix, got {scores.shape}")
    if top_k < 1:
        raise ValueError(f"select_topk_mask: top_k must be >= 1, got {top_k}")
    frames = scores.shape[0]
    if frames < 2:
        return np.ones(scores.shape, dtype=bool)
    k = min(top_k, frames - 1)

    diag = np.arange(frames)
    negated = np.negative(scores)  # ascending negated scores are descending scores
    negated[diag, diag] = np.inf  # never pick self
    negated.partition(k - 1, axis=-1)
    kth = negated[:, k - 1 : k]
    # negated <= kth in one pass over the scores (negation is exact); self is picked only when kth is inf
    directed = scores >= -kth
    directed[diag, diag] = kth[:, 0] == np.inf
    # a row has k picks, more on ties with its k-th value, or (NaN k-th value) none
    if np.count_nonzero(directed) > frames * k or np.isnan(kth).any():
        surplus = np.flatnonzero(np.count_nonzero(directed, axis=-1) > k)
        sub, bound = np.negative(scores[surplus]), kth[surplus]
        sub[np.arange(surplus.size), surplus] = np.nan  # self neither ties with an inf bound nor counts below it
        ties = sub == bound
        short = k - np.count_nonzero(sub < bound, axis=-1, keepdims=True)
        directed[surplus] &= ~ties | (np.cumsum(ties, axis=-1) <= short)  # the lower-index ties only

    mask = directed | directed.T
    mask[diag, diag] = True
    return mask


def tcep_refine(
    tokens: np.ndarray, fused: np.ndarray, weight: np.ndarray, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Refine (J, F, D) tokens and emit the per-joint boolean temporal mask.

    For each joint: gate the softmax of the masked similarity with the fused
    (F, F) adjacency, mix frames through it, project with the shared (D, D)
    weight, and add the GELU of the update back onto the input tokens. Each
    joint keeps top_k neighbors per frame (clamped silently to F - 1 by
    select_topk_mask); its similarity and mask are built and used in turn; when
    core.sparse_route finds a joint's mask sparse, core.sparse_mix softmaxes,
    gates and mixes only its admitted pairs.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 3:
        raise ShapeError(f"tcep_refine: expected (J, F, D) tokens, got {tokens.shape}")
    joints, frames, dim = tokens.shape
    if np.shape(fused) != (frames, frames):
        raise ShapeError(f"tcep_refine: adjacency {np.shape(fused)} does not match {frames} frames")
    if np.shape(weight) != (dim, dim):
        raise ShapeError(f"tcep_refine: weight {np.shape(weight)} does not match feature dim {dim}")

    mask = np.empty((joints, frames, frames), dtype=bool)
    mixed = np.empty(tokens.shape)
    for j in range(joints):  # one (F, F) similarity at a time, while it is in cache
        sim = frame_similarity(tokens[j])
        mask[j] = select_topk_mask(sim, top_k)
        if sparse_route(mask[j]):
            rows, cols, _ = pairs = admitted_pairs(mask[j])
            mixed[j] = sparse_mix(sim[rows, cols], pairs, tokens[j], fused)
        else:
            gated = np.where(mask[j], sim, NEG_INF)
            softmax_rows(gated, out=gated)
            gated *= fused
            mixed[j] = gated @ tokens[j]
    return tokens + gelu(linear(mixed, weight)), mask
