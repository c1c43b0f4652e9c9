"""Temporal correlation mask construction and token refinement.

Per joint, frames are scored by scaled dot-product similarity, each frame
keeps its top-k most correlated neighbors, and the directed selection is
symmetrized (logical OR) with self-loops restored. The resulting binary
mask gates a softmax-normalized similarity that is fused with a shared
temporal adjacency to refine the tokens in place of dense temporal mixing.
"""

from __future__ import annotations

import logging

import numpy as np

from .core import NEG_INF, ShapeError, gelu, softmax_rows

log = logging.getLogger(__name__)


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
    """Scaled frame-by-frame similarity: one (F, F) matrix per (F, D) slice of (..., F, D) tokens."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim < 2:
        raise ShapeError(f"frame_similarity: expected (..., F, D), got {tokens.shape}")
    gram = tokens @ np.swapaxes(tokens, -1, -2) / np.sqrt(tokens.shape[-1])
    # enforce exact symmetry regardless of the BLAS kernel used
    return (gram + np.swapaxes(gram, -1, -2)) / 2.0


def select_topk_mask(scores: np.ndarray, top_k: int) -> np.ndarray:
    """Binary frame masks: self-loops plus OR-symmetrized per-row top-k selection.

    ``scores`` is (..., F, F); every trailing (F, F) matrix is masked on its
    own. The diagonal is suppressed during selection; ties break toward the
    lower frame index (stable sort). top_k >= F clamps to F - 1 with one
    warning per call.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim < 2 or scores.shape[-1] != scores.shape[-2]:
        raise ShapeError(f"select_topk_mask: expected (..., F, F) matrices, got {scores.shape}")
    frames = scores.shape[-1]
    if frames < 2:
        return np.ones(scores.shape)
    if top_k < 1:
        raise ValueError(f"select_topk_mask: top_k must be >= 1, got {top_k}")
    k = min(top_k, frames - 1)
    if k != top_k:
        log.warning("select_topk_mask: clamping top_k=%d to %d for %d frames", top_k, k, frames)

    diag = np.arange(frames)
    descending = np.negative(scores)
    descending[..., diag, diag] = np.inf  # never pick self
    order = np.argsort(descending, axis=-1, kind="stable")  # ties: lower index first
    directed = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(directed, order[..., :k], True, axis=-1)

    mask = np.logical_or(directed, np.swapaxes(directed, -1, -2)).astype(np.float64)
    mask[..., diag, diag] = 1.0
    return mask


def mask_similarity(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Keep scores on the mask support, set everything else to -inf."""
    scores = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if scores.shape != mask.shape:
        raise ShapeError(f"mask_similarity: shapes {scores.shape} and {mask.shape} differ")
    return np.where(mask == 1.0, scores, NEG_INF)


def tcep_refine(
    tokens: np.ndarray, fused: np.ndarray, weight: np.ndarray, top_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Refine (J, F, D) tokens and emit the per-joint binary temporal mask.

    For each joint: gate the softmax of the masked similarity with the fused
    (F, F) adjacency, mix frames through it, project with the shared (D, D)
    weight, and add the GELU of the update back onto the input tokens.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 3:
        raise ShapeError(f"tcep_refine: expected (J, F, D) tokens, got {tokens.shape}")
    _, frames, dim = tokens.shape
    if np.shape(fused) != (frames, frames):
        raise ShapeError(f"tcep_refine: adjacency {np.shape(fused)} does not match {frames} frames")
    if np.shape(weight) != (dim, dim):
        raise ShapeError(f"tcep_refine: weight {np.shape(weight)} does not match feature dim {dim}")

    sim = frame_similarity(tokens)
    mask = select_topk_mask(sim, top_k)
    gated = softmax_rows(mask_similarity(sim, mask))
    gated *= fused
    return tokens + gelu((gated @ tokens) @ weight), mask
