"""Mask-guided frame pruning via density-peaks clustering over pooled tokens.

Tokens and the temporal mask are average-pooled over joints; pairwise frame
distances are pushed beyond the valid range wherever the pooled mask is
zero; kNN local density, a connectivity-weighted response density, and the
distance to the nearest denser frame combine into a saliency score whose
top-f frames are kept in temporal order.

All tie rules resolve toward the lower frame index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, ShapeError, softmax_rows

MASK_MARGIN = 1e-6  # added to the max pairwise distance to form the sentinel


@dataclass(frozen=True)
class ClusterState:
    """Intermediate clustering quantities for one frame sequence."""

    density: np.ndarray    # (F,) kNN Gaussian-kernel local density, in (0, 1]
    response: np.ndarray   # (F,) density weighted by softmax of mask support
    separation: np.ndarray # (F,) distance to the nearest denser frame


def pool_tokens_and_mask(
    tokens: np.ndarray, mask: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Average (J, F, D) tokens and (J, F, F) masks over the joint axis into
    (F, D) tokens and a binarized (F, F) mask.

    threshold is in (0, 1]; a pooled entry becomes 1 iff its average >= threshold.
    The diagonal stays 1 because every per-joint mask carries self-loops.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if tokens.ndim != 3 or mask.ndim != 3:
        raise ShapeError(f"pool_tokens_and_mask: expected 3-D inputs, got {tokens.shape}, {mask.shape}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"pool_tokens_and_mask: threshold must be in (0, 1], got {threshold}")
    return tokens.mean(axis=0), (mask.mean(axis=0) >= threshold).astype(np.float64)


def masked_distance(z: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, float]:
    """Scaled pairwise Euclidean distances between the rows of (F, D) pooled
    tokens, with pairs outside the (F, F) pooled mask at a sentinel.

    The sentinel strictly exceeds every raw pairwise distance.
    """
    frames, dim = z.shape
    raw = np.empty((frames, frames))
    # row by row: a broadcast (F, F, D) difference is 272 MB at F=729, D=64
    for p in range(frames):
        raw[p] = np.sqrt(((z - z[p]) ** 2).sum(axis=1))
    raw /= np.sqrt(dim)
    far = float(raw.max()) + MASK_MARGIN
    dist = np.where(mask == 1.0, raw, far)
    return dist, far


def knn_density(dist: np.ndarray, k: int) -> np.ndarray:
    """Gaussian-kernel density over each frame's k nearest neighbors.

    Self is excluded; neighbors tied with the k-th distance are all admitted
    while the kernel keeps the 1/k normalization.
    """
    frames = dist.shape[0]
    if frames < 2:
        return np.ones(frames)
    if not 1 <= k <= frames - 1:
        raise ValueError(f"knn_density: k must be in [1, {frames - 1}], got {k}")
    offdiag = dist + np.where(np.eye(frames, dtype=bool), np.inf, 0.0)
    kth = np.partition(offdiag, k - 1, axis=1)[:, k - 1]
    members = offdiag <= kth[:, None]
    sq_sum = np.where(members, dist * dist, 0.0).sum(axis=1)
    return np.exp(-sq_sum / k)


def response_density(density: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Weight local density by the softmax of per-frame mask support.

    Support is always >= 1 thanks to self-loops; the zero-support branch is
    kept for contract fidelity but is unreachable.
    """
    density = np.asarray(density, dtype=np.float64)
    support = np.asarray(mask, dtype=np.float64).sum(axis=1)
    if density.shape != support.shape:
        raise ShapeError(f"response_density: lengths differ: {density.shape} vs {support.shape}")
    stability = np.where(support > 0, support, NEG_INF)
    return density * softmax_rows(stability)


def separation_distance(dist: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Distance to the nearest frame of higher response density.

    "Higher" uses the total order (response, lower index wins ties); the
    unique top frame takes its maximum distance to any frame instead.
    """
    frames = dist.shape[0]
    if frames == 0:
        return np.zeros(0)
    idx = np.arange(frames)
    denser = (response[None, :] > response[:, None]) | (
        (response[None, :] == response[:, None]) & (idx[None, :] < idx[:, None])
    )
    guarded = np.where(denser, dist, np.inf)
    out = guarded.min(axis=1)
    peak = ~denser.any(axis=1)  # exactly one frame under the total order
    out[peak] = dist[peak].max(axis=1)
    return out


def cluster_scores(z: np.ndarray, mask: np.ndarray, k: int) -> ClusterState:
    """Run the full clustering chain on pooled frame tokens and mask."""
    dist, _ = masked_distance(z, mask)
    density = knn_density(dist, k) if z.shape[0] >= 2 else np.ones(1)
    response = response_density(density, mask)
    separation = separation_distance(dist, response)
    return ClusterState(density=density, response=response, separation=separation)


def select_and_prune(tokens: np.ndarray, state: ClusterState, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ``keep`` highest-saliency frames in ascending temporal order.

    Saliency is separation * response; ties break toward the lower index.
    Returns the sliced (J, keep, D) tokens and the sorted frame indices.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    frames = tokens.shape[1]
    if not 1 <= keep <= frames:
        raise ValueError(f"select_and_prune: keep must be in [1, {frames}], got {keep}")
    saliency = state.separation * state.response
    order = np.argsort(-saliency, kind="stable")[:keep]
    indices = np.sort(order)
    return tokens[:, indices, :], indices


def prune_frames(
    tokens: np.ndarray, mask: np.ndarray, threshold: float, k: int, keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pipeline convenience: pool, cluster, and slice in one call."""
    state = cluster_scores(*pool_tokens_and_mask(tokens, mask, threshold), k)
    return select_and_prune(tokens, state, keep)
