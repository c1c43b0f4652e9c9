"""Mask-guided frame pruning via density-peaks clustering over pooled tokens.

Tokens and the temporal mask are average-pooled over joints; pairwise frame
distances are pushed beyond the valid range wherever the pooled mask is
False; kNN local density, a connectivity-weighted response density, and the
distance to the nearest denser frame combine into a saliency score whose
top-f frames are kept in temporal order.

All tie rules resolve toward the lower frame index.
"""

from __future__ import annotations

import numpy as np

from .core import NEG_INF, ShapeError, bool_mask, softmax_rows

MASK_MARGIN = 1e-6  # added to the max pairwise distance to form the sentinel; never less than one ulp
DISTANCE_BLOCK = 16  # rows of masked_distance per pass: a (16, F, D) difference is 6 MB at F=729, D=64


def pool_tokens_and_mask(
    tokens: np.ndarray, mask: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Average (J, F, D) tokens and boolean (J, F, F) masks over the joint axis
    into (F, D) tokens and a boolean (F, F) mask.

    threshold is in (0, 1]; a pooled entry is True iff its average >= threshold.
    The diagonal stays True because every per-joint mask carries self-loops.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    mask = bool_mask(mask, "pool_tokens_and_mask")
    if tokens.ndim != 3 or mask.ndim != 3:
        raise ShapeError(f"pool_tokens_and_mask: expected 3-D inputs, got {tokens.shape}, {mask.shape}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"pool_tokens_and_mask: threshold must be in (0, 1], got {threshold}")
    return tokens.mean(axis=0), mask.mean(axis=0) >= threshold


def masked_distance(z: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, float]:
    """Scaled pairwise Euclidean distances between the rows of (F, D) pooled
    tokens, with pairs outside the boolean (F, F) pooled mask at a sentinel.

    The sentinel strictly exceeds every raw pairwise distance.
    """
    frames, dim = z.shape
    raw = np.empty((frames, frames))
    # the upper triangle in row blocks, mirrored: a broadcast (F, F, D) difference is 272 MB at F=729,
    # D=64, and (a - b)**2 == (b - a)**2 exactly, so the result is that of a row-by-row loop, bitwise
    for lo in range(0, frames, DISTANCE_BLOCK):
        hi = min(lo + DISTANCE_BLOCK, frames)
        diff = z[None, lo:] - z[lo:hi, None]
        diff *= diff
        raw[lo:hi, lo:] = np.sqrt(diff.sum(axis=-1))
        raw[hi:, lo:hi] = raw[lo:hi, hi:].T
    raw /= np.sqrt(dim)
    top = float(raw.max())
    far = max(top + MASK_MARGIN, float(np.nextafter(top, np.inf)))  # from about 2**34 the margin rounds away
    dist = np.where(bool_mask(mask, "masked_distance"), raw, far)
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
    """Weight local density by the softmax of per-frame support in the boolean (F, F) mask.

    Self-loops keep support >= 1 on the forward path; only a caller's mask with
    an empty row reaches the zero-support branch, which gives that frame 0.
    """
    density = np.asarray(density, dtype=np.float64)
    support = bool_mask(mask, "response_density").sum(axis=1)
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


def cluster_scores(z: np.ndarray, mask: np.ndarray, k: int) -> np.ndarray:
    """Run the full clustering chain on pooled frame tokens and mask and
    return the (F,) saliency: separation * response density."""
    dist, _ = masked_distance(z, mask)
    response = response_density(knn_density(dist, k), mask)
    return separation_distance(dist, response) * response


def select_and_prune(tokens: np.ndarray, saliency: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ``keep`` highest-saliency frames in ascending temporal order.

    Ties break toward the lower index. Returns the sliced (J, keep, D)
    tokens and the sorted frame indices.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    frames = tokens.shape[1]
    if not 1 <= keep <= frames:
        raise ValueError(f"select_and_prune: keep must be in [1, {frames}], got {keep}")
    order = np.argsort(-saliency, kind="stable")[:keep]
    indices = np.sort(order)
    return tokens[:, indices, :], indices


def prune_frames(
    tokens: np.ndarray, mask: np.ndarray, threshold: float, k: int, keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pipeline convenience: pool, cluster, and slice in one call."""
    saliency = cluster_scores(*pool_tokens_and_mask(tokens, mask, threshold), k)
    return select_and_prune(tokens, saliency, keep)
