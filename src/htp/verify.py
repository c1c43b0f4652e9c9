"""Brute-force oracles and the invariant suite behind ``htp verify``.

Every oracle here is an independent straight-loop reimplementation of the
operation it checks: plain Python loops over indices, no shared code with
the fast paths. The loop oracles share one copy of each naive step:
``naive_matmul`` runs every inner product (similarities, projections,
attention scores and contexts, the GCN mix), ``naive_softmax`` every masked
row, ``naive_gelu`` every GELU, ``_naive_layer_norm`` every LayerNorm and
``naive_topk_choices`` every top-k pick. Only the MGPTP distance loop,
``naive_knn_density`` and the JPMA argmin are loops of their own. The suite
runner executes all checks, prints one line per property, and reports
overall success.
"""

from __future__ import annotations

import contextlib
import json
import math
import tempfile
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from io import StringIO
from pathlib import Path

import numpy as np

from . import denoiser as htp_denoiser
from . import io as htp_io
from .attention import AttnWeights, CrossWeights, MlpWeights, attention_probs, ffn_block, sft_mhsa, to_additive_mask
from .cli import main as cli_main
from .config import DEFAULT_CAMERA, ConfigError, load_config
from .core import _GELU_CHUNK, NEG_INF, RngStream, gaussian, gelu, layer_norm, linear, softmax_rows, sparse_route
from .denoiser import (
    DenoiserConfig,
    StageError,
    _tensors_by_name,
    denoise_forward,
    dense_reference_forward,
    init_params,
    load_denoiser_params,
    normalize_adjacency,
    save_denoiser_params,
    spatial_gcn,
    timestep_features,
)
from .diffusion import (
    CameraModel,
    DiffusionSchedule,
    build_schedule,
    ddim_sigma,
    forward_diffuse,
    jpma_aggregate,
    mpjpe,
    predict_eps,
    timestep_for_iteration,
)
from .macs import macs_attention, macs_linear, mask_support_rows, profile_model
from .mgptp import (
    cluster_scores,
    knn_density,
    masked_distance,
    pool_tokens_and_mask,
    prune_frames,
    response_density,
    select_and_prune,
    separation_distance,
)
from .synthetic import generate_synthetic
from .tcep import chain_adjacency, frame_similarity, fuse_adjacency, select_topk_mask, tcep_refine


# ---------------------------------------------------------------------------
# naive oracles
# ---------------------------------------------------------------------------

def naive_matmul(a, b):
    n, k = len(a), len(a[0])
    m = len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for p in range(k):
                acc += a[i][p] * b[p][j]
            out[i][j] = acc
    return np.array(out)


def naive_softmax(values):
    finite = [v for v in values if v != NEG_INF]
    if not finite:
        raise ValueError("empty support")
    top = max(finite)
    exps = [math.exp(v - top) if v != NEG_INF else 0.0 for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def naive_gelu(u):
    """Exact (erf) GELU of one scalar."""
    return 0.5 * u * (1.0 + math.erf(u / math.sqrt(2.0)))


def _naive_gelu_residual(x, update):
    """x + gelu(update), entry by entry, for two (n, D) arrays."""
    return np.array([[xv + naive_gelu(u) for xv, u in zip(x_row, u_row)] for x_row, u_row in zip(x, update)])


def _naive_layer_norm(row, scale, shift, eps=1e-5):
    n = len(row)
    mean = sum(row) / n
    var = sum((v - mean) ** 2 for v in row) / n
    return [(v - mean) / math.sqrt(var + eps) * s + b for v, s, b in zip(row, scale, shift)]


def _naive_layer_norm_rows(rows, scale, shift):
    """_naive_layer_norm of each row of an (n, D) array."""
    return np.array([_naive_layer_norm(list(row), scale, shift) for row in rows])


def naive_topk_choices(scores, top_k):
    """Stable-sort directed top-k selection: chosen[p] is the set row p picks."""
    frames = len(scores)
    k = min(top_k, frames - 1)
    chosen = [set() for _ in range(frames)]
    for p in range(frames):
        candidates = [q for q in range(frames) if q != p]
        candidates.sort(key=lambda q: (-scores[p][q], q))
        chosen[p] = set(candidates[:k])
    return chosen


def naive_topk_mask(scores, top_k):
    """Stable-sort top-k boolean mask oracle: lower index wins ties, OR symmetrized."""
    frames = len(scores)
    if frames < 2:
        return np.ones((frames, frames), dtype=bool)
    chosen = naive_topk_choices(scores, top_k)
    mask = np.zeros((frames, frames), dtype=bool)
    for p in range(frames):
        for q in range(frames):
            mask[p, q] = p == q or q in chosen[p] or p in chosen[q]
    return mask


def naive_tcep_refine(tokens, fused, weight, top_k):
    joints, frames, dim = tokens.shape
    refined = np.zeros_like(tokens)
    masks = np.zeros((joints, frames, frames), dtype=bool)
    for j in range(joints):
        sim = naive_matmul(tokens[j], tokens[j].T) / math.sqrt(dim)
        masks[j] = mask = naive_topk_mask(sim, top_k)
        rows = [[sim[p, q] if mask[p, q] else NEG_INF for q in range(frames)] for p in range(frames)]
        gated = [[fused[p, q] * s for q, s in enumerate(naive_softmax(row))] for p, row in enumerate(rows)]
        refined[j] = _naive_gelu_residual(tokens[j], naive_matmul(naive_matmul(gated, tokens[j]), weight))
    return refined, masks


def _naive_mha(q, k, v, heads, wo, add_mask=None):
    """Loop multi-head attention of (Tq, D) projected queries over (Tk, D) projected keys and values,
    projected by wo; add_mask, when given, is one joint's (Tq, Tk) additive mask."""
    dk = q.shape[1] // heads
    context = np.zeros(q.shape)
    for h in range(heads):
        cols = slice(h * dk, (h + 1) * dk)
        scores = naive_matmul(q[:, cols], k[:, cols].T) / math.sqrt(dk)
        if add_mask is not None:
            scores = scores + add_mask
        context[:, cols] = naive_matmul([naive_softmax(list(row)) for row in scores], v[:, cols])
    return naive_matmul(context, wo)


def naive_attention(tokens, add_mask, w: AttnWeights):
    """Loop reimplementation of masked MHSA with residual; tokens is (J, F, D)."""
    out = np.zeros_like(tokens)
    for j in range(tokens.shape[0]):
        normed = _naive_layer_norm_rows(tokens[j], w.ln_scale, w.ln_shift)
        q, k, v = (naive_matmul(normed, proj) for proj in (w.wq, w.wk, w.wv))
        out[j] = tokens[j] + _naive_mha(q, k, v, w.heads, w.wo, None if add_mask is None else add_mask[j])
    return out


def naive_cross_attention(full, condensed, w: CrossWeights):
    """Loop reimplementation of cross attention with residual: (J, F, D) queries over (J, f, D) keys/values."""
    out = np.zeros_like(full)
    for j in range(full.shape[0]):
        q = naive_matmul(_naive_layer_norm_rows(full[j], w.ln_q_scale, w.ln_q_shift), w.wq)
        normed_kv = _naive_layer_norm_rows(condensed[j], w.ln_kv_scale, w.ln_kv_shift)
        k, v = naive_matmul(normed_kv, w.wk), naive_matmul(normed_kv, w.wv)
        out[j] = full[j] + _naive_mha(q, k, v, w.heads, w.wo)
    return out


def naive_ffn(tokens, mlp: MlpWeights):
    out = np.zeros_like(tokens)
    for j in range(tokens.shape[0]):
        hidden = naive_matmul(_naive_layer_norm_rows(tokens[j], mlp.ln_scale, mlp.ln_shift), mlp.w1) + mlp.b1
        hidden = [[naive_gelu(h) for h in row] for row in hidden]
        out[j] = tokens[j] + naive_matmul(hidden, mlp.w2) + mlp.b2
    return out


def naive_gcn(tokens, adj, w):
    joints, frames, dim = tokens.shape
    deg = [sum(adj[i]) for i in range(joints)]
    norm = [[adj[i][j] / math.sqrt(deg[i] * deg[j]) for j in range(joints)] for i in range(joints)]
    out = np.zeros_like(tokens)
    for f in range(frames):
        out[:, f, :] = _naive_gelu_residual(tokens[:, f, :], naive_matmul(naive_matmul(norm, tokens[:, f, :]), w))
    return out


def naive_knn_density(dist, k):
    """Gaussian-kernel density over each frame's k nearest others; every frame tied with the k-th is a
    member, and the kernel still divides by k."""
    frames = len(dist)
    density = []
    for p in range(frames):
        others = sorted(dist[p][q] for q in range(frames) if q != p)
        members = [q for q in range(frames) if q != p and dist[p][q] <= others[k - 1]]
        density.append(math.exp(-sum(dist[p][q] ** 2 for q in members) / k))
    return density


def naive_prune_indices(tokens, mask, threshold, k, keep):
    """Loop reimplementation of the whole pruning chain; returns kept indices."""
    joints, frames, dim = tokens.shape
    pooled = [[sum(tokens[j, p, i] for j in range(joints)) / joints for i in range(dim)] for p in range(frames)]
    pooled_mask = [[sum(mask[j, p, q] for j in range(joints)) / joints >= threshold for q in range(frames)]
                   for p in range(frames)]

    raw = [[math.sqrt(sum((pooled[p][i] - pooled[q][i]) ** 2 for i in range(dim))) / math.sqrt(dim)
            for q in range(frames)] for p in range(frames)]
    top = max(max(row) for row in raw)
    far = max(top + 1e-6, math.nextafter(top, math.inf))  # past every raw distance, also where 1e-6 rounds away
    dist = [[raw[p][q] if pooled_mask[p][q] else far for q in range(frames)] for p in range(frames)]

    density = naive_knn_density(dist, k)
    support = [sum(pooled_mask[p]) for p in range(frames)]
    stability = [s if s > 0 else NEG_INF for s in support]
    weights = naive_softmax(stability)
    response = [d * w for d, w in zip(density, weights)]

    separation = []
    for p in range(frames):
        denser = [q for q in range(frames)
                  if response[q] > response[p] or (response[q] == response[p] and q < p)]
        separation.append(min(dist[p][q] for q in denser) if denser else max(dist[p]))

    saliency = [separation[p] * response[p] for p in range(frames)]
    order = sorted(range(frames), key=lambda p: (-saliency[p], p))[:keep]
    return sorted(order)


def naive_jpma(poses, keypoints, camera: CameraModel):
    count, joints, frames, _ = poses.shape
    out = np.zeros((joints, frames, 3))
    for j in range(joints):
        for f in range(frames):
            best, best_err = 0, math.inf
            for h in range(count):
                x, y, z = poses[h, j, f]
                if z <= 0:
                    continue
                u = camera.fx * x / z + camera.cx
                v = camera.fy * y / z + camera.cy
                err = math.hypot(u - keypoints[j, f, 0], v - keypoints[j, f, 1])
                if err < best_err:
                    best, best_err = h, err
            out[j, f] = poses[best, j, f]
    return out


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_attn(rng, dim, heads):
    return AttnWeights(
        wq=rng.normal((dim, dim)) / math.sqrt(dim),
        wk=rng.normal((dim, dim)) / math.sqrt(dim),
        wv=rng.normal((dim, dim)) / math.sqrt(dim),
        wo=rng.normal((dim, dim)) / math.sqrt(dim),
        heads=heads,
        ln_scale=1.0 + 0.1 * rng.normal((dim,)),
        ln_shift=0.1 * rng.normal((dim,)),
    )


def _random_mlp(rng, dim, hidden):
    return MlpWeights(
        w1=rng.normal((dim, hidden)) / math.sqrt(dim),
        b1=0.1 * rng.normal((hidden,)),
        w2=rng.normal((hidden, dim)) / math.sqrt(hidden),
        b2=0.1 * rng.normal((dim,)),
        ln_scale=np.ones(dim),
        ln_shift=np.zeros(dim),
    )


def _random_binary_mask(rng, joints, frames):
    """Random symmetric boolean mask with a True diagonal."""
    mask = rng.uniform(0.0, 1.0, (joints, frames, frames)) < 0.5
    mask = mask | np.swapaxes(mask, 1, 2)
    mask[:, range(frames), range(frames)] = True
    return mask


# ---------------------------------------------------------------------------
# checks: tensor substrate
# ---------------------------------------------------------------------------

def check_softmax_probability_vector(rng):
    for trial in range(100):
        n = 2 + trial % 7
        v = rng.normal((n,)) * 3.0
        drop = rng.uniform(0.0, 1.0, (n,)) < 0.3
        if drop.all():
            drop[0] = False
        v = np.where(drop, NEG_INF, v)
        out = softmax_rows(v)
        if abs(out.sum() - 1.0) > 1e-12:
            return f"sum off by {out.sum() - 1.0:.2e}"
        if np.any(out < 0):
            return "negative probability"
        if np.any(out[drop] != 0.0):
            return "masked entry not exactly zero"
        expected = naive_softmax(list(v))
        if np.max(np.abs(out - expected)) > 1e-12:
            return "disagrees with direct summation"
    try:
        softmax_rows(np.array([NEG_INF, NEG_INF]))
        return "all-masked row did not raise"
    except ValueError:
        pass
    return ""


def check_linear_matches_naive(rng):
    for _ in range(20):
        x = rng.normal((8, 8))
        w = rng.normal((8, 8))
        b = rng.normal((8,))
        fast = linear(x, w, b)
        slow = naive_matmul(x.tolist(), w.tolist()) + b
        if np.max(np.abs(fast - slow)) > 1e-12:
            return "linear differs from triple loop"
    ident = linear(np.eye(2), np.array([[2.0, 0.0], [0.0, 3.0]]))
    if not np.array_equal(ident, np.array([[2.0, 0.0], [0.0, 3.0]])):
        return "identity input does not return the weight rows"
    return ""


def check_gelu_layer_norm(rng):
    if gelu(np.zeros(3)).any():
        return "gelu(0) != 0"
    rows = rng.normal((16, 32)) * 10.0  # spread keeps the eps term negligible
    normed = layer_norm(rows)
    if np.max(np.abs(normed.mean(axis=-1))) > 1e-9:
        return "per-row mean exceeds 1e-9"
    if np.max(np.abs(normed.var(axis=-1) - 1.0)) > 1e-6:
        return "per-row variance off by more than 1e-6"
    flat = layer_norm(np.ones((1, 3)))
    if np.max(np.abs(flat)) > 1e-2:
        return "constant row not driven to ~0"
    long = rng.normal((2 * _GELU_CHUNK + 5,)) * 3.0  # crosses two chunk boundaries
    ref = np.array([naive_gelu(v) for v in long.tolist()])
    if np.max(np.abs(gelu(long) - ref)) > 1e-12:
        return "gelu across chunk boundaries departs from math.erf by more than 1e-12"
    return ""


def check_rng_determinism_and_moments(rng):
    a = gaussian(RngStream(7), (3, 4, 5))
    b = gaussian(RngStream(7), (3, 4, 5))
    if not np.array_equal(a, b):
        return "same seed produced different tensors"
    if np.array_equal(gaussian(RngStream(7).child(0), (8,)), gaussian(RngStream(7).child(1), (8,))):
        return "child streams coincide"
    big = gaussian(RngStream(12345), (1_000_000,))
    if abs(big.mean()) >= 0.01:
        return f"mean {big.mean():.4f} outside CLT bound"
    if abs(big.var() - 1.0) >= 0.01:
        return f"variance {big.var():.4f} outside bound"
    try:
        gaussian(RngStream(1), (0, 3))
        return "zero-sized shape did not raise"
    except ValueError:
        pass
    return ""


# ---------------------------------------------------------------------------
# checks: temporal mask construction
# ---------------------------------------------------------------------------

def _mask_sweep_instances(rng, trials=200):
    """Random (scores, top_k) instances for the mask suite; top_k sweeps past
    F-1 to exercise clamping."""
    out = []
    for _ in range(trials):
        frames = int(rng.uniform(2, 65, ()))
        top_k = int(rng.uniform(1, frames + 3, ()))
        scores = rng.normal((frames, frames))
        out.append(((scores + scores.T) / 2, top_k))
    return out


def check_mask_construction_suite(rng):
    """Acceptance: 200 random instances, symmetry/diagonal/min-support plus oracle match."""
    for trial, (scores, top_k) in enumerate(_mask_sweep_instances(rng)):
        frames = scores.shape[0]
        mask = select_topk_mask(scores, top_k)
        if not np.array_equal(mask, mask.T):
            return f"trial {trial}: mask not symmetric"
        if not np.diag(mask).all():
            return f"trial {trial}: diagonal not all ones"
        k = min(top_k, frames - 1)
        if mask.sum(axis=1).min() < k + 1:
            return f"trial {trial}: row support below {k + 1}"
        if not np.array_equal(mask, naive_topk_mask(scores.tolist(), top_k)):
            return f"trial {trial}: disagrees with stable-sort oracle"
    # pinned instance: top-1 of hand-written scores
    s = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    if not np.array_equal(select_topk_mask(s, 1), np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)):
        return "hand instance mismatch"
    # tie rule: equal scores select the lower frame index
    tie = np.array([[0.0, 3.0, 3.0], [3.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    mask = select_topk_mask(tie, 1)
    if not mask[0, 1]:
        return "tie did not resolve to the lower index"
    return ""


def check_mask_row_support_upper_bound(rng):
    """Upper caps on mask support that the OR-symmetrized construction has.

    (a) Per joint, the total support is at most F * mask_support_rows(F, top_k)
    = F * min(2k+1, F), the charge of the cost model: F*k directed picks, at
    most doubled by the transpose, plus the diagonal. (b) Row p has support at
    most min(k + 1 + in_p, F), where in_p counts the rows whose straight-loop
    top-k picks p. No per-row cap of 2k+1 holds: a hub frame that every other
    row picks reaches support F (pinned below).
    """
    total_violations, row_violations = [], []
    for trial, (scores, top_k) in enumerate(_mask_sweep_instances(rng)):
        frames = scores.shape[0]
        k = min(top_k, frames - 1)
        mask = select_topk_mask(scores, top_k)
        total, total_cap = int(mask.sum()), frames * mask_support_rows(frames, top_k)
        if total > total_cap:
            total_violations.append(f"trial {trial} (F={frames}, k={k}): total support {total} > {total_cap}")
        in_degree = [0] * frames
        for picks in naive_topk_choices(scores.tolist(), top_k):
            for q in picks:
                in_degree[q] += 1
        for p in range(frames):
            support, cap = int(mask[p].sum()), min(k + 1 + in_degree[p], frames)
            if support > cap:
                row_violations.append(f"trial {trial} (F={frames}, k={k}): row {p} support {support} > {cap}")
                break
    for name, violations in (("total", total_violations), ("in-degree row", row_violations)):
        if violations:
            return f"{len(violations)}/200 instances exceed the {name} cap; first at {violations[0]}"
    # pinned: cyclic scores, row p prefers p+1, p+2, ...; the total cap is reached exactly
    frames, top_k = 10, 2
    cyclic = np.array([[float(frames - (q - p) % frames) for q in range(frames)] for p in range(frames)])
    reached, total_cap = int(select_topk_mask(cyclic, top_k).sum()), frames * mask_support_rows(frames, top_k)
    if reached != total_cap:
        return f"cyclic instance support {reached} != total cap {total_cap}"
    # pinned: frame 0 is every other row's top pick, so its row exceeds 2k+1 = 3
    hub = np.array([[0.0, 3.0, 2.0, 1.0], [3.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    if select_topk_mask(hub, 1)[0].sum() != 4.0:
        return "hub row support is not F = 4"
    return ""


def check_masked_similarity_softmax(rng):
    for _ in range(20):
        frames = int(rng.uniform(3, 12, ()))
        tokens = rng.normal((frames, 4))
        sim = frame_similarity(tokens)
        mask = select_topk_mask(sim, 2)
        soft = np.stack([softmax_rows(row) for row in np.where(mask, sim, NEG_INF)])
        if np.max(np.abs(soft.sum(axis=1) - 1.0)) > 1e-12:
            return "rows do not sum to 1"
        if np.any(soft[~mask] != 0.0):
            return "support leaked outside the mask"
        if np.any(soft[mask] <= 0.0):
            return "support entry vanished"
    return ""


def check_tcep_refine_matches_naive(rng):
    for _ in range(10):
        joints, frames, dim = 2, int(rng.uniform(3, 7, ())), 3
        tokens = rng.normal((joints, frames, dim))
        fused = fuse_adjacency(chain_adjacency(frames), 0.3 * rng.normal((frames, frames)))
        weight = rng.normal((dim, dim))
        fast_tokens, fast_mask = tcep_refine(tokens, fused, weight, 2)
        slow_tokens, slow_mask = naive_tcep_refine(tokens, fused, weight, 2)
        if not np.array_equal(fast_mask, slow_mask):
            return "masks differ from naive oracle"
        if np.max(np.abs(fast_tokens - slow_tokens)) > 1e-12:
            return "refined tokens differ from naive oracle"
    # zero-update branches
    tokens = rng.normal((1, 4, 3))
    zero_w, _ = tcep_refine(tokens, chain_adjacency(4), np.zeros((3, 3)), 2)
    if not np.array_equal(zero_w, tokens):
        return "zero projection did not reduce to the residual"
    zero_a, _ = tcep_refine(tokens, np.zeros((4, 4)), rng.normal((3, 3)), 2)
    if not np.array_equal(zero_a, tokens):
        return "zero adjacency did not reduce to the residual"
    return ""


def check_tcep_permutation_equivariance(rng):
    tokens = rng.normal((4, 6, 3))
    fused = fuse_adjacency(chain_adjacency(6), 0.2 * rng.normal((6, 6)))
    weight = rng.normal((3, 3))
    refined, mask = tcep_refine(tokens, fused, weight, 2)
    perm = np.array([2, 0, 3, 1])
    refined_p, mask_p = tcep_refine(tokens[perm], fused, weight, 2)
    if not np.array_equal(refined_p, refined[perm]) or not np.array_equal(mask_p, mask[perm]):
        return "joint permutation does not commute"
    return ""


def check_selection_monotonicity(rng):
    for _ in range(20):
        frames = int(rng.uniform(4, 16, ()))
        top_k = int(rng.uniform(1, frames - 1, ()))
        scores = rng.normal((frames, frames))
        scores = (scores + scores.T) / 2
        p = int(rng.uniform(0, frames, ()))
        q = int(rng.uniform(0, frames, ()))
        if p == q:
            q = (q + 1) % frames
        row = np.delete(scores[p], p)
        kth = np.sort(row)[::-1][min(top_k, frames - 1) - 1]
        scores[p, q] = kth + 1.0  # force q into row p's selection
        if select_topk_mask(scores, top_k)[p, q] != 1.0:
            return "raising a score above the selection threshold did not set the edge"
    return ""


# ---------------------------------------------------------------------------
# checks: masked attention
# ---------------------------------------------------------------------------

def check_attention_dense_equivalence(rng):
    """Acceptance: full-mask attention equals a dense loop oracle, 50 instances."""
    for trial in range(50):
        joints = 1 + trial % 2
        frames = 3 + trial % 3
        heads = (1, 2, 4)[trial % 3]
        dim = 4 * heads
        tokens = rng.normal((joints, frames, dim))
        w = _random_attn(rng, dim, heads)
        full = to_additive_mask(np.ones((joints, frames, frames), dtype=bool))
        fast = sft_mhsa(tokens, full, w)
        dense = naive_attention(tokens, None, w)
        if np.max(np.abs(fast - dense)) >= 1e-12:
            return f"trial {trial}: max diff {np.max(np.abs(fast - dense)):.2e}"
    return ""


def check_attention_masked_zero_rowsum(rng):
    for trial in range(20):
        joints, frames, heads = 1, 4, 2
        dim = 4
        tokens = rng.normal((joints, frames, dim))
        w = _random_attn(rng, dim, heads)
        mask = _random_binary_mask(rng, joints, frames)
        add = to_additive_mask(mask)
        probs = attention_probs(tokens, add, w)  # (J, h, F, F)
        masked_positions = np.broadcast_to(~mask[:, None, :, :], probs.shape)
        if np.any(probs[masked_positions] != 0.0):
            return "masked position weight not exactly zero"
        if np.max(np.abs(probs.sum(axis=-1) - 1.0)) > 1e-12:
            return "attention rows do not sum to 1"
        fast = sft_mhsa(tokens, add, w)
        slow = naive_attention(tokens, add, w)
        if np.max(np.abs(fast - slow)) > 1e-12:
            return "masked attention differs from loop oracle"
    # value path zeroed -> residual only
    w0 = replace(_random_attn(rng, 4, 2), wv=np.zeros((4, 4)))
    tokens = rng.normal((1, 4, 4))
    if not np.array_equal(sft_mhsa(tokens, None, w0), tokens):
        return "zero value projection did not reduce to the residual"
    for non_boolean in (np.array([[0.5]]), np.eye(2)):  # a 0/1 float mask is refused like any other
        try:
            to_additive_mask(non_boolean)
            return "non-boolean mask accepted"
        except ValueError:
            pass
    return ""


def check_attention_frame_permutation(rng):
    tokens = rng.normal((2, 5, 8))
    w = _random_attn(rng, 8, 2)
    mask = _random_binary_mask(rng, 2, 5)
    add = to_additive_mask(mask)
    out = sft_mhsa(tokens, add, w)
    perm = np.array([3, 0, 4, 2, 1])
    out_p = sft_mhsa(tokens[:, perm], add[:, perm][:, :, perm], w)
    if np.max(np.abs(out_p - out[:, perm])) > 1e-12:
        return "frame permutation does not commute"
    return ""


def check_sparse_route_matches_naive(rng):
    """Masked attention and TCEP equal their loop oracles on both sides of
    core.sparse_route, with a hub row of support F, finite non-zero
    additive values, and an empty row that fails by name."""
    joints, frames, dim, heads = 2, 24, 8, 2
    w = _random_attn(rng, dim, heads)
    tokens = rng.normal((joints, frames, dim))
    sparse = np.repeat(np.eye(frames, dtype=bool)[None], joints, axis=0)
    sparse[:, 0, :] = True  # hub row: support F
    sparse[1, 5, [3, 11]] = True
    dense = _random_binary_mask(rng, joints, frames)
    values = rng.normal((joints, frames, frames))
    cases = {
        "sparse": to_additive_mask(sparse),
        "sparse, finite non-zero": np.where(sparse, values, NEG_INF),
        "dense": to_additive_mask(dense),
        "dense, finite non-zero": np.where(dense, values, NEG_INF),
    }
    for name, add in cases.items():
        if sparse_route(np.isfinite(add)) != name.startswith("sparse"):
            return f"attention, {name}: instance is on the wrong side of the routing density"
        diff = np.max(np.abs(sft_mhsa(tokens, add, w) - naive_attention(tokens, add, w)))
        if diff > 1e-12:
            return f"attention, {name}: max diff {diff:.2e} from the loop oracle"

    for frames, top_k, routed_sparse in ((30, 1, True), (6, 2, False)):
        tokens = 1.0 + 0.3 * rng.normal((joints, frames, 3))
        tokens[:, 0] = 5.0  # every frame's nearest neighbour: the hub row gets support F
        fused = fuse_adjacency(chain_adjacency(frames), 0.3 * rng.normal((frames, frames)))
        weight = rng.normal((3, 3))
        fast_tokens, fast_mask = tcep_refine(tokens, fused, weight, top_k)
        slow_tokens, slow_mask = naive_tcep_refine(tokens, fused, weight, top_k)
        if sparse_route(fast_mask) != routed_sparse or not fast_mask[:, 0].all():
            return f"tcep, F={frames}: instance is on the wrong side of the routing density or has no hub row"
        if not np.array_equal(fast_mask, slow_mask):
            return f"tcep, F={frames}: masks differ from the loop oracle"
        diff = np.max(np.abs(fast_tokens - slow_tokens))
        if diff > 1e-12:
            return f"tcep, F={frames}: max diff {diff:.2e} from the loop oracle"

    empty = cases["sparse"].copy()
    empty[1, 7] = NEG_INF
    try:
        sft_mhsa(rng.normal((joints, 24, dim)), empty, w)
        return "sparse mask with an empty row did not raise"
    except ValueError as exc:
        if str(exc) != "empty support":
            return f"empty row raised {exc!r}"
    cfg = _small_cfg(joints=2, frames=40, keep_frames=10, corr_topk=1, blocks=1, sparse_blocks=1)

    saved = htp_denoiser.tcep_refine

    def tcep_with_empty_row(*args):
        refined, mask = saved(*args)
        mask[1, 7] = 0.0
        return refined, mask

    htp_denoiser.tcep_refine = tcep_with_empty_row  # the forward's own masks never have an empty row
    try:
        denoise_forward(rng.normal((2, 40, 3)), rng.normal((2, 40, 2)), 10, cfg, init_params(cfg, seed=2))
        return "forward with an empty mask row did not raise"
    except StageError as exc:
        if str(exc) != "block0_full: empty support":
            return f"forward raised {exc}"
    finally:
        htp_denoiser.tcep_refine = saved
    return ""


def check_ffn_matches_naive(rng):
    for _ in range(10):
        tokens = rng.normal((2, 3, 4))
        mlp = _random_mlp(rng, 4, 8)
        if np.max(np.abs(ffn_block(tokens, mlp) - naive_ffn(tokens, mlp))) > 1e-12:
            return "ffn differs from loop oracle"
    zero = MlpWeights(
        w1=np.zeros((4, 8)), b1=np.zeros(8), w2=np.zeros((8, 4)), b2=np.zeros(4),
        ln_scale=np.ones(4), ln_shift=np.zeros(4),
    )
    tokens = rng.normal((1, 2, 4))
    if not np.array_equal(ffn_block(tokens, zero), tokens):
        return "zero MLP did not reduce to the residual"
    return ""


def check_sparse_macs_hook(rng):
    """Profiler score/context count equals the summed mask support times dim."""
    joints, frames, dim, heads = 3, 12, 8, 2
    tokens = rng.normal((joints, frames, dim))
    mask = np.stack([select_topk_mask(frame_similarity(tokens[j]), 3) for j in range(joints)])
    support_total = int(mask.sum())
    counted = macs_attention(frames, joints, dim, heads, support_total=support_total)
    projections = 4 * macs_linear(joints * frames, dim, dim)
    if counted - projections != 2 * support_total * dim:
        return "score/context MACs do not equal 2 * support * dim"
    return ""


# ---------------------------------------------------------------------------
# checks: frame pruning
# ---------------------------------------------------------------------------

def check_mgptp_oracle_500(rng):
    """Acceptance: selected indices match the loop oracle on 500 instances."""
    for trial in range(500):
        joints = 1 + trial % 3
        frames = int(rng.uniform(2, 13, ()))
        dim = 1 + trial % 4
        k = int(rng.uniform(1, frames, ()))
        keep = int(rng.uniform(1, frames + 1, ()))
        threshold = (0.25, 0.5, 0.75, 1.0)[trial % 4]
        tokens = rng.normal((joints, frames, dim))
        mask = _random_binary_mask(rng, joints, frames)
        _, indices = prune_frames(tokens, mask, threshold, k, keep)
        expected = naive_prune_indices(tokens, mask, threshold, k, keep)
        if list(indices) != expected:
            return f"trial {trial}: {list(indices)} != {expected}"
    return ""


def check_mgptp_invariants(rng):
    for _ in range(30):
        joints, frames, dim = 2, 9, 3
        tokens = rng.normal((joints, frames, dim))
        mask = _random_binary_mask(rng, joints, frames)
        z, pooled = pool_tokens_and_mask(tokens, mask, 0.5)
        dist, far = masked_distance(z, pooled)
        if not np.array_equal(dist, dist.T) or np.any(np.diag(dist) != 0.0):
            return "distances not symmetric with zero diagonal"
        off = ~np.eye(frames, dtype=bool)
        if (~pooled & off).any() and pooled.any():
            if dist[~pooled & off].min() <= dist[pooled & off].max():
                return "masked pair not strictly farther than every valid pair"
        density = knn_density(dist, 3)
        if np.any(density <= 0.0) or np.any(density > 1.0):
            return "density left (0, 1]"
        resp_a = response_density(density, pooled)
        resp_b = response_density(density * 3.7, pooled)
        if np.argmax(resp_a) != np.argmax(resp_b):
            return "response argmax changed under positive scaling"
        pruned, indices = select_and_prune(tokens, cluster_scores(z, pooled, 3), 4)
        if np.any(np.diff(indices) <= 0):
            return "indices not strictly increasing"
        if not np.array_equal(pruned, tokens[:, indices, :]):
            return "slice does not preserve token values bitwise"
        _, again = select_and_prune(tokens, cluster_scores(z, pooled, 3), 4)
        if not np.array_equal(indices, again):
            return "selection not deterministic"
    return ""


def check_mgptp_examples(rng):
    # pooled threshold arithmetic on a two-joint disagreement
    mask = np.ones((2, 2, 2), dtype=bool)
    mask[1, 0, 1] = mask[1, 1, 0] = False
    tokens = rng.normal((2, 2, 3))
    if not pool_tokens_and_mask(tokens, mask, 0.5)[1][0, 1]:
        return "raw 0.5 at threshold 0.5 should binarize to 1"
    if pool_tokens_and_mask(tokens, mask, 0.6)[1][0, 1]:
        return "raw 0.5 at threshold 0.6 should binarize to 0"
    # hand distances on the line z = [0, 3, 4]
    z = np.array([[0.0], [3.0], [4.0]])
    dist, far = masked_distance(z, np.ones((3, 3), dtype=bool))
    if not np.allclose(dist[0], [0, 3, 4]) or dist[1, 2] != 1.0:
        return "hand distances wrong"
    dist_m, far_m = masked_distance(z, np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool))
    if dist_m[0, 2] != 4.0 + 1e-6 or far_m != 4.0 + 1e-6:
        return "sentinel distance must be max raw distance + 1e-6"
    dist_s, far_s = masked_distance(np.zeros((3, 2)), np.ones((3, 3), dtype=bool))
    if far_s != 1e-6 or dist_s.any():
        return "identical tokens should give zero distances and sentinel 1e-6"
    # kNN density at k=1 on the same line
    density = knn_density(dist, 1)
    if not np.allclose(density, [math.exp(-9), math.exp(-1), math.exp(-1)], rtol=0, atol=1e-15):
        return "k=1 density mismatch on the line"
    # response density softmax arithmetic
    resp = response_density(np.ones(2), np.array([[True, True], [False, True]]))
    expect = np.array([math.exp(2), math.exp(1)]) / (math.exp(2) + math.exp(1))
    if np.max(np.abs(resp - expect)) > 1e-12:
        return "two-frame response density mismatch"
    # separation on strictly decreasing response
    sep = separation_distance(dist, np.array([3.0, 2.0, 1.0]))
    if not np.allclose(sep, [4, 3, 1]):
        return "separation hand values wrong"
    tie = separation_distance(dist, np.ones(3))
    if tie[0] != 4.0 or tie[1] != 3.0 or tie[2] != 1.0:
        return "tie rule should treat lower index as denser"
    # frame-constant tokens keep the first frames
    const = np.zeros((2, 6, 3))
    _, indices = prune_frames(const, np.ones((2, 6, 6), dtype=bool), 0.5, 2, 3)
    if list(indices) != [0, 1, 2]:
        return "all-tied saliency should keep the first frames"
    # identity prune
    tokens = rng.normal((2, 5, 3))
    pruned, indices = prune_frames(tokens, np.ones((2, 5, 5), dtype=bool), 0.5, 2, 5)
    if list(indices) != [0, 1, 2, 3, 4] or not np.array_equal(pruned, tokens):
        return "keep = frames is not the identity"
    return ""


# ---------------------------------------------------------------------------
# checks: diffusion
# ---------------------------------------------------------------------------

def check_schedule(rng):
    one = build_schedule(1, "linear")
    if not np.allclose(one.betas, [1e-4]) or abs(one.alpha_bar(1) - 0.9999) > 1e-15:
        return "single-step schedule wrong"
    sched = build_schedule(1000, "linear")
    if np.any(np.diff(sched.alpha_bars) >= 0):
        return "cumulative signal fraction not strictly decreasing"
    log_sum = sum(math.log(1.0 - b) for b in sched.betas)  # independent log-sum route
    if abs(math.exp(log_sum) - sched.alpha_bar(1000)) > 1e-12 * sched.alpha_bar(1000) + 1e-18:
        return "running product disagrees with log-sum oracle"
    if sched.alpha_bar(1000) >= 5e-5:
        return f"terminal signal fraction {sched.alpha_bar(1000):.2e} not < 5e-5"
    cos = build_schedule(100, "cosine")
    if np.any(np.diff(cos.alpha_bars) >= 0):
        return "cosine schedule not strictly decreasing"
    return ""


def check_forward_and_eps(rng):
    sched = build_schedule(4, "linear")
    y0 = np.full((1, 1, 1), 2.0)
    eps = np.ones((1, 1, 1))
    # hand arithmetic at signal fraction 0.25
    manual = DiffusionSchedule(1, np.array([0.75]), np.array([0.25]))
    y_t = forward_diffuse(y0, 1, eps, manual)
    if abs(y_t[0, 0, 0] - (0.5 * 2.0 + math.sqrt(0.75))) > 1e-12:
        return "forward arithmetic mismatch"
    back = predict_eps(y_t, y0, 1, manual)
    if abs(back[0, 0, 0] - 1.0) > 1e-12:
        return "noise recovery mismatch"
    if not np.array_equal(forward_diffuse(y0, 0, eps, sched), y0):
        return "t = 0 should return the clean input"
    if not np.array_equal(forward_diffuse(y0, 2, np.zeros_like(y0), sched), math.sqrt(sched.alpha_bar(2)) * y0):
        return "zero noise should scale the input exactly"
    rng_l = RngStream(5)
    y0r = rng_l.normal((2, 3, 3))
    epsr = rng_l.normal((2, 3, 3))
    y_tr = forward_diffuse(y0r, 3, epsr, sched)
    if np.max(np.abs(predict_eps(y_tr, y0r, 3, sched) - epsr)) > 1e-12:
        return "round trip did not recover the noise"
    try:
        predict_eps(y0, y0, 0, sched)
        return "t = 0 noise prediction did not raise"
    except ValueError:
        pass
    return ""


def check_ddim_sigma_arithmetic(rng):
    if abs(ddim_sigma(0.5, 0.75) - math.sqrt(1.0 / 6.0)) > 1e-12:
        return "sigma(0.5, 0.75) != sqrt(1/6)"
    if ddim_sigma(0.5, 0.5) != 0.0:
        return "equal signal fractions should give zero width"
    return ""


def check_sampler_consistency(rng):
    """Acceptance: the reverse chain `infer` runs, driven through the CLI.

    With the exact-clean oracle stub at eta 0 it reconstructs the target
    within 1e-8 relative (K in {1, 5, 10}, T = 1000). Purity needs the
    network: the stub's last step lands on t = 0 with zero width, so a stub
    chain ends exactly at the target whatever its initial noise.
    """
    y0, obs = generate_synthetic(2, 6, 11, "walk_cycle", CameraModel(**DEFAULT_CAMERA))
    with tempfile.TemporaryDirectory() as tmp:
        config, y0_path, obs_path, out = (Path(tmp) / n for n in ("run.json", "y0.csv", "obs.csv", "out.csv"))
        config.write_text(json.dumps({
            "joints": 2, "frames": 6, "embed_dim": 8, "heads": 2, "mlp_ratio": 2.0, "blocks": 1,
            "sparse_blocks": 1, "keep_frames": 3, "corr_topk": 2, "knn_k": 2, "seed": 5,
        }))
        htp_io.write_pose_csv(y0_path, y0)
        htp_io.write_pose_csv(obs_path, obs)

        def infer(*flags):
            argv = ["infer", "--config", str(config), "--in-2d", str(obs_path), "--out", str(out),
                    "--eta-ddim", "0", "--H", "2", "--T", "1000", *flags]
            with contextlib.redirect_stdout(StringIO()):
                code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"infer {' '.join(flags)} exited {code}")
            return htp_io.read_pose_csv(out)

        for iterations in (1, 5, 10):
            got = infer("--oracle-y0", str(y0_path), "--K", str(iterations))
            rel = np.linalg.norm(got - y0) / np.linalg.norm(y0)
            if rel > 1e-8:
                return f"K={iterations}: relative error {rel:.2e}"
        if not np.array_equal(infer("--K", "5"), infer("--K", "5")):
            return "network chain at eta 0 differs between runs"
    return ""


def check_forward_statistics(rng):
    """Acceptance: empirical mean of seeded draws within the 4-sigma band."""
    sched = build_schedule(1000, "linear")
    y0 = np.array([[[1.5, -2.0, 0.5]]])
    draws = 100_000
    for t in (100, 500, 900):
        stream = RngStream(400 + t)
        eps = stream.normal((draws,) + y0.shape)
        samples = forward_diffuse(np.broadcast_to(y0, eps.shape), t, eps, sched)
        bound = 4.0 * math.sqrt((1 - sched.alpha_bar(t)) / draws)
        err = np.max(np.abs(samples.mean(axis=0) - np.sqrt(sched.alpha_bar(t)) * y0))
        if err >= bound:
            return f"t={t}: mean error {err:.2e} >= bound {bound:.2e}"
    return ""


def check_timestep_rule(rng):
    if timestep_for_iteration(10, 10, 1000) != 0:
        return "final iteration must reach 0"
    if timestep_for_iteration(1, 10, 1000) != 900:
        return "k=1 of 10 at T=1000 must give 900"
    if timestep_for_iteration(5, 10, 1000) != 500:
        return "k=5 of 10 at T=1000 must give 500"
    return ""


def check_jpma(rng):
    cam = CameraModel(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)
    pose = RngStream(3).uniform(-400.0, 400.0, (2, 3, 3)) + np.array([0.0, 0.0, 4000.0])
    kp = cam.project(pose)
    if not np.array_equal(jpma_aggregate(pose[None], kp, cam), pose):
        return "single hypothesis must pass through bitwise"
    # the exactly-reprojecting hypothesis wins everywhere
    rng_l = RngStream(9)
    others = pose[None] + rng_l.normal((3, 2, 3, 3)) * 50.0
    poses = np.concatenate([others[:1], pose[None], others[1:]])
    if not np.array_equal(jpma_aggregate(poses, kp, cam), pose):
        return "exact reprojection was not selected"
    # random instances against the per-joint argmin oracle + lower bound
    for trial in range(10):
        rng_t = RngStream(100 + trial)
        poses = rng_t.uniform(-400.0, 400.0, (3, 2, 4, 3)) + np.array([0.0, 0.0, 3000.0])
        kp = cam.project(poses[0]) + rng_t.normal((2, 4, 2)) * 5.0
        fast = jpma_aggregate(poses, kp, cam)
        if not np.array_equal(fast, naive_jpma(poses, kp, cam)):
            return f"trial {trial}: disagrees with argmin oracle"
        chosen_err = np.linalg.norm(cam.project(fast) - kp, axis=-1)
        for h in range(3):
            err_h = np.linalg.norm(cam.project(poses[h]) - kp, axis=-1)
            if np.any(chosen_err > err_h + 1e-12):
                return "selected reprojection error exceeds a hypothesis"
    # nonpositive depth disqualifies; all-disqualified falls back to hypothesis 0
    bad = np.array([[[[0.0, 0.0, -1.0]]], [[[100.0, 0.0, 2000.0]]]])
    kp = cam.project(bad[1])
    if not np.array_equal(jpma_aggregate(bad, kp, cam), bad[1]):
        return "behind-camera hypothesis was not disqualified"
    all_bad = -np.abs(bad)
    if not np.array_equal(jpma_aggregate(all_bad, kp, cam), all_bad[0]):
        return "all-disqualified position did not fall back to hypothesis 0"
    return ""


def check_mpjpe(rng):
    gt = RngStream(2).normal((3, 4, 3))
    if mpjpe(gt, gt) != 0.0:
        return "identical inputs must give 0"
    single = np.zeros((1, 1, 3))
    if mpjpe(single + np.array([3.0, 4.0, 0.0]), single) != 5.0:
        return "single-joint 3-4-5 offset must give exactly 5"
    shifted = gt.copy()
    shifted[1, 2] += np.array([3.0, 4.0, 0.0])
    expect = 5.0 / 12.0  # one joint-frame off by a 3-4-5 triangle, averaged over 12
    if abs(mpjpe(shifted, gt) - expect) > 1e-12:
        return "3-4-5 offset mismatch"
    doubled = gt + 2 * (shifted - gt)
    if abs(mpjpe(doubled, gt) - 2 * expect) > 1e-12:
        return "metric not homogeneous"
    return ""


# ---------------------------------------------------------------------------
# checks: denoiser
# ---------------------------------------------------------------------------

def _small_cfg(**kw) -> DenoiserConfig:
    base = dict(
        joints=5, frames=12, embed_dim=16, keep_frames=6, corr_topk=4,
        blocks=3, sparse_blocks=2, heads=2, mlp_ratio=2.0, pool_threshold=0.5, knn_k=3,
    )
    base.update(kw)
    return DenoiserConfig(**base)


def check_shape_contract(rng):
    for joints in (5, 17):
        for frames in (9, 27, 81, 243):
            cfg = DenoiserConfig(
                joints=joints, frames=frames, embed_dim=32, keep_frames=max(1, frames // 3),
                corr_topk=min(8, frames), blocks=2, sparse_blocks=1, heads=2, mlp_ratio=2.0,
                knn_k=min(5, frames - 1) if frames > 1 else 1,
            )
            params = init_params(cfg, seed=1)
            out = denoise_forward(
                gaussian(RngStream(4), (joints, frames, 3)),
                gaussian(RngStream(5), (joints, frames, 2)),
                t=500, cfg=cfg, params=params,
            )
            if out.shape != (joints, frames, 3):
                return f"(J={joints}, F={frames}): output shape {out.shape}"
            if not np.isfinite(out).all():
                return f"(J={joints}, F={frames}): non-finite output"
    return ""


def check_dense_degenerate_equivalence(rng):
    """Acceptance: full-mask, no-prune settings equal the dense reference."""
    cfg = DenoiserConfig(
        joints=17, frames=27, embed_dim=64, keep_frames=27, corr_topk=26,
        blocks=3, sparse_blocks=2, heads=4, mlp_ratio=2.0, pool_threshold=1e-9, knn_k=5,
    )
    params = init_params(cfg, seed=8)
    noisy = gaussian(RngStream(21), (17, 27, 3))
    keypoints = gaussian(RngStream(22), (17, 27, 2))
    pruned_path = denoise_forward(noisy, keypoints, 700, cfg, params)
    dense_path = dense_reference_forward(noisy, keypoints, 700, cfg, params)
    diff = np.max(np.abs(pruned_path - dense_path))
    if diff > 1e-10:
        return f"max diff {diff:.2e} exceeds 1e-10"
    return ""


def check_frame_permutation_sanity(rng):
    cfg = _small_cfg(temporal_graph="full", frames=8, keep_frames=4, knn_k=3)
    params = init_params(cfg, seed=3)
    params.spatial_pos[...] = 0.0
    params.temporal_pos[...] = 0.0
    noisy = gaussian(RngStream(31), (cfg.joints, cfg.frames, 3))
    keypoints = gaussian(RngStream(32), (cfg.joints, cfg.frames, 2))
    out = denoise_forward(noisy, keypoints, 300, cfg, params)
    perm = np.array([5, 2, 7, 0, 3, 6, 1, 4])
    out_p = denoise_forward(noisy[:, perm], keypoints[:, perm], 300, cfg, params)
    if np.max(np.abs(out_p - out[:, perm])) > 1e-9:
        return f"frame permutation does not commute (diff {np.max(np.abs(out_p - out[:, perm])):.2e})"
    return ""


def check_finite_outputs(rng):
    cfg = _small_cfg()
    for seed in range(100):
        params = init_params(cfg, seed=seed)
        out = denoise_forward(
            gaussian(RngStream(1000 + seed), (cfg.joints, cfg.frames, 3)),
            gaussian(RngStream(2000 + seed), (cfg.joints, cfg.frames, 2)),
            t=seed % 1001, cfg=cfg, params=params,
        )
        if not np.isfinite(out).all():
            return f"seed {seed}: non-finite output"
    return ""


def check_denoiser_determinism(rng):
    cfg = _small_cfg()
    params = init_params(cfg, seed=6)
    noisy = gaussian(RngStream(61), (cfg.joints, cfg.frames, 3))
    keypoints = gaussian(RngStream(62), (cfg.joints, cfg.frames, 2))
    a = denoise_forward(noisy, keypoints, 100, cfg, params)
    b = denoise_forward(noisy, keypoints, 100, cfg, params)
    if not np.array_equal(a, b):
        return "two identical calls differ"
    return ""


def check_gcn_matches_naive(rng):
    adj = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])  # 3-joint chain
    tokens = rng.normal((3, 4, 5))
    w = rng.normal((5, 5)) / math.sqrt(5)
    fast = spatial_gcn(tokens, adj, w)
    slow = naive_gcn(tokens, adj.tolist(), w)
    if np.max(np.abs(fast - slow)) > 1e-12:
        return "gcn differs from loop oracle"
    if not np.array_equal(spatial_gcn(tokens, adj, np.zeros((5, 5))), tokens):
        return "zero weights did not reduce to identity"
    ident = spatial_gcn(tokens, np.eye(3), w)
    per_joint = tokens + gelu(linear(tokens, w))
    if np.max(np.abs(ident - per_joint)) > 1e-12:
        return "identity adjacency should mean per-joint update only"
    try:
        asym = adj.copy()
        asym[0, 2] = 1.0
        normalize_adjacency(asym)
        return "asymmetric adjacency accepted"
    except ValueError:
        pass
    return ""


def check_timestep_embedding(rng):
    feats = timestep_features(0, 16)
    if np.any(feats[:8] != 0.0) or np.any(feats[8:] != 1.0):
        return "t=0 must give sin=0, cos=1"
    seen = {}
    for t in range(0, 1001):
        key = timestep_features(t, 16).tobytes()
        if key in seen:
            return f"t={t} collides with t={seen[key]}"
        seen[key] = t
    return ""


def check_checkpoint_roundtrip(rng):
    cfg = _small_cfg()
    params = init_params(cfg, seed=12)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.ckpt"
        save_denoiser_params(path, params)
        loaded = load_denoiser_params(path, cfg)
        saved, back = _tensors_by_name(params), _tensors_by_name(loaded)
        changed = [name for name in saved if not np.array_equal(back[name], saved[name])]
        if changed:
            return f"tensors changed in round trip: {changed}"
        a = denoise_forward(
            gaussian(RngStream(71), (cfg.joints, cfg.frames, 3)),
            gaussian(RngStream(72), (cfg.joints, cfg.frames, 2)), 50, cfg, params)
        b = denoise_forward(
            gaussian(RngStream(71), (cfg.joints, cfg.frames, 3)),
            gaussian(RngStream(72), (cfg.joints, cfg.frames, 2)), 50, cfg, loaded)
        if not np.array_equal(a, b):
            return "loaded params change the forward pass"
        try:
            load_denoiser_params(path, _small_cfg(embed_dim=32))
            return "shape mismatch not rejected"
        except htp_io.FormatError:
            pass
    return ""


# ---------------------------------------------------------------------------
# checks: MACs profiler
# ---------------------------------------------------------------------------

def check_macs_examples(rng):
    if macs_linear(1, 1, 1) != 1:
        return "unit linear count wrong"
    if macs_linear(17 * 243, 512, 512) != 17 * 243 * 512 * 512:
        return "direct multiplication mismatch"
    if macs_linear(2 * 17 * 243, 512, 512) != 2 * macs_linear(17 * 243, 512, 512):
        return "doubling tokens must double the count"
    # tiny dense instance counted by an explicit enumeration loop
    j, frames, dim, heads = 1, 2, 2, 1
    muls = 0
    for _ in range(j * frames):  # each token through q, k, v, o projections
        muls += 4 * dim * dim
    for _ in range(j):
        for _ in range(heads):
            for _ in range(frames):
                for _ in range(frames):
                    muls += dim // heads  # score dot product
                    muls += dim // heads  # context accumulation
    if macs_attention(frames, j, dim, heads) != muls:
        return f"tiny attention count {macs_attention(frames, j, dim, heads)} != enumerated {muls}"
    full = macs_attention(8, 2, 16, 2)
    half = macs_attention(8, 2, 16, 2, support_total=(2 * 8 * 8) // 2)
    proj = 4 * macs_linear(16, 16, 16)
    if (full - proj) != 2 * (half - proj):
        return "halving support must halve score/context MACs"
    return ""


def check_macs_acceptance(rng):
    cfg = DenoiserConfig()
    report = profile_model(cfg, hypotheses=20, iterations=10)
    # (a) post-prune score/context ratio is exactly (54/243)^2
    proj = 4 * macs_linear(cfg.joints * cfg.keep_frames, cfg.embed_dim, cfg.embed_dim)
    proj_full = 4 * macs_linear(cfg.joints * cfg.frames, cfg.embed_dim, cfg.embed_dim)
    sc_kept = macs_attention(cfg.keep_frames, cfg.joints, cfg.embed_dim, cfg.heads) - proj
    sc_full = macs_attention(cfg.frames, cfg.joints, cfg.embed_dim, cfg.heads) - proj_full
    if Fraction(sc_kept, sc_full) != Fraction(54, 243) ** 2:
        return "score/context ratio is not exactly (54/243)^2"
    # (b) totals within +-15% of the published model costs
    if not 0.85 * 278.1e9 <= report.dense_single_pass <= 1.15 * 278.1e9:
        return f"dense total {report.dense_single_pass / 1e9:.1f}G outside 278.1G +-15%"
    if not 0.85 * 175.3e9 <= report.single_pass_total <= 1.15 * 175.3e9:
        return f"pruned total {report.single_pass_total / 1e9:.1f}G outside 175.3G +-15%"
    # (c) inference scaling and reduction
    for iterations in (1, 5, 10):
        rep_k = profile_model(cfg, hypotheses=20, iterations=iterations)
        if rep_k.inference_total != rep_k.inference_single_pass * 20 * iterations:
            return "inference total does not scale exactly by H * K"
        if rep_k.dense_inference_total != rep_k.dense_single_pass * 20 * iterations:
            return "dense inference total does not scale exactly by H * K"
    if not 0.51 <= report.inference_reduction <= 0.61:
        return f"inference reduction {report.inference_reduction:.3f} outside 56% +- 5 points"
    # structural invariants
    if sum(c for _, c in report.stages) != report.single_pass_total:
        return "stage sum does not equal the total"
    if any(c < 0 or not isinstance(c, int) for _, c in report.stages):
        return "non-integer or negative stage count"
    one = profile_model(cfg, 1, 1)
    if one.inference_total != one.inference_single_pass:
        return "H=1, K=1 must equal a single pass"
    for keep in (27, 54, 108, 243):
        small = DenoiserConfig(keep_frames=keep)
        rep = profile_model(small, 1, 1)
        if rep.dense_single_pass < rep.single_pass_total:
            return f"dense profile smaller than pruned profile at keep={keep}"
    return ""


# ---------------------------------------------------------------------------
# checks: file formats, config, synthetic data
# ---------------------------------------------------------------------------

def check_htp1_roundtrip(rng):
    with tempfile.TemporaryDirectory() as tmp:
        for shape in ((7,), (3, 5), (2, 3, 4)):
            arr = rng.normal(shape)
            path = Path(tmp) / "t.htp1"
            htp_io.write_tensor(path, arr)
            back = htp_io.read_tensor(path)
            if back.shape != arr.shape or not np.array_equal(back, arr):
                return f"round trip failed for rank {len(shape)}"
        bad = Path(tmp) / "bad.htp1"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        try:
            htp_io.read_tensor(bad)
            return "bad magic accepted"
        except htp_io.FormatError:
            pass
    return ""


def check_pose_csv_roundtrip(rng):
    with tempfile.TemporaryDirectory() as tmp:
        for width in (2, 3):
            pose = rng.normal((4, 6, width)) * 1234.5
            path = Path(tmp) / "p.csv"
            htp_io.write_pose_csv(path, pose)
            back = htp_io.read_pose_csv(path)
            if back.shape != pose.shape or not np.array_equal(back, pose):
                return f"round trip failed for width {width}"
        sparse = Path(tmp) / "sparse.csv"
        sparse.write_text("frame,joint,x,y,z\n0,0,1.0,2.0,3.0\n2,0,1.0,2.0,3.0\n")
        try:
            htp_io.read_pose_csv(sparse)
            return "non-dense file accepted"
        except htp_io.FormatError:
            pass
    return ""


def check_config_rejection(rng):
    bad_cases = [
        ({"keep_frames": 300}, "keep_frames"),
        ({"sparse_blocks": 9}, "sparse_blocks"),
        ({"corr_topk": 0}, "corr_topk"),
        ({"pool_threshold": 0.0}, "pool_threshold"),
        ({"ddim_eta": 1.5}, "ddim_eta"),
        ({"no_such_key": 1}, "no_such_key"),
        ({"camera": {"fx": 1000.0}}, "camera"),
        ({"schedule": "warp"}, "schedule"),
    ]
    for overrides, needle in bad_cases:
        try:
            load_config(None, overrides)
            return f"{overrides} was accepted"
        except ConfigError as exc:
            if needle not in str(exc):
                return f"error for {overrides} does not name {needle!r}: {exc}"
        except Exception as exc:  # anything else is the forbidden downstream failure
            return f"{overrides} raised {type(exc).__name__} instead of ConfigError"
    load_config(None, {})  # defaults must validate
    return ""


def check_synthetic_and_camera_loop(rng):
    cam = CameraModel(fx=1145.0, fy=1145.0, cx=512.0, cy=512.0)
    for kind in ("static", "walk_cycle", "random_smooth"):
        a3, a2 = generate_synthetic(5, 20, 42, kind, cam)
        b3, b2 = generate_synthetic(5, 20, 42, kind, cam)
        if not np.array_equal(a3, b3) or not np.array_equal(a2, b2):
            return f"{kind}: same seed produced different sequences"
        if a3.shape != (5, 20, 3) or a2.shape != (5, 20, 2):
            return f"{kind}: bad shapes"
    static, _ = generate_synthetic(4, 10, 3, "static", cam)
    if np.any(static != static[:, :1, :]):
        return "static kind must repeat one pose"
    # closing the camera loop: H copies of the truth reproject exactly
    pose, kp = generate_synthetic(5, 8, 7, "walk_cycle", cam, noise_2d=0.0)
    agg = jpma_aggregate(np.repeat(pose[None], 3, axis=0), kp, cam)
    if np.max(np.linalg.norm(cam.project(agg) - kp, axis=-1)) != 0.0:
        return "noise-free reprojection error is not zero"
    try:
        generate_synthetic(5, 8, 7, "teleport", cam)
        return "invalid motion kind accepted"
    except ValueError:
        pass
    return ""


def check_similarity_exactly_symmetric(rng):
    """frame_similarity equals its own transpose bitwise, with no symmetrizing
    pass, on 2-D and (J, F, D) tokens, on swapped and strided views, and at
    D = 1 and F = 1. At (F, D) = (243, 64) numpy runs a strided operand as a
    gemm that is not symmetric, so the views check the contiguous copy."""
    frames, dim = 243, 64
    wide = rng.normal((3, 2 * frames, 3 * dim))
    cases = {
        "2-D": rng.normal((frames, dim)),
        "(J, F, D)": rng.normal((3, frames, dim)),
        "swapped (F, D) axes": np.swapaxes(rng.normal((3, dim, frames)), -1, -2),
        "swapped (J, F) axes": np.swapaxes(rng.normal((frames, 3, dim)), 0, 1),
        "strided 2-D": wide[0, ::2, ::3],
        "strided (J, F, D)": wide[:, ::2, ::3],
        "D = 1": rng.normal((3, frames, 1)),
        "F = 1": rng.normal((3, 1, dim)),
    }
    for name, tokens in cases.items():
        sim = frame_similarity(tokens)
        if sim.shape != tokens.shape[:-1] + tokens.shape[-2:-1]:
            return f"{name}: shape {sim.shape} for tokens {tokens.shape}"
        if not np.array_equal(sim, np.swapaxes(sim, -1, -2)):
            return f"{name}: similarity is not exactly symmetric"
    return ""


def check_topk_mask_infinite_and_tied_scores(rng):
    """select_topk_mask equals the stable-sort oracle on 300 instances whose scores are drawn from
    {-inf, -1, 0, 1, +inf}: most picks tie, and a row's k-th best may be -inf (F <= 12, top_k past F-1)."""
    levels = np.array([NEG_INF, -1.0, 0.0, 1.0, np.inf])
    for trial in range(300):
        frames = int(rng.uniform(2, 13, ()))
        top_k = int(rng.uniform(1, frames + 2, ()))
        scores = levels[rng.uniform(0.0, len(levels), (frames, frames)).astype(int)]
        if trial % 2:  # symmetric, as a frame similarity is
            scores = np.where(np.triu(np.ones((frames, frames), dtype=bool)), scores, scores.T)
        if not np.array_equal(select_topk_mask(scores, top_k), naive_topk_mask(scores.tolist(), top_k)):
            return f"trial {trial} (F={frames}, top_k={top_k}): disagrees with stable-sort oracle"
    return ""


def naive_init_params(cfg: DenoiserConfig, seed: int):
    """One sequential walk of the parameter table on one stream: each drawn tensor is the next
    uniform(+-1/sqrt(fan_in)) run of RngStream(seed), each constant a fill."""
    stream = RngStream(seed)

    def tensor(name, shape, init):
        if isinstance(init, float):
            return np.full(shape, init)
        bound = 1.0 / np.sqrt(init)
        return stream.uniform(-bound, bound, shape)

    return htp_denoiser._build_params(cfg, tensor)


def check_init_params_worker_split(rng):
    """init_params split over 1, 2 and 3 worker threads, each drawing its run of tensors from a stream
    started at the run's offset, equals one sequential walk of the table, bitwise (one config with an
    odd embed_dim, so no tensor size is a multiple of Philox's 4-draw block)."""
    for cfg in (_small_cfg(), _small_cfg(embed_dim=7, heads=1, mlp_ratio=1.5)):
        seed = int(rng.uniform(0, 2**31, ()))
        expected = htp_denoiser._leaves(naive_init_params(cfg, seed))
        for workers in (1, 2, 3):
            got = htp_denoiser._leaves(htp_denoiser._init_params(cfg, seed, workers))
            if len(got) != len(expected) or not all(
                np.array_equal(a, b) and np.shape(a) == np.shape(b) for a, b in zip(got, expected)
            ):
                return f"embed_dim={cfg.embed_dim}, seed {seed}: {workers} workers differ from one sequential walk"
    return ""


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

CHECKS = [
    ("softmax_probability_vector", check_softmax_probability_vector),
    ("linear_matches_naive", check_linear_matches_naive),
    ("gelu_layer_norm_contracts", check_gelu_layer_norm),
    ("rng_determinism_and_moments", check_rng_determinism_and_moments),
    ("mask_construction_suite", check_mask_construction_suite),
    ("mask_row_support_upper_bound", check_mask_row_support_upper_bound),
    ("masked_similarity_softmax", check_masked_similarity_softmax),
    ("tcep_refine_matches_naive", check_tcep_refine_matches_naive),
    ("tcep_permutation_equivariance", check_tcep_permutation_equivariance),
    ("selection_monotonicity", check_selection_monotonicity),
    ("attention_dense_equivalence", check_attention_dense_equivalence),
    ("attention_masked_zero_rowsum", check_attention_masked_zero_rowsum),
    ("attention_frame_permutation", check_attention_frame_permutation),
    ("sparse_route_matches_naive", check_sparse_route_matches_naive),
    ("ffn_matches_naive", check_ffn_matches_naive),
    ("sparse_macs_hook", check_sparse_macs_hook),
    ("mgptp_oracle_500", check_mgptp_oracle_500),
    ("mgptp_invariants", check_mgptp_invariants),
    ("mgptp_examples", check_mgptp_examples),
    ("schedule", check_schedule),
    ("forward_and_eps", check_forward_and_eps),
    ("ddim_sigma_arithmetic", check_ddim_sigma_arithmetic),
    ("sampler_consistency", check_sampler_consistency),
    ("forward_statistics", check_forward_statistics),
    ("timestep_rule", check_timestep_rule),
    ("jpma", check_jpma),
    ("mpjpe", check_mpjpe),
    ("shape_contract", check_shape_contract),
    ("dense_degenerate_equivalence", check_dense_degenerate_equivalence),
    ("frame_permutation_sanity", check_frame_permutation_sanity),
    ("finite_outputs", check_finite_outputs),
    ("denoiser_determinism", check_denoiser_determinism),
    ("gcn_matches_naive", check_gcn_matches_naive),
    ("timestep_embedding", check_timestep_embedding),
    ("checkpoint_roundtrip", check_checkpoint_roundtrip),
    ("macs_examples", check_macs_examples),
    ("macs_acceptance", check_macs_acceptance),
    ("htp1_roundtrip", check_htp1_roundtrip),
    ("pose_csv_roundtrip", check_pose_csv_roundtrip),
    ("config_rejection", check_config_rejection),
    ("synthetic_and_camera_loop", check_synthetic_and_camera_loop),
    ("similarity_exactly_symmetric", check_similarity_exactly_symmetric),
    ("topk_mask_infinite_and_tied_scores", check_topk_mask_infinite_and_tied_scores),
    ("init_params_worker_split", check_init_params_worker_split),
]


def run_all(seed: int = 2024, echo: bool = False) -> list[CheckResult]:
    """Execute every oracle and invariant check; optionally print as we go."""
    results = []
    for index, (name, fn) in enumerate(CHECKS):
        rng = RngStream(seed).child(index)
        start = time.perf_counter()
        try:
            detail = fn(rng)
            passed = detail == ""
        except Exception as exc:  # a crash is a failure, not an abort
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        elapsed = time.perf_counter() - start
        results.append(CheckResult(name, passed, detail, elapsed))
        if echo:
            status = "PASS" if passed else "FAIL"
            line = f"{status}  {name} ({elapsed:.2f}s)"
            if detail:
                line += f": {detail}"
            print(line)
    return results
