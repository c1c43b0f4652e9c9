"""Multi-head self-attention restricted to a boolean temporal mask.

The mask converts to an additive {0, -inf} mask applied to the
pre-softmax scores, so excluded positions receive an exactly-zero weight.
The same machinery runs dense attention (zero mask), the feed-forward
block, and length-restoring cross attention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, ShapeError, gelu, layer_norm, linear, softmax_rows, sparse_mix, sparse_route


@dataclass
class AttnWeights:
    """Projection weights for one attention layer; D must divide by heads."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int
    ln_scale: np.ndarray
    ln_shift: np.ndarray


@dataclass
class MlpWeights:
    """Two affine layers with GELU between, plus the pre-norm affine."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln_scale: np.ndarray
    ln_shift: np.ndarray


@dataclass
class CrossWeights:
    """Cross-attention projections with separate pre-norms for each stream."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    heads: int
    ln_q_scale: np.ndarray
    ln_q_shift: np.ndarray
    ln_kv_scale: np.ndarray
    ln_kv_shift: np.ndarray


def to_additive_mask(mask: np.ndarray) -> np.ndarray:
    """Map a boolean or 0/1 mask elementwise: 1 -> 0, 0 -> -inf."""
    mask = np.asarray(mask)
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("mask not binary")
    return np.where(mask == 1, 0.0, NEG_INF)


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    # (..., T, D) -> (..., heads, T, D/heads)
    *lead, t, dim = x.shape
    x = x.reshape(*lead, t, heads, dim // heads)
    return np.moveaxis(x, -2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    x = np.moveaxis(x, -3, -2)
    *lead, t, heads, dk = x.shape
    return x.reshape(*lead, t, heads * dk)


def _project(xq: np.ndarray, xkv: np.ndarray, w: AttnWeights | CrossWeights) -> tuple[np.ndarray, ...]:
    """Split-head q of the normed query stream and k, v of the normed key/value stream.

    q is scaled by 1/sqrt(dk) here, before the score product rather than on the Tq x Tk matrix.
    """
    dim = w.wq.shape[0]
    if dim % w.heads != 0:
        raise ShapeError(f"attention: dim {dim} not divisible by {w.heads} heads")
    q = _split_heads(linear(xq, w.wq), w.heads)
    q /= np.sqrt(q.shape[-1])
    return q, _split_heads(linear(xkv, w.wk), w.heads), _split_heads(linear(xkv, w.wv), w.heads)


def _dense_probs(q: np.ndarray, k: np.ndarray, add_mask: np.ndarray | None) -> np.ndarray:
    """Softmax of the masked scores of split-head q and k, (..., heads, Tq, Tk)."""
    scores = q @ np.swapaxes(k, -1, -2)
    if add_mask is not None:
        scores += np.expand_dims(add_mask, -3)  # broadcast over heads
    return softmax_rows(scores)


def _attend(xq: np.ndarray, xkv: np.ndarray, add_mask: np.ndarray | None, w: AttnWeights | CrossWeights) -> np.ndarray:
    """Multi-head attention of normed queries over normed keys/values, heads merged and projected by wo.

    add_mask is None (dense) or {0, -inf} per (..., Tq, Tk). When core.sparse_route finds its finite
    entries sparse, each leading slice (joint) adds add_mask to its (heads, Tq, Tk) scores as the
    dense route does, and core.sparse_mix softmaxes and mixes only where it is finite.
    """
    q, k, v = _project(xq, xkv, w)
    if add_mask is None or not sparse_route(admitted := np.isfinite(add_mask)):
        ctx = _dense_probs(q, k, add_mask) @ v
    else:
        shape = q.shape[:-3] + add_mask.shape[-2:]
        add_mask, admitted = np.broadcast_to(add_mask, shape), np.broadcast_to(admitted, shape)
        ctx = np.empty(q.shape)
        for idx in np.ndindex(*q.shape[:-3]):
            scores = q[idx] @ np.swapaxes(k[idx], -1, -2)
            scores += add_mask[idx]
            ctx[idx] = sparse_mix(scores, admitted[idx], v[idx])
    return linear(_merge_heads(ctx), w.wo)


def attention_probs(tokens: np.ndarray, add_mask: np.ndarray | None, w: AttnWeights) -> np.ndarray:
    """Per-head post-softmax weights of sft_mhsa on the dense route, shape (..., heads, T, T)."""
    x = layer_norm(tokens, w.ln_scale, w.ln_shift)
    q, k, _ = _project(x, x, w)
    return _dense_probs(q, k, add_mask)


def sft_mhsa(tokens: np.ndarray, add_mask: np.ndarray | None, w: AttnWeights) -> np.ndarray:
    """Masked multi-head self-attention with residual over (..., T, D) tokens.

    add_mask holds {0, -inf} per (..., T, T); None means dense attention.
    A row with no finite entry raises ValueError("empty support"). When core.sparse_route
    finds the finite entries sparse, only they are exponentiated and multiplied.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if add_mask is not None:
        add_mask = np.asarray(add_mask, dtype=np.float64)
        if add_mask.shape[-2:] != (tokens.shape[-2], tokens.shape[-2]):
            raise ShapeError(f"sft_mhsa: mask {add_mask.shape} does not match {tokens.shape[-2]} tokens")
    x = layer_norm(tokens, w.ln_scale, w.ln_shift)
    return _attend(x, x, add_mask, w) + tokens


def ffn_block(tokens: np.ndarray, mlp: MlpWeights) -> np.ndarray:
    """Pre-norm MLP with GELU and residual."""
    x = layer_norm(tokens, mlp.ln_scale, mlp.ln_shift)
    return linear(gelu(linear(x, mlp.w1, mlp.b1)), mlp.w2, mlp.b2) + tokens


def attention_block(tokens: np.ndarray, add_mask: np.ndarray | None, w: AttnWeights, mlp: MlpWeights) -> np.ndarray:
    """Attention followed by the feed-forward block."""
    return ffn_block(sft_mhsa(tokens, add_mask, w), mlp)


def cross_mhsa(full: np.ndarray, condensed: np.ndarray, w: CrossWeights) -> np.ndarray:
    """Restore full sequence length by attending from full-length queries
    to condensed keys/values, residual-added onto the full stream.

    full is (J, F, D), condensed is (J, f, D); output is (J, F, D).
    """
    full = np.asarray(full, dtype=np.float64)
    condensed = np.asarray(condensed, dtype=np.float64)
    if condensed.shape[-2] < 1:
        raise ShapeError("cross_mhsa: condensed stream is empty")
    if full.shape[-1] != condensed.shape[-1]:
        raise ShapeError(f"cross_mhsa: feature dims differ: {full.shape} vs {condensed.shape}")
    kv_in = layer_norm(condensed, w.ln_kv_scale, w.ln_kv_shift)
    return _attend(layer_norm(full, w.ln_q_scale, w.ln_q_shift), kv_in, None, w) + full
