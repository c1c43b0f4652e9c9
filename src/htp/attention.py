"""Multi-head self-attention restricted to a boolean temporal mask.

The mask converts to an additive {0, -inf} mask applied to the
pre-softmax scores, so excluded positions receive an exactly-zero weight;
on the sparse route only the admitted pairs are scored at all. The same
core runs unmasked attention (no mask is passed: spatial, pruned-block and
dense-reference attention), the feed-forward block, and length-restoring
cross attention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NEG_INF, ShapeError, admitted_pairs, gelu, layer_norm, linear, softmax_rows, sparse_mix, sparse_route

_PAIR_CHUNK = 1024  # pairs scored per pass: two (1024, D) gathers are 1 MB at D=64
_BLOCK_ROWS = 512  # token rows per block pass: a (512, 3072) FFN activation is 12.6 MB at paper geometry


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
    if mask.dtype != bool:  # a bool mask is binary by type
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask not binary")
        mask = mask == 1
    return np.where(mask, 0.0, NEG_INF)


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
    """q of the normed query stream and k, v of the normed key/value stream, heads not yet split.

    q is scaled by 1/sqrt(dk) here, before the score product rather than on the Tq x Tk matrix.
    """
    dim = w.wq.shape[0]
    if dim % w.heads != 0:
        raise ShapeError(f"attention: dim {dim} not divisible by {w.heads} heads")
    q = linear(xq, w.wq)
    q /= np.sqrt(dim // w.heads)
    return q, linear(xkv, w.wk), linear(xkv, w.wv)


def _dense_probs(q: np.ndarray, k: np.ndarray, add_mask: np.ndarray | None) -> np.ndarray:
    """Softmax of the masked scores of split-head q and k, (..., heads, Tq, Tk)."""
    scores = q @ np.swapaxes(k, -1, -2)
    if add_mask is not None:
        scores += np.expand_dims(add_mask, -3)  # broadcast over heads
    return softmax_rows(scores, out=scores)


def _pair_scores(q: np.ndarray, k: np.ndarray, add_mask: np.ndarray, pairs: tuple, heads: int) -> np.ndarray:
    """(heads, P) masked scores of one joint's (T, D) q and k at its admitted pairs only.

    The q and k rows of _PAIR_CHUNK pairs are gathered at a time, so the gathered rows stay in cache.
    """
    rows, cols, _ = pairs
    scores = np.empty((heads, len(rows)))
    for lo in range(0, len(rows), _PAIR_CHUNK):
        r, c = rows[lo : lo + _PAIR_CHUNK], cols[lo : lo + _PAIR_CHUNK]
        qr, kc = q[r].reshape(len(r), heads, -1), k[c].reshape(len(r), heads, -1)
        np.einsum("phd,phd->hp", qr, kc, out=scores[:, lo : lo + _PAIR_CHUNK])
    scores += add_mask[rows, cols]
    return scores


def _attend(xq: np.ndarray, xkv: np.ndarray, add_mask: np.ndarray | None, w: AttnWeights | CrossWeights) -> np.ndarray:
    """Multi-head attention of normed queries over normed keys/values, heads merged and projected by wo.

    add_mask is None (dense) or {0, -inf} of shape q.shape[:-1] + (Tk,). core.sparse_route picks the route of
    each leading slice (joint): the dense route adds add_mask to its (heads, Tq, Tk) scores; the
    sparse route scores only the pairs where add_mask is finite, and core.sparse_mix softmaxes
    and mixes them.
    """
    q, k, v = _project(xq, xkv, w)
    qs, ks, vs = (_split_heads(x, w.heads) for x in (q, k, v))
    if add_mask is None:
        ctx = _dense_probs(qs, ks, None) @ vs
    else:
        ctx = np.empty(qs.shape)
        for idx in np.ndindex(*q.shape[:-2]):
            if sparse_route(admitted := np.isfinite(add_mask[idx])):
                pairs = admitted_pairs(admitted)
                ctx[idx] = sparse_mix(_pair_scores(q[idx], k[idx], add_mask[idx], pairs, w.heads), pairs, vs[idx])
            else:
                ctx[idx] = _dense_probs(qs[idx], ks[idx], add_mask[idx]) @ vs[idx]
    return linear(_merge_heads(ctx), w.wo)


def attention_probs(tokens: np.ndarray, add_mask: np.ndarray | None, w: AttnWeights) -> np.ndarray:
    """Per-head post-softmax weights of sft_mhsa on the dense route, shape (..., heads, T, T)."""
    x = layer_norm(tokens, w.ln_scale, w.ln_shift)
    q, k, _ = _project(x, x, w)
    return _dense_probs(_split_heads(q, w.heads), _split_heads(k, w.heads), add_mask)


def _checked_mask(tokens: np.ndarray, add_mask: np.ndarray | None) -> np.ndarray | None:
    """add_mask as float64, or ShapeError/ValueError when it is boolean or does not fit the tokens."""
    if add_mask is None:
        return None
    if np.asarray(add_mask).dtype == bool:
        raise ValueError("sft_mhsa: add_mask has dtype bool; convert a boolean mask with to_additive_mask")
    add_mask = np.asarray(add_mask, dtype=np.float64)
    expected = tokens.shape[:-1] + tokens.shape[-2:-1]  # (..., T, T) with the tokens' leading dims
    if add_mask.shape != expected:
        raise ShapeError(f"sft_mhsa: mask {add_mask.shape} does not fit tokens {tokens.shape} (expected {expected})")
    return add_mask


def _flat(x: np.ndarray) -> np.ndarray:
    """(..., T, X) as (n, T, X): a view of any 3-D array, strided or not."""
    return x.reshape(math.prod(x.shape[:-2]), *x.shape[-2:])


def _row_chunks(n: int, t: int):
    """Chunks of the leading axis of n slices of t tokens each, max(1, _BLOCK_ROWS // t) slices per chunk."""
    step = max(1, _BLOCK_ROWS // max(t, 1))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def sft_mhsa(tokens: np.ndarray, add_mask: np.ndarray | None, w: AttnWeights) -> np.ndarray:
    """Masked multi-head self-attention with residual over (..., T, D) tokens.

    add_mask holds {0, -inf} per pair, shape tokens.shape[:-1] + (T,), i.e. (..., T, T) with the same
    leading dims as the tokens (a boolean mask goes through to_additive_mask first);
    None means dense attention. A row with no finite entry raises ValueError("empty support").
    When core.sparse_route finds a joint's finite entries sparse, only they are scored,
    exponentiated and multiplied.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    add_mask = _checked_mask(tokens, add_mask)
    x = layer_norm(tokens, w.ln_scale, w.ln_shift)
    return _attend(x, x, add_mask, w) + tokens


def ffn_block(tokens: np.ndarray, mlp: MlpWeights) -> np.ndarray:
    """Pre-norm MLP with GELU and residual."""
    x = layer_norm(tokens, mlp.ln_scale, mlp.ln_shift)
    return linear(gelu(linear(x, mlp.w1, mlp.b1)), mlp.w2, mlp.b2) + tokens


def attention_block(tokens: np.ndarray, add_mask: np.ndarray | None, w: AttnWeights, mlp: MlpWeights) -> np.ndarray:
    """Attention followed by the feed-forward block, over chunks of about _BLOCK_ROWS token rows.

    Each chunk is max(1, _BLOCK_ROWS // T) leading slices of the (..., T, D) tokens, with the same
    slices of the mask. Every step acts on one slice or one row, so the output is bitwise that of a
    whole-array pass while the temporaries stay chunk-sized.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    add_mask = _checked_mask(tokens, add_mask)
    x, mask = _flat(tokens), None if add_mask is None else _flat(add_mask)
    out = np.empty_like(x)  # laid out like x, so a transposed view in gives a transposed view out
    for s in _row_chunks(*x.shape[:2]):
        out[s] = ffn_block(sft_mhsa(np.ascontiguousarray(x[s]), None if mask is None else mask[s], w), mlp)
    return out.reshape(tokens.shape)


def cross_mhsa(full: np.ndarray, condensed: np.ndarray, w: CrossWeights) -> np.ndarray:
    """Restore full sequence length by attending from full-length queries
    to condensed keys/values, residual-added onto the full stream.

    full is (J, F, D), condensed is (J, f, D); output is (J, F, D). Like attention_block, it runs over
    chunks of max(1, _BLOCK_ROWS // F) joints, bitwise equal to one whole-array pass.
    """
    full = np.asarray(full, dtype=np.float64)
    condensed = np.asarray(condensed, dtype=np.float64)
    if condensed.shape[-2] < 1:
        raise ShapeError("cross_mhsa: condensed stream is empty")
    if full.shape[-1] != condensed.shape[-1] or full.shape[:-2] != condensed.shape[:-2]:
        raise ShapeError(f"cross_mhsa: leading or feature dims differ: {full.shape} vs {condensed.shape}")
    q_in, kv_in = _flat(full), _flat(condensed)
    out = np.empty(q_in.shape)
    for s in _row_chunks(*q_in.shape[:2]):
        kv = layer_norm(kv_in[s], w.ln_kv_scale, w.ln_kv_shift)
        np.add(_attend(layer_norm(q_in[s], w.ln_q_scale, w.ln_q_shift), kv, None, w), q_in[s], out=out[s])
    return out.reshape(full.shape)
