"""Mask-restricted multi-head attention, feed-forward, and cross attention."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from htp import attention
from htp.attention import (
    AttnWeights,
    CrossWeights,
    MlpWeights,
    attention_block,
    attention_probs,
    cross_mhsa,
    ffn_block,
    sft_mhsa,
    to_additive_mask,
)
from htp.core import NEG_INF, RngStream, ShapeError, sparse_route
from htp.verify import (
    _random_attn,
    _random_binary_mask,
    _random_mlp,
    naive_attention,
    naive_cross_attention,
    naive_ffn,
)


def _random_cross(rng, dim, heads):
    a = _random_attn(rng, dim, heads)
    return CrossWeights(
        wq=a.wq, wk=a.wk, wv=a.wv, wo=a.wo, heads=heads,
        ln_q_scale=a.ln_scale, ln_q_shift=a.ln_shift,
        ln_kv_scale=a.ln_scale, ln_kv_shift=a.ln_shift,
    )


class TestAdditiveMask:
    def test_all_ones_maps_to_zeros(self):
        out = to_additive_mask(np.ones((2, 3, 3), dtype=bool))
        assert out.dtype == np.float32
        assert np.array_equal(out, np.zeros((2, 3, 3)))

    def test_identity_mask(self):
        out = to_additive_mask(np.eye(4, dtype=bool))
        assert np.all(np.diag(out) == 0.0)
        assert np.all(out[~np.eye(4, dtype=bool)] == NEG_INF)

    def test_roundtrip_bijection(self):
        mask = _random_binary_mask(RngStream(1), 2, 5)
        add = to_additive_mask(mask)
        assert np.array_equal(add == 0.0, mask)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="to_additive_mask: mask has dtype float64; expected bool"):
            to_additive_mask(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint8])
    def test_zero_one_mask_of_any_other_dtype_rejected(self, dtype):
        # a 0/1 mask is refused by its dtype, not read as a boolean
        mask = _random_binary_mask(RngStream(14), 2, 5).astype(dtype)
        with pytest.raises(ValueError, match=f"mask has dtype {np.dtype(dtype)}; expected bool"):
            to_additive_mask(mask)


class TestMaskedAttention:
    def test_full_mask_equals_dense_oracle(self):
        rng = RngStream(2)
        for trial in range(10):
            heads = (1, 2)[trial % 2]
            dim = 4 * heads
            tokens = rng.normal((2, 4, dim))
            w = _random_attn(rng, dim, heads)
            full = to_additive_mask(np.ones((2, 4, 4), dtype=bool))
            assert np.max(np.abs(sft_mhsa(tokens, full, w) - naive_attention(tokens, None, w))) < 1e-12

    def test_masked_two_head_instance(self):
        # J=1, F=4, D=4, h=2 with a random mask against the loop oracle
        rng = RngStream(3)
        tokens = rng.normal((1, 4, 4))
        w = _random_attn(rng, 4, 2)
        mask = _random_binary_mask(rng, 1, 4)
        add = to_additive_mask(mask)
        probs = attention_probs(tokens, add, w)
        assert np.all(probs[np.broadcast_to(~mask[:, None], probs.shape)] == 0.0)
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-12
        assert np.max(np.abs(sft_mhsa(tokens, add, w) - naive_attention(tokens, add, w))) < 1e-12

    def test_output_is_combination_of_supported_values_only(self):
        # zeroing a value row outside the support of a query must not change it
        rng = RngStream(4)
        tokens = rng.normal((1, 4, 4))
        w = _random_attn(rng, 4, 2)
        mask = np.ones((1, 4, 4), dtype=bool)
        mask[0, 0, 3] = mask[0, 3, 0] = False
        out = sft_mhsa(tokens, to_additive_mask(mask), w)
        tokens_mod = tokens.copy()
        tokens_mod[0, 3] += 100.0  # frame 3 is outside frame 0's support
        out_mod = sft_mhsa(tokens_mod, to_additive_mask(mask), w)
        assert np.array_equal(out[0, 0], out_mod[0, 0])

    def test_zero_value_projection_is_residual(self):
        rng = RngStream(5)
        tokens = rng.normal((2, 3, 4))
        w = replace(_random_attn(rng, 4, 2), wv=np.zeros((4, 4)))
        assert np.array_equal(sft_mhsa(tokens, None, w), tokens)

    def test_all_masked_row_raises(self):
        rng = RngStream(6)
        tokens = rng.normal((1, 3, 4))
        add = np.zeros((1, 3, 3))
        add[0, 1, :] = NEG_INF  # manually broken row
        with pytest.raises(ValueError, match="empty support"):
            sft_mhsa(tokens, add, _random_attn(rng, 4, 2))

    def test_boolean_mask_rejected(self):
        # a boolean mask read as float is a 0/1 score bias that admits every pair
        rng = RngStream(16)
        mask = _random_binary_mask(rng, 2, 12)
        with pytest.raises(ValueError, match="dtype bool.*to_additive_mask"):
            sft_mhsa(rng.normal((2, 12, 8)), mask, _random_attn(rng, 8, 2))

    @pytest.mark.parametrize("mask_shape", [(3, 6, 6), (6, 6), (2, 6, 5), (1, 2, 6, 6)])
    def test_mask_that_does_not_fit_the_tokens_is_shape_error(self, mask_shape):
        rng = RngStream(18)
        with pytest.raises(ShapeError, match=re.escape(f"mask {mask_shape} does not fit tokens (2, 6, 8)")):
            sft_mhsa(rng.normal((2, 6, 8)), np.zeros(mask_shape), _random_attn(rng, 8, 2))

    def test_one_sparse_and_one_dense_joint_match_loop_oracle(self):
        rng = RngStream(17)
        frames = 24
        w = _random_attn(rng, 8, 2)
        tokens = rng.normal((2, frames, 8))
        mask = np.empty((2, frames, frames), dtype=bool)
        mask[0] = np.eye(frames, dtype=bool)
        mask[0, 0] = mask[0, 5, [3, 11]] = True  # a hub row of support F
        mask[1] = _random_binary_mask(rng, 1, frames)[0]
        add = to_additive_mask(mask)
        add[0, 0] = np.where(mask[0, 0], rng.normal((frames,)), NEG_INF)  # finite non-zero values on the hub row
        assert [sparse_route(m) for m in mask] == [True, False]
        assert np.max(np.abs(sft_mhsa(tokens, add, w) - naive_attention(tokens, add, w))) < 1e-12

    def test_float32_mask_equals_its_float64_copy_bitwise(self):
        # 0 and -inf are exact in float32, and every add into the float64 scores upcasts them exactly
        rng = RngStream(19)
        frames = 24
        w, mlp = _random_attn(rng, 8, 2), _random_mlp(rng, 8, 16)
        tokens = rng.normal((2, frames, 8))
        mask = np.empty((2, frames, frames), dtype=bool)
        mask[0] = np.eye(frames, dtype=bool)
        mask[0, 0] = True  # a hub row of support F
        mask[1] = _random_binary_mask(rng, 1, frames)[0]
        assert [sparse_route(m) for m in mask] == [True, False]
        narrow = to_additive_mask(mask)
        wide = narrow.astype(np.float64)
        assert narrow.dtype == np.float32
        assert np.array_equal(sft_mhsa(tokens, narrow, w), sft_mhsa(tokens, wide, w))
        assert np.array_equal(attention_block(tokens, narrow, w, mlp), attention_block(tokens, wide, w, mlp))
        assert np.array_equal(attention_probs(tokens, narrow, w), attention_probs(tokens, wide, w))

    def test_floating_mask_is_used_uncopied(self):
        tokens = np.zeros((2, 5, 8))
        add = to_additive_mask(_random_binary_mask(RngStream(20), 2, 5))
        checked = attention._checked_mask(tokens, add)
        assert checked.dtype == np.float32 and np.shares_memory(checked, add)
        with pytest.raises(ValueError, match="dtype int64"):
            attention._checked_mask(tokens, np.zeros((2, 5, 5), dtype=np.int64))

    def test_heads_must_divide_dim(self):
        rng = RngStream(15)
        w = _random_attn(rng, 6, 4)
        with pytest.raises(ShapeError, match="attention: dim 6 not divisible by 4 heads"):
            sft_mhsa(rng.normal((1, 3, 6)), None, w)

    def test_frame_permutation_consistency(self):
        rng = RngStream(7)
        tokens = rng.normal((2, 5, 8))
        w = _random_attn(rng, 8, 4)
        add = to_additive_mask(_random_binary_mask(rng, 2, 5))
        perm = np.array([4, 2, 0, 3, 1])
        out = sft_mhsa(tokens, add, w)
        out_p = sft_mhsa(tokens[:, perm], add[:, perm][:, :, perm], w)
        assert np.max(np.abs(out_p - out[:, perm])) < 1e-12


class TestFfn:
    def test_zero_mlp_is_identity(self):
        tokens = RngStream(8).normal((2, 3, 4))
        mlp = MlpWeights(
            w1=np.zeros((4, 8)), b1=np.zeros(8), w2=np.zeros((8, 4)), b2=np.zeros(4),
            ln_scale=np.ones(4), ln_shift=np.zeros(4),
        )
        assert np.array_equal(ffn_block(tokens, mlp), tokens)

    def test_constant_rows_see_zero_mean_input(self):
        # LN of a constant row is ~0, so the MLP contributes only its bias path
        mlp = MlpWeights(
            w1=np.full((4, 4), 100.0), b1=np.zeros(4), w2=np.eye(4), b2=np.zeros(4),
            ln_scale=np.ones(4), ln_shift=np.zeros(4),
        )
        tokens = np.full((1, 2, 4), 7.0)
        out = ffn_block(tokens, mlp)
        assert np.max(np.abs(out - tokens)) < 1e-2

    def test_matches_loop_oracle(self):
        rng = RngStream(9)
        for _ in range(5):
            tokens = rng.normal((2, 3, 4))
            mlp = _random_mlp(rng, 4, 8)
            assert np.max(np.abs(ffn_block(tokens, mlp) - naive_ffn(tokens, mlp))) < 1e-12


class TestCrossAttention:
    def test_degenerates_to_self_attention(self):
        # condensed == full with shared norms reproduces masked-free self-attention
        rng = RngStream(10)
        tokens = rng.normal((2, 4, 8))
        w = _random_cross(rng, 8, 2)
        self_attn = AttnWeights(
            wq=w.wq, wk=w.wk, wv=w.wv, wo=w.wo, heads=2,
            ln_scale=w.ln_q_scale, ln_shift=w.ln_q_shift,
        )
        assert np.array_equal(cross_mhsa(tokens, tokens, w), sft_mhsa(tokens, None, self_attn))

    def test_output_length_restored(self):
        rng = RngStream(11)
        full = rng.normal((3, 7, 8))
        for kept in (1, 3, 7):
            out = cross_mhsa(full, rng.normal((3, kept, 8)), _random_cross(rng, 8, 2))
            assert out.shape == (3, 7, 8)

    def test_single_condensed_token_gets_all_attention(self):
        rng = RngStream(12)
        full = rng.normal((1, 5, 4))
        condensed = rng.normal((1, 1, 4))
        w = _random_cross(rng, 4, 2)
        from htp.core import layer_norm, linear

        kv = layer_norm(condensed, w.ln_kv_scale, w.ln_kv_shift)
        expected = linear(np.repeat(linear(kv, w.wv), 5, axis=1), w.wo) + full
        assert np.max(np.abs(cross_mhsa(full, condensed, w) - expected)) < 1e-12

    def test_empty_condensed_rejected(self):
        rng = RngStream(13)
        with pytest.raises(ValueError):
            cross_mhsa(rng.normal((1, 4, 4)), rng.normal((1, 0, 4)), _random_cross(rng, 4, 2))

    def test_heads_must_divide_dim(self):
        rng = RngStream(16)
        eye, ones, zeros = np.eye(6), np.ones(6), np.zeros(6)
        w = CrossWeights(wq=eye, wk=eye, wv=eye, wo=eye, heads=4, ln_q_scale=ones, ln_q_shift=zeros,
                         ln_kv_scale=ones, ln_kv_shift=zeros)
        with pytest.raises(ShapeError, match="attention: dim 6 not divisible by 4 heads"):
            cross_mhsa(rng.normal((1, 5, 6)), rng.normal((1, 3, 6)), w)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("kept", [1, 3, 6])
    def test_matches_loop_oracle(self, heads, kept):
        rng = RngStream(17 + 10 * heads + kept)
        w = replace(
            _random_cross(rng, 8, heads),
            ln_kv_scale=1.0 + 0.1 * rng.normal((8,)), ln_kv_shift=0.1 * rng.normal((8,)),
        )
        full, condensed = rng.normal((2, 6, 8)), rng.normal((2, kept, 8))
        assert np.max(np.abs(cross_mhsa(full, condensed, w) - naive_cross_attention(full, condensed, w))) < 1e-12


# Block geometry of each benchmark workload: (J, F, f kept, D, heads, hidden).
WORKLOAD_BLOCKS = {
    "paper_default": (17, 243, 54, 512, 8, 3072),
    "smoke_infer": (17, 243, 54, 64, 2, 128),
    "long_sparse": (17, 729, 162, 64, 2, 128),
}


def _workload_blocks(workload):
    """Seeded weights and inputs, and the block calls that run at a workload's geometry.

    The sparse mask admits |p - q| <= 2 except in joint 0, which is fully admitted, so one
    call takes both routes; the dense mask admits about half the pairs of every joint.
    """
    joints, frames, kept, dim, heads, hidden = WORKLOAD_BLOCKS[workload]
    rng = RngStream(40)
    w, mlp, cross = _random_attn(rng, dim, heads), _random_mlp(rng, dim, hidden), _random_cross(rng, dim, heads)
    spatial, temporal = rng.normal((frames, joints, dim)), rng.normal((joints, frames, dim))
    condensed = rng.normal((joints, kept, dim))
    band = np.abs(np.subtract.outer(np.arange(frames), np.arange(frames))) <= 2
    sparse = np.repeat(band[None], joints, axis=0)
    sparse[0] = True
    dense = (rng.uniform(0.0, 1.0, (joints, frames, frames)) < 0.5) | np.eye(frames, dtype=bool)
    assert sparse_route(sparse[1]) and not sparse_route(sparse[0])
    assert not any(sparse_route(m) for m in dense)
    sparse, dense = to_additive_mask(sparse), to_additive_mask(dense)
    return {
        "spatial": lambda: attention_block(spatial, None, w, mlp),
        "temporal, sparse mask": lambda: attention_block(temporal, sparse, w, mlp),
        "temporal, dense mask": lambda: attention_block(temporal, dense, w, mlp),
        "cross": lambda: cross_mhsa(temporal, condensed, cross),
    }


class TestRowChunks:
    """attention_block and cross_mhsa run over chunks of about _BLOCK_ROWS token rows."""

    @pytest.mark.parametrize(
        "workload", [pytest.param("paper_default", marks=pytest.mark.slow), "smoke_infer", "long_sparse"]
    )
    def test_chunked_blocks_equal_one_chunk_bitwise(self, workload, monkeypatch):
        # Exact only if OpenBLAS gives a subset of GEMM rows the bits of the whole GEMM.
        joints, frames = WORKLOAD_BLOCKS[workload][:2]
        assert len(list(attention._row_chunks(joints, frames))) > 1
        if frames > attention._BLOCK_ROWS:
            assert len(list(attention._row_chunks(joints, frames))) == joints
        calls = _workload_blocks(workload)
        chunked = {name: call() for name, call in calls.items()}
        monkeypatch.setattr(attention, "_BLOCK_ROWS", joints * frames + 1)
        assert len(list(attention._row_chunks(frames, joints))) == 1
        for name, call in calls.items():
            assert np.array_equal(chunked[name], call()), name

    @pytest.mark.slow
    def test_paper_geometry_working_set_is_bounded(self):
        # one whole-array pass peaked at 226 MB (attention_block) and 91 MB (cross_mhsa)
        for name, call in _workload_blocks("paper_default").items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, f"{name}: traced peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("workload", ["smoke_infer", "long_sparse"])
    def test_all_admitted_mask_equals_no_mask_bitwise(self, workload):
        # denoise_forward at a saturated mask passes it; dense_reference_forward passes None
        joints, frames, _, dim, heads, hidden = WORKLOAD_BLOCKS[workload]
        rng = RngStream(43)
        w, mlp = _random_attn(rng, dim, heads), _random_mlp(rng, dim, hidden)
        tokens = rng.normal((joints, frames, dim))
        full = to_additive_mask(np.ones((joints, frames, frames), dtype=bool))
        assert np.array_equal(attention_block(tokens, full, w, mlp), attention_block(tokens, None, w, mlp))

    def test_transposed_view_in_gives_contiguous_transpose_out(self):
        rng = RngStream(41)
        w, mlp = _random_attn(rng, 8, 2), _random_mlp(rng, 8, 16)
        tokens = rng.normal((3, 70, 8))  # (J, F, D); the block runs over the (F, J, D) view
        out = attention_block(np.swapaxes(tokens, 0, 1), None, w, mlp)
        assert np.swapaxes(out, 0, 1).flags.c_contiguous
        assert np.array_equal(out, attention_block(np.ascontiguousarray(np.swapaxes(tokens, 0, 1)), None, w, mlp))

    def test_mask_must_fit_all_leading_slices(self):
        # a chunk-sized slice of a mask with too many joints would fit its token slice
        rng = RngStream(42)
        w, mlp = _random_attn(rng, 8, 2), _random_mlp(rng, 8, 16)
        with pytest.raises(ShapeError, match="does not fit tokens"):
            attention_block(rng.normal((2, 600, 8)), np.zeros((3, 600, 600)), w, mlp)
        with pytest.raises(ShapeError, match="leading or feature dims differ"):
            cross_mhsa(rng.normal((2, 600, 8)), rng.normal((3, 5, 8)), _random_cross(rng, 8, 2))
