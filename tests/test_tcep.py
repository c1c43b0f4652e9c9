"""Temporal mask construction and token refinement."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from htp.core import NEG_INF, RngStream, ShapeError, sparse_route
from htp.tcep import (
    chain_adjacency,
    frame_similarity,
    fuse_adjacency,
    select_topk_mask,
    tcep_refine,
)
from htp.verify import naive_tcep_refine, naive_topk_mask


class TestFuseAdjacency:
    def test_symmetric_fixed_point(self):
        assert np.array_equal(fuse_adjacency(np.eye(3), np.zeros((3, 3))), np.eye(3))

    def test_hand_asymmetric_case(self):
        # oracle: ((A + B) + (A + B)^T) / 2 by hand
        out = fuse_adjacency(np.zeros((2, 2)), np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_always_bitwise_symmetric(self):
        rng = RngStream(1)
        for _ in range(10):
            out = fuse_adjacency(rng.normal((5, 5)), rng.normal((5, 5)))
            assert np.array_equal(out, out.T)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fuse_adjacency(np.eye(2), np.eye(3))


class TestFrameSimilarity:
    def test_repeated_unit_rows(self):
        tokens = np.zeros((2, 4))
        tokens[:, 0] = 1.0
        assert np.array_equal(frame_similarity(tokens), np.full((2, 2), 0.5))

    def test_orthogonal_rows(self):
        sim = frame_similarity(np.eye(3))
        assert np.all(sim[~np.eye(3, dtype=bool)] == 0.0)

    def test_quadratic_scaling(self):
        tokens = RngStream(2).normal((4, 3))
        assert np.allclose(frame_similarity(3.0 * tokens), 9.0 * frame_similarity(tokens), rtol=1e-15)

    def test_joint_stack_matches_per_joint_bitwise(self):
        rng = RngStream(23)
        for frames in (1, 2, 7, 30):
            tokens = rng.normal((5, frames, 6))
            stacked = frame_similarity(tokens)
            assert stacked.shape == (5, frames, frames)
            for j in range(5):
                assert np.array_equal(stacked[j], frame_similarity(tokens[j]))

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            frame_similarity(np.ones(4))

    def test_one_pass_equals_the_symmetrized_gram_bitwise(self):
        def symmetrized(tokens):  # the (g + g^T) / 2 pass this function no longer makes
            gram = tokens @ np.swapaxes(tokens, -1, -2) / np.sqrt(tokens.shape[-1])
            return (gram + np.swapaxes(gram, -1, -2)) / 2.0

        rng = RngStream(29)
        wide = rng.normal((4, 2 * 243, 3 * 64))
        batched = rng.normal((17, 243, 64))
        for tokens in (batched, batched[0], wide[:, ::2, ::3], wide[1, ::2, ::3],
                       np.swapaxes(rng.normal((3, 64, 243)), -1, -2), np.swapaxes(rng.normal((243, 3, 64)), 0, 1)):
            # numpy runs a @ a^T on these views as a gemm that is not symmetric, so the
            # symmetrized reference is taken on the contiguous copy the function makes
            assert np.array_equal(frame_similarity(tokens), symmetrized(np.ascontiguousarray(tokens)))


class TestSelectTopkMask:
    def test_hand_instance(self):
        # oracle: row-wise top-1 then OR symmetrization, worked by hand
        s = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        expected = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        assert np.array_equal(select_topk_mask(s, 1), expected)

    def test_full_budget_gives_all_ones(self):
        s = RngStream(3).normal((6, 6))
        assert np.array_equal(select_topk_mask(s, 5), np.ones((6, 6)))

    def test_tie_prefers_lower_index(self):
        s = np.array([[0.0, 3.0, 3.0], [3.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        mask = select_topk_mask(s, 1)
        assert mask[0, 1] == 1.0  # frame 1 wins the tie with frame 2

    def test_single_frame(self):
        mask = select_topk_mask(np.zeros((1, 1)), 3)
        assert mask.dtype == bool and np.array_equal(mask, np.ones((1, 1)))

    @pytest.mark.parametrize("frames", [1, 4])
    @pytest.mark.parametrize("top_k", [0, -5])
    def test_top_k_below_one_rejected_at_any_frame_count(self, frames, top_k):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            select_topk_mask(np.zeros((frames, frames)), top_k)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 5), (6, 6)])
    def test_mask_is_boolean(self, shape):
        mask = select_topk_mask(RngStream(8).normal(shape), 2)
        assert mask.dtype == bool and mask.shape == shape

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            select_topk_mask(np.zeros((2, 3, 4)), 1)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 1, 1), (2, 6, 6)])
    def test_rejects_anything_but_one_square_matrix(self, shape):
        with pytest.raises(ShapeError, match=r"one \(F, F\) matrix"):
            select_topk_mask(np.zeros(shape), 1)

    def test_clamp_is_silent_and_keeps_f_minus_one(self, caplog):
        scores = RngStream(4).normal((4, 4))
        with caplog.at_level(logging.DEBUG):
            mask = select_topk_mask(scores, 9)
        assert caplog.records == []  # `htp infer` reports the clamp, once per run
        assert np.array_equal(mask, select_topk_mask(scores, 3))

    def test_matches_stable_sort_oracle(self):
        # each (F, F) matrix of a drawn (3, F, F) or (2, 2, F, F) stack against
        # the straight-loop oracle; odd trials have many ties
        rng = RngStream(5)
        for trial in range(40):
            frames = 2 + trial % 9
            top_k = 1 + trial % frames
            scores = rng.normal(((3,) if trial % 3 else (2, 2)) + (frames, frames))
            if trial % 2:
                scores = np.round(scores)
            scores = (scores + np.swapaxes(scores, -1, -2)) / 2
            for index in np.ndindex(scores.shape[:-2]):
                expected = naive_topk_mask(scores[index].tolist(), top_k)
                assert np.array_equal(select_topk_mask(scores[index], top_k), expected)

    def test_minus_inf_kth_score_leaves_self_out_of_the_picks(self):
        # row 0 scores every other frame -inf: its one pick is frame 1 (lower index), not itself
        s = np.array([[0.0, NEG_INF, NEG_INF], [NEG_INF, 0.0, 1.0], [NEG_INF, 1.0, 0.0]])
        expected = naive_topk_mask(s.tolist(), 1)
        assert expected[0, 1] == 1.0
        assert np.array_equal(select_topk_mask(s, 1), expected)

    def test_infinite_scores_match_stable_sort_oracle(self):
        rng = RngStream(30)
        levels = np.array([NEG_INF, -1.0, 0.0, 1.0, np.inf])
        for trial in range(300):
            frames = 2 + trial % 7
            top_k = 1 + trial % (frames + 1)
            scores = levels[rng.uniform(0.0, 5.0, (frames, frames)).astype(int)]
            if trial % 2:  # symmetric, as a frame similarity is
                scores = np.where(np.triu(np.ones((frames, frames), dtype=bool)), scores, scores.T)
            assert np.array_equal(select_topk_mask(scores, top_k), naive_topk_mask(scores.tolist(), top_k))

    def test_symmetry_diagonal_and_min_support(self):
        rng = RngStream(6)
        for trial in range(40):
            frames = 2 + trial % 10
            top_k = 1 + trial % (frames + 1)
            mask = select_topk_mask(rng.normal((frames, frames)), top_k)
            k = min(top_k, frames - 1)
            assert np.array_equal(mask, mask.T)
            assert np.all(np.diag(mask) == 1.0)
            assert mask.sum(axis=1).min() >= k + 1

    def test_monotonicity_of_selection(self):
        rng = RngStream(7)
        for _ in range(10):
            scores = rng.normal((8, 8))
            scores = (scores + scores.T) / 2
            row = np.delete(scores[2], 2)
            kth = np.sort(row)[::-1][2]  # third-highest off-diagonal score
            scores[2, 6] = kth + 1.0
            assert select_topk_mask(scores, 3)[2, 6] == 1.0


@st.composite
def tie_heavy_scores(draw):
    """(scores, top_k): a (F, F) or stacked (2, 2, F, F) score array rounded
    to a few levels, so that ties straddle the k-th value of many rows; each
    (F, F) matrix is selected on its own."""
    frames = draw(st.integers(2, 7))
    lead = draw(st.sampled_from([(), (2, 2)]))
    levels = draw(st.integers(1, 3))
    size = frames * frames * (4 if lead else 1)
    raw = draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))
    scores = np.round(np.array(raw).reshape(lead + (frames, frames)) * levels) / levels
    top_k = draw(st.sampled_from([1, frames - 1, frames, frames + 2]) | st.integers(1, frames + 1))
    return scores, top_k


class TestSelectTopkTies:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(tie_heavy_scores())
    @example((np.zeros((2, 2)), 1))  # F=2, k=1=F-1, one all-tie row each
    @example((np.round(np.arange(36.0).reshape(6, 6) % 3), 5))  # k=F-1
    @example((np.ones((2, 2, 5, 5)), 7))  # stacked, k >= F clamps
    def test_partial_selection_matches_stable_sort_oracle(self, case):
        scores, top_k = case
        for index in np.ndindex(scores.shape[:-2]):
            expected = naive_topk_mask(scores[index].tolist(), top_k)
            assert np.array_equal(select_topk_mask(scores[index], top_k), expected)


class TestTcepRefine:
    def _instance(self, seed, joints=2, frames=5, dim=3):
        rng = RngStream(seed)
        tokens = rng.normal((joints, frames, dim))
        fused = fuse_adjacency(chain_adjacency(frames), 0.2 * rng.normal((frames, frames)))
        return tokens, fused, rng.normal((dim, dim))

    def test_zero_weight_is_residual_only(self):
        tokens, fused, _ = self._instance(10)
        out, _ = tcep_refine(tokens, fused, np.zeros((3, 3)), 2)
        assert np.array_equal(out, tokens)

    def test_zero_adjacency_is_residual_only(self):
        tokens, _, weight = self._instance(11)
        out, _ = tcep_refine(tokens, np.zeros((5, 5)), weight, 2)
        assert np.array_equal(out, tokens)

    def test_matches_straight_loop_oracle(self):
        for seed in range(12, 17):
            tokens, fused, weight = self._instance(seed)
            fast_tokens, fast_mask = tcep_refine(tokens, fused, weight, 2)
            slow_tokens, slow_mask = naive_tcep_refine(tokens, fused, weight, 2)
            assert np.array_equal(fast_mask, slow_mask)
            assert np.max(np.abs(fast_tokens - slow_tokens)) < 1e-12

    def test_joint_permutation_equivariance(self):
        tokens, fused, weight = self._instance(20, joints=4)
        out, mask = tcep_refine(tokens, fused, weight, 2)
        perm = np.array([3, 1, 0, 2])
        out_p, mask_p = tcep_refine(tokens[perm], fused, weight, 2)
        assert np.array_equal(out_p, out[perm])
        assert np.array_equal(mask_p, mask[perm])

    def test_mask_softmax_support(self):
        tokens, fused, weight = self._instance(21)
        from htp.core import softmax_rows

        _, mask = tcep_refine(tokens, fused, weight, 2)
        for j in range(mask.shape[0]):
            sim = frame_similarity(tokens[j])
            soft = softmax_rows(np.where(mask[j], sim, NEG_INF))
            assert np.max(np.abs(soft.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(soft[~mask[j]] == 0.0)

    def test_clamp_is_silent_and_keeps_f_minus_one(self, caplog):
        tokens, fused, weight = self._instance(25, joints=4, frames=4)
        with caplog.at_level(logging.DEBUG):
            clamped_tokens, clamped_mask = tcep_refine(tokens, fused, weight, top_k=9)
        assert caplog.records == []
        unclamped_tokens, unclamped_mask = tcep_refine(tokens, fused, weight, top_k=3)
        assert np.array_equal(clamped_tokens, unclamped_tokens)
        assert np.array_equal(clamped_mask, unclamped_mask)

    def test_mask_stacked_over_joints(self):
        tokens, fused, weight = self._instance(22, joints=3, frames=6)
        _, mask = tcep_refine(tokens, fused, weight, 2)
        assert mask.shape == (3, 6, 6)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    @pytest.mark.parametrize("top_k", [1, 2, 3, 7, 12])
    def test_mask_equals_batched_selection_on_ties(self, top_k):
        # 0/1 tokens: many frames share a similarity value, so the lower-index tie rule decides most picks
        rng = RngStream(26)
        tokens = np.floor(2.0 * rng.uniform(0.0, 1.0, (3, 12, 4)))
        fused = fuse_adjacency(chain_adjacency(12), np.zeros((12, 12)))
        _, mask = tcep_refine(tokens, fused, rng.normal((4, 4)), top_k)
        # selection on each matrix of the batched similarity: the per-joint similarity is bitwise the same
        assert np.array_equal(mask, np.stack([select_topk_mask(sim, top_k) for sim in frame_similarity(tokens)]))

    def test_one_sparse_and_one_dense_joint_match_loop_oracle(self):
        # joint 0: two hub frames every frame picks (dense); joint 1: a circle whose picks are its neighbours (sparse)
        frames, rng = 40, RngStream(27)
        tokens = np.empty((2, frames, 3))
        tokens[0] = 1.0 + 0.3 * rng.normal((frames, 3))
        tokens[0, 0], tokens[0, 1] = 5.0, 4.9
        angle = 0.1 * np.arange(frames)
        tokens[1] = np.stack([np.cos(angle), np.sin(angle), np.zeros(frames)], axis=1)
        fused = fuse_adjacency(chain_adjacency(frames), 0.3 * rng.normal((frames, frames)))
        weight = rng.normal((3, 3))
        fast_tokens, fast_mask = tcep_refine(tokens, fused, weight, 2)
        slow_tokens, slow_mask = naive_tcep_refine(tokens, fused, weight, 2)
        assert [sparse_route(m) for m in fast_mask] == [False, True]
        assert np.array_equal(fast_mask, slow_mask)
        assert np.max(np.abs(fast_tokens - slow_tokens)) < 1e-12

    @pytest.mark.parametrize(
        "fused_shape, weight_shape, what",
        [((4, 4), (3, 3), "adjacency"), ((5, 4), (3, 3), "adjacency"), ((5, 5), (3, 2), "weight"), ((5, 5), (4, 4), "weight")],
    )
    def test_mismatched_adjacency_or_weight_is_shape_error(self, fused_shape, weight_shape, what):
        tokens, _, _ = self._instance(23)
        with pytest.raises(ShapeError, match=what):
            tcep_refine(tokens, np.ones(fused_shape), np.ones(weight_shape), 2)
