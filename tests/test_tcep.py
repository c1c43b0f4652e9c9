"""Temporal mask construction and token refinement."""

import logging

import numpy as np
import pytest

from htp.core import NEG_INF, RngStream, ShapeError
from htp.tcep import (
    chain_adjacency,
    frame_similarity,
    fuse_adjacency,
    mask_similarity,
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
        assert np.array_equal(select_topk_mask(np.zeros((1, 1)), 3), np.ones((1, 1)))
        assert np.array_equal(select_topk_mask(np.zeros((3, 1, 1)), 3), np.ones((3, 1, 1)))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            select_topk_mask(np.zeros((2, 3, 4)), 1)

    def test_clamp_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="htp.tcep"):
            select_topk_mask(RngStream(4).normal((4, 4)), 9)
        assert any("clamping" in r.message for r in caplog.records)

    def test_matches_stable_sort_oracle(self):
        # every slice of a (J, F, F) or (2, 2, F, F) stack, and the same slice
        # alone, against the straight-loop oracle; odd trials have many ties
        rng = RngStream(5)
        for trial in range(40):
            frames = 2 + trial % 9
            top_k = 1 + trial % frames
            scores = rng.normal(((3,) if trial % 3 else (2, 2)) + (frames, frames))
            if trial % 2:
                scores = np.round(scores)
            scores = (scores + np.swapaxes(scores, -1, -2)) / 2
            stacked = select_topk_mask(scores, top_k)
            for index in np.ndindex(scores.shape[:-2]):
                expected = naive_topk_mask(scores[index].tolist(), top_k)
                assert np.array_equal(stacked[index], expected)
                assert np.array_equal(select_topk_mask(scores[index], top_k), expected)

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


class TestMaskSimilarity:
    def test_all_ones_is_identity(self):
        s = RngStream(8).normal((4, 4))
        assert np.array_equal(mask_similarity(s, np.ones((4, 4))), s)

    def test_identity_mask_keeps_diagonal_only(self):
        s = RngStream(9).normal((3, 3))
        out = mask_similarity(s, np.eye(3))
        assert np.all(np.isfinite(np.diag(out)))
        assert np.all(out[~np.eye(3, dtype=bool)] == NEG_INF)


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
            soft = softmax_rows(mask_similarity(sim, mask[j]))
            assert np.max(np.abs(soft.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(soft[mask[j] == 0.0] == 0.0)

    def test_clamp_warns_once_per_call(self, caplog):
        tokens, fused, _ = self._instance(25, joints=4, frames=4)
        with caplog.at_level(logging.WARNING, logger="htp.tcep"):
            tcep_refine(tokens, fused, np.zeros((3, 3)), top_k=9)
        assert sum("clamping" in r.message for r in caplog.records) == 1

    def test_mask_stacked_over_joints(self):
        tokens, fused, weight = self._instance(22, joints=3, frames=6)
        _, mask = tcep_refine(tokens, fused, weight, 2)
        assert mask.shape == (3, 6, 6)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    @pytest.mark.parametrize(
        "fused_shape, weight_shape, what",
        [((4, 4), (3, 3), "adjacency"), ((5, 4), (3, 3), "adjacency"), ((5, 5), (3, 2), "weight"), ((5, 5), (4, 4), "weight")],
    )
    def test_mismatched_adjacency_or_weight_is_shape_error(self, fused_shape, weight_shape, what):
        tokens, _, _ = self._instance(23)
        with pytest.raises(ShapeError, match=what):
            tcep_refine(tokens, np.ones(fused_shape), np.ones(weight_shape), 2)
