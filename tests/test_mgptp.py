"""Joint pooling, mask-guided distances, density-peaks scoring, frame pruning."""

import math

import numpy as np
import pytest

from htp.core import RngStream
from htp.mgptp import (
    cluster_scores,
    knn_density,
    masked_distance,
    pool_tokens_and_mask,
    prune_frames,
    response_density,
    select_and_prune,
    separation_distance,
)
from htp.verify import _random_binary_mask, naive_prune_indices


def _full_distance(tokens):
    frames = tokens.shape[0]
    return masked_distance(tokens, np.ones((frames, frames)))


class TestPooling:
    def test_single_joint_is_identity(self):
        rng = RngStream(1)
        tokens = rng.normal((1, 4, 3))
        mask = _random_binary_mask(rng, 1, 4)
        z, pooled = pool_tokens_and_mask(tokens, mask, 1.0)
        assert np.array_equal(z, tokens[0])
        assert np.array_equal(pooled, mask[0])

    def test_shared_mask_survives_any_threshold(self):
        rng = RngStream(2)
        tokens = rng.normal((3, 4, 2))
        mask = np.repeat(_random_binary_mask(rng, 1, 4), 3, axis=0)
        for threshold in (0.1, 0.5, 1.0):
            assert np.array_equal(pool_tokens_and_mask(tokens, mask, threshold)[1], mask[0])

    def test_disagreement_threshold_arithmetic(self):
        # two joints disagree at (0, 1): pooled average is exactly 0.5
        mask = np.ones((2, 2, 2))
        mask[1, 0, 1] = mask[1, 1, 0] = 0.0
        tokens = RngStream(3).normal((2, 2, 2))
        assert pool_tokens_and_mask(tokens, mask, 0.5)[1][0, 1] == 1.0
        assert pool_tokens_and_mask(tokens, mask, 0.6)[1][0, 1] == 0.0

    def test_diagonal_stays_one(self):
        rng = RngStream(4)
        _, pooled = pool_tokens_and_mask(rng.normal((3, 5, 2)), _random_binary_mask(rng, 3, 5), 1.0)
        assert np.all(np.diag(pooled) == 1.0)

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            pool_tokens_and_mask(np.zeros((1, 2, 2)), np.ones((1, 2, 2)), 0.0)


class TestMaskedDistance:
    def test_hand_line_distances(self):
        dist, _ = _full_distance(np.array([[0.0], [3.0], [4.0]]))
        assert np.allclose(dist, [[0, 3, 4], [3, 0, 1], [4, 1, 0]], atol=0)

    def test_sentinel_replaces_masked_pair(self):
        mask = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        dist, far = masked_distance(np.array([[0.0], [3.0], [4.0]]), mask)
        assert far == 4.0 + 1e-6
        assert dist[0, 2] == far and dist[2, 0] == far

    def test_identical_tokens(self):
        dist, far = _full_distance(np.zeros((4, 3)))
        assert far == 1e-6
        assert not dist.any()

    def test_masked_pairs_strictly_farther(self):
        rng = RngStream(5)
        for _ in range(10):
            tokens = rng.normal((3, 6, 2))
            mask = _random_binary_mask(rng, 3, 6)
            z, pooled = pool_tokens_and_mask(tokens, mask, 0.5)
            dist, _ = masked_distance(z, pooled)
            off = ~np.eye(6, dtype=bool)
            valid = (pooled == 1.0) & off
            blocked = (pooled == 0.0) & off
            if blocked.any() and valid.any():
                assert dist[blocked].min() > dist[valid].max()


class TestDensity:
    def test_hand_line_k1(self):
        dist, _ = _full_distance(np.array([[0.0], [3.0], [4.0]]))
        density = knn_density(dist, 1)
        assert np.allclose(density, [math.exp(-9), math.exp(-1), math.exp(-1)], atol=1e-16)

    def test_identical_tokens_density_one(self):
        dist, _ = _full_distance(np.zeros((5, 2)))
        assert np.array_equal(knn_density(dist, 2), np.ones(5))

    def test_single_frame(self):
        assert np.array_equal(knn_density(np.zeros((1, 1)), 1), np.ones(1))

    def test_matches_exhaustive_oracle(self):
        rng = RngStream(6)
        for trial in range(30):
            frames = 2 + trial % 7
            tokens = rng.normal((frames, 3))
            dist, _ = _full_distance(tokens)
            k = 1 + trial % (frames - 1) if frames > 1 else 1
            fast = knn_density(dist, k)
            for p in range(frames):
                others = sorted(dist[p][q] for q in range(frames) if q != p)
                members = [q for q in range(frames) if q != p and dist[p][q] <= others[k - 1]]
                expect = math.exp(-sum(dist[p][q] ** 2 for q in members) / k)
                # summation order differs between numpy and the loop: allow 1 ulp
                assert math.isclose(fast[p], expect, rel_tol=1e-14, abs_tol=0.0)

    def test_k_validated(self):
        with pytest.raises(ValueError, match="k must be"):
            knn_density(np.zeros((4, 4)), 4)


class TestResponseAndSeparation:
    def test_uniform_support_divides_by_frames(self):
        density = RngStream(7).uniform(0.1, 1.0, (5,))
        resp = response_density(density, np.ones((5, 5)))
        assert np.allclose(resp, density / 5, atol=1e-16)

    def test_two_frame_softmax_arithmetic(self):
        resp = response_density(np.ones(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
        expect = np.array([math.exp(2), math.exp(1)]) / (math.exp(2) + math.exp(1))
        assert np.max(np.abs(resp - expect)) < 1e-12
        assert resp[0] == pytest.approx(0.7311, abs=1e-4)

    def test_scaling_preserves_argmax(self):
        rng = RngStream(8)
        density = rng.uniform(0.1, 1.0, (6,))
        mask = _random_binary_mask(rng, 1, 6)[0]
        a = response_density(density, mask)
        b = response_density(4.2 * density, mask)
        assert np.allclose(b, 4.2 * a, rtol=1e-15)
        assert np.argmax(a) == np.argmax(b)

    def test_separation_hand_values(self):
        dist, _ = _full_distance(np.array([[0.0], [3.0], [4.0]]))
        assert np.allclose(separation_distance(dist, np.array([3.0, 2.0, 1.0])), [4, 3, 1], atol=0)

    def test_separation_all_equal_uses_index_order(self):
        dist, _ = _full_distance(np.array([[0.0], [3.0], [4.0]]))
        sep = separation_distance(dist, np.ones(3))
        assert sep[0] == 4.0  # peak by the lower-index rule
        assert sep[1] == 3.0  # distance to frame 0
        assert sep[2] == 1.0  # min distance to frames 0 and 1

    def test_single_frame_separation_zero(self):
        assert np.array_equal(separation_distance(np.zeros((1, 1)), np.ones(1)), np.zeros(1))


class TestSelectAndPrune:
    def test_identity_prune(self):
        rng = RngStream(9)
        tokens = rng.normal((2, 5, 3))
        pruned, indices = prune_frames(tokens, np.ones((2, 5, 5)), 0.5, 2, 5)
        assert list(indices) == [0, 1, 2, 3, 4]
        assert np.array_equal(pruned, tokens)

    def test_keep_one_is_argmax(self):
        rng = RngStream(10)
        tokens = rng.normal((2, 6, 3))
        mask = _random_binary_mask(rng, 2, 6)
        state = cluster_scores(*pool_tokens_and_mask(tokens, mask, 0.5), 2)
        _, indices = select_and_prune(tokens, state, 1)
        assert indices[0] == np.argmax(state.separation * state.response)

    def test_indices_strictly_increasing_and_bitwise_slice(self):
        rng = RngStream(11)
        tokens = rng.normal((3, 8, 2))
        pruned, indices = prune_frames(tokens, _random_binary_mask(rng, 3, 8), 0.5, 3, 4)
        assert np.all(np.diff(indices) > 0)
        assert np.array_equal(pruned, tokens[:, indices, :])

    def test_frame_constant_tokens_keep_first(self):
        tokens = np.ones((2, 6, 3))
        _, indices = prune_frames(tokens, np.ones((2, 6, 6)), 0.5, 2, 3)
        assert list(indices) == [0, 1, 2]

    def test_keep_too_large_rejected(self):
        with pytest.raises(ValueError, match="keep"):
            prune_frames(np.zeros((1, 3, 2)), np.ones((1, 3, 3)), 0.5, 1, 4)

    def test_determinism(self):
        rng = RngStream(12)
        tokens = rng.normal((2, 9, 3))
        mask = _random_binary_mask(rng, 2, 9)
        _, a = prune_frames(tokens, mask, 0.5, 3, 4)
        _, b = prune_frames(tokens, mask, 0.5, 3, 4)
        assert np.array_equal(a, b)

    def test_matches_loop_oracle(self):
        rng = RngStream(13)
        for trial in range(60):
            joints = 1 + trial % 3
            frames = 2 + trial % 11
            dim = 1 + trial % 4
            tokens = rng.normal((joints, frames, dim))
            mask = _random_binary_mask(rng, joints, frames)
            k = 1 + trial % (frames - 1) if frames > 1 else 1
            keep = 1 + trial % frames
            threshold = (0.3, 0.5, 1.0)[trial % 3]
            _, indices = prune_frames(tokens, mask, threshold, k, keep)
            assert list(indices) == naive_prune_indices(tokens, mask, threshold, k, keep)
