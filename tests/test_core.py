"""Tensor substrate: masked softmax, GELU, LayerNorm, affine maps, seeded RNG."""

import math

import numpy as np
import pytest

from htp.core import NEG_INF, RngStream, ShapeError, gaussian, gelu, layer_norm, linear, softmax_rows
from htp.verify import naive_matmul, naive_softmax


class TestSoftmax:
    def test_symmetric_pair(self):
        assert np.array_equal(softmax_rows(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_masked_entry_is_exactly_zero(self):
        out = softmax_rows(np.array([0.0, NEG_INF]))
        assert out[0] == 1.0 and out[1] == 0.0

    def test_log_weights(self):
        # oracle: direct evaluation of exp/sum on [ln 1, ln 3]
        out = softmax_rows(np.array([math.log(1.0), math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-15)

    def test_probability_vector_property(self):
        rng = RngStream(1)
        for _ in range(50):
            v = rng.normal((6,)) * 4
            v[rng.uniform(0, 1, (6,)) < 0.4] = NEG_INF
            if np.all(v == NEG_INF):
                v[0] = 0.0
            out = softmax_rows(v)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out >= 0)
            assert np.allclose(out, naive_softmax(list(v)), atol=1e-12)

    def test_monotone_order_preserved(self):
        out = softmax_rows(np.array([1.0, 3.0, 2.0]))
        assert out[0] < out[2] < out[1]

    def test_empty_support_raises(self):
        with pytest.raises(ValueError, match="empty support"):
            softmax_rows(np.array([NEG_INF, NEG_INF]))
        with pytest.raises(ValueError, match="empty support"):
            softmax_rows(np.array([[0.0, 1.0], [NEG_INF, NEG_INF]]))

    def test_rows_variant_matches_row(self):
        x = RngStream(2).normal((3, 5))
        rows = softmax_rows(x)
        for i in range(3):  # a matrix row and the same row alone, bitwise
            assert np.array_equal(rows[i], softmax_rows(x[i]))


class TestGeluLayerNormLinear:
    def test_gelu_fixed_point_and_sign(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([3.0]))[0] == pytest.approx(3.0 * 0.5 * (1 + math.erf(3 / math.sqrt(2))), abs=0)

    def test_layer_norm_moments(self):
        rows = RngStream(3).normal((8, 16)) * 10
        out = layer_norm(rows)
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
        assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-6

    def test_layer_norm_constant_row(self):
        out = layer_norm(np.array([[1.0, 1.0, 1.0]]))
        assert np.max(np.abs(out)) < 1e-2  # eps guard keeps the 0/0 at ~0

    def test_layer_norm_affine(self):
        x = RngStream(4).normal((2, 4))
        scale, shift = np.full(4, 2.0), np.full(4, -1.0)
        assert np.array_equal(layer_norm(x, scale, shift), layer_norm(x) * 2.0 - 1.0)

    def test_linear_identity_input(self):
        w = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(linear(np.eye(2), w), w)

    def test_linear_matches_triple_loop(self):
        rng = RngStream(5)
        for _ in range(5):
            x, w, b = rng.normal((8, 8)), rng.normal((8, 8)), rng.normal((8,))
            assert np.max(np.abs(linear(x, w, b) - (naive_matmul(x.tolist(), w.tolist()) + b))) < 1e-12

    def test_shape_errors_name_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            linear(np.ones((2, 3)), np.ones((4, 2)))


class TestRng:
    def test_seed_determinism(self):
        assert np.array_equal(gaussian(RngStream(7), (4, 3, 2)), gaussian(RngStream(7), (4, 3, 2)))

    def test_different_seeds_differ(self):
        assert not np.array_equal(gaussian(RngStream(7), (8,)), gaussian(RngStream(8), (8,)))

    def test_child_streams(self):
        root = RngStream(42)
        a, b = root.child(0), root.child(1)
        assert a.seed != b.seed
        assert RngStream(42).child(0).seed == a.seed  # pure function of (seed, index)

    def test_moments_large_sample(self):
        # CLT oracle: 3 sigma / sqrt(n) ~ 0.003 for n = 1e6
        sample = gaussian(RngStream(99), (1_000_000,))
        assert abs(sample.mean()) < 0.01
        assert abs(sample.var() - 1.0) < 0.01

    def test_zero_shape_rejected(self):
        with pytest.raises(ValueError):
            gaussian(RngStream(1), (0, 2))
