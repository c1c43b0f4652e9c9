"""Tensor substrate: masked softmax, GELU, LayerNorm, affine maps, seeded RNG."""

import math

import numpy as np
import pytest
from scipy.special import erf

from htp.core import (
    _GELU_CHUNK,
    NEG_INF,
    SPARSE_ROUTE_DENSITY,
    RngStream,
    ShapeError,
    admitted_pairs,
    gaussian,
    gelu,
    layer_norm,
    linear,
    softmax_rows,
    sparse_mix,
    sparse_route,
)
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


def _ragged_support(frames=6):
    """Row lengths 3, 1, 6, 2, 1, 4: one full row and two one-entry rows."""
    admitted = np.zeros((frames, frames), dtype=bool)
    for row, cols in enumerate(([0, 2, 5], [3], range(6), [1, 4], [0], [1, 2, 3, 5])):
        admitted[row, list(cols)] = True
    return admitted


def _mix(scores, admitted, values, gate=None):
    """sparse_mix of dense (..., F, F) scores, read at the pairs of ``admitted``."""
    rows, cols, _ = pairs = admitted_pairs(admitted)
    return sparse_mix(scores[..., rows, cols], pairs, values, gate)


class TestAdmittedPairs:
    @pytest.mark.parametrize("frames", [1, 2, 7, 40])
    def test_matches_two_d_nonzero_in_row_major_order(self, frames):
        admitted = RngStream(frames).uniform(0.0, 1.0, (frames, frames)) < 0.3
        admitted[np.arange(frames), np.arange(frames)] = True
        rows, cols, indptr = admitted_pairs(admitted)
        expect_rows, expect_cols = np.nonzero(admitted)
        assert np.array_equal(rows, expect_rows) and np.array_equal(cols, expect_cols)
        assert np.array_equal(indptr, np.concatenate([[0], np.cumsum(admitted.sum(axis=1))]))

    def test_empty_row_raises(self):
        admitted = _ragged_support()
        admitted[5] = False
        with pytest.raises(ValueError, match="empty support"):
            admitted_pairs(admitted)


class TestSparseMix:
    def test_each_row_matches_naive(self):
        rng = RngStream(3)
        admitted = _ragged_support()
        scores, values = 4.0 * rng.normal((2, 6, 6)), rng.normal((2, 6, 3))
        rows, cols, _ = pairs = admitted_pairs(admitted)
        picked = scores[..., rows, cols]
        kept = picked.copy()
        out = sparse_mix(picked, pairs, values)
        assert out.shape == values.shape and np.array_equal(picked, kept)  # writes into no input
        for h in range(2):
            for row in range(6):
                weights = naive_softmax([v if a else NEG_INF for v, a in zip(scores[h, row], admitted[row])])
                expect = sum(w * values[h, col] for col, w in enumerate(weights))
                assert np.allclose(out[h, row], expect, rtol=0, atol=1e-15)

    def test_one_entry_row_is_its_value_row(self):
        rng = RngStream(4)
        admitted = _ragged_support()
        values = rng.normal((6, 5))
        out = _mix(rng.normal((6, 6)), admitted, values)
        assert np.array_equal(out[1], values[3]) and np.array_equal(out[4], values[0])

    def test_gate_applies_after_softmax(self):
        rng = RngStream(5)
        admitted = _ragged_support()
        scores, values, gate = rng.normal((6, 6)), rng.normal((6, 4)), rng.uniform(0.0, 1.0, (6, 6))
        dense = softmax_rows(np.where(admitted, scores, NEG_INF)) * gate @ values
        assert np.max(np.abs(_mix(scores, admitted, values, gate) - dense)) <= 1e-15

    def test_heads_axis_matches_per_head_calls(self):
        rng = RngStream(6)
        admitted = _ragged_support()
        scores, values = rng.normal((3, 6, 6)), rng.normal((3, 6, 2))
        out = _mix(scores, admitted, values)
        for h in range(3):
            assert np.array_equal(out[h], _mix(scores[h], admitted, values[h]))

    def test_empty_row_raises(self):
        admitted = _ragged_support()
        admitted[2] = False
        with pytest.raises(ValueError, match="empty support"):
            _mix(np.zeros((6, 6)), admitted, np.zeros((6, 2)))


class TestSparseRoute:
    def test_exactly_the_density_goes_dense_one_fewer_goes_sparse(self):
        admitted = np.zeros((2, 10, 10), dtype=bool)
        assert SPARSE_ROUTE_DENSITY * admitted.size == 20.0
        admitted.reshape(-1)[:20] = True
        assert not sparse_route(admitted)
        admitted.reshape(-1)[19] = False
        assert sparse_route(admitted)


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


# Plain formulas, kept as oracles: the in-place kernels must equal them bitwise.
def gelu_formula(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def layer_norm_formula(x, scale=None, shift=None, eps=1e-5):
    out = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    if scale is not None:
        out = out * scale
    if shift is not None:
        out = out + shift
    return out


class TestRewrittenKernels:
    @pytest.mark.parametrize("size", [1, _GELU_CHUNK - 1, _GELU_CHUNK, _GELU_CHUNK + 1, 3 * _GELU_CHUNK + 7])
    def test_gelu_bitwise_equals_formula(self, size):
        rng = RngStream(size)
        x = rng.normal((size,)) * 4.0
        assert np.array_equal(gelu(x), gelu_formula(x))
        swapped = np.swapaxes(rng.normal((size, 3)) * 4.0, 0, 1)  # strided view of 3 * size elements
        assert swapped.flags.c_contiguous == (size == 1)
        out = gelu(swapped)
        assert out.shape == swapped.shape and np.array_equal(out, gelu_formula(swapped))

    def test_gelu_bitwise_at_extremes(self):
        # subnormal x (0.5 * x rounds), |x| near the float64 maximum (x * z would overflow),
        # large negative x (z == 0 exactly), signed zeros and infinities
        tiny, huge = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
        x = np.array([tiny, -tiny, 3 * tiny, 2.0**-1022, huge, -huge, huge / 3, -40.0, -8.2, 0.0, -0.0,
                      np.inf, 1e-300, -1e-17, 37.5])
        assert np.array_equal(gelu(x), gelu_formula(x))
        assert np.signbit(gelu(np.array([-0.0]))[0]) == np.signbit(gelu_formula(np.array([-0.0]))[0])
        with np.errstate(invalid="ignore"):  # -inf * 0
            assert np.isnan(gelu(np.array([-np.inf, np.nan]))).all()

    @pytest.mark.parametrize("affine", [False, True])
    def test_layer_norm_bitwise_equals_formula(self, affine):
        rng = RngStream(11)
        x = rng.normal((5, 7, 24)) * 3.0 + 1.0
        scale, shift = (rng.normal((24,)), rng.normal((24,))) if affine else (None, None)
        for arr in (x, np.swapaxes(x, 0, 1)):
            assert np.array_equal(layer_norm(arr, scale, shift), layer_norm_formula(arr, scale, shift))
        assert np.array_equal(layer_norm(x, scale), layer_norm_formula(x, scale))

    @pytest.mark.parametrize("shape", [(24,), (9, 24), (4, 9, 24), "swapped"])
    def test_linear_matches_matmul(self, shape):
        rng = RngStream(12)
        w, b = rng.normal((24, 10)), rng.normal((10,))
        x = np.swapaxes(rng.normal((9, 4, 24)), 0, 1) if shape == "swapped" else rng.normal(shape)
        for bias in (None, b):
            ref = x @ w if bias is None else x @ w + bias
            out = linear(x, w, bias)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_linear_empty_operands(self):
        assert linear(np.ones((2, 0)), np.ones((0, 3))).shape == (2, 3)
        assert linear(np.ones((0, 4, 5)), np.ones((5, 3)), np.ones(3)).shape == (0, 4, 3)

    def test_no_kernel_writes_into_its_input(self):
        rng = RngStream(13)
        x, w, b = rng.normal((3, 4, 8)), rng.normal((8, 8)), rng.normal((8,))
        scale, shift = rng.normal((8,)), rng.normal((8,))
        calls = [
            lambda a: gelu(a),
            lambda a: layer_norm(a, scale, shift),
            lambda a: linear(a, w, b),
        ]
        for call in calls:
            for arr in (x, np.swapaxes(x, 0, 1)):
                before = arr.copy()
                call(arr)
                assert np.array_equal(arr, before)


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

    @pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 2**20 + 3])
    def test_offset_stream_continues_one_sequential_draw(self, start):
        sequential = RngStream(11).uniform(-0.5, 0.5, (start + 9,))
        assert np.array_equal(RngStream(11, start=start).uniform(-0.5, 0.5, (9,)), sequential[start:])

    def test_moments_large_sample(self):
        # CLT oracle: 3 sigma / sqrt(n) ~ 0.003 for n = 1e6
        sample = gaussian(RngStream(99), (1_000_000,))
        assert abs(sample.mean()) < 0.01
        assert abs(sample.var() - 1.0) < 0.01

    def test_zero_shape_rejected(self):
        with pytest.raises(ValueError):
            gaussian(RngStream(1), (0, 2))
