"""Full pipeline assembly: embedding, spatial mixing, pruning, restoration."""

import logging

import numpy as np
import pytest

import htp.denoiser
from htp.attention import attention_block
from htp.core import RngStream, gaussian, gelu, linear
from htp.denoiser import (
    DenoiserConfig,
    StageError,
    denoise_forward,
    dense_reference_forward,
    init_params,
    load_denoiser_params,
    normalize_adjacency,
    pose_embed,
    save_denoiser_params,
    skeleton_adjacency,
    spatial_gcn,
    spatial_mhsa,
    timestep_embedding,
    timestep_features,
)
from htp.macs import profile_model
from htp.verify import naive_gcn


# For small_cfg(recompute_mask_per_block=True): a module-global callee of
# denoise_forward inside each stage, and which call of it falls in that stage.
STAGE_CALLEES = {
    "pose_embed": ("pose_embed", 0),
    "spatial_gcn": ("spatial_gcn", 0),
    "entry_spatial": ("spatial_mhsa", 0),
    "tcep": ("tcep_refine", 0),
    "timestep_mlp": ("timestep_embedding", 0),
    "block0_full": ("frame_similarity", 0),
    "block1_full": ("to_additive_mask", 1),
    "mgptp": ("prune_frames", 0),
    "block2_pruned": ("spatial_mhsa", 3),
    "cross_mhsa": ("cross_mhsa", 0),
    "head": ("linear", 4),  # after pose_embed, spatial_gcn and the two of timestep_embedding
}


def small_cfg(**kw):
    base = dict(
        joints=4, frames=10, embed_dim=16, keep_frames=5, corr_topk=3,
        blocks=3, sparse_blocks=2, heads=2, mlp_ratio=2.0, pool_threshold=0.5, knn_k=3,
    )
    base.update(kw)
    return DenoiserConfig(**base)


class TestConfig:
    def test_default_configuration(self):
        cfg = DenoiserConfig()
        assert (cfg.joints, cfg.frames, cfg.keep_frames) == (17, 243, 54)
        assert (cfg.corr_topk, cfg.sparse_blocks, cfg.blocks) == (162, 3, 8)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("keep_frames", 999),
            ("sparse_blocks", 99),
            ("corr_topk", 0),
            ("embed_dim", 100),  # not divisible by 8 heads
            ("pool_threshold", 1.5),
            ("knn_k", 0),
            ("temporal_graph", "mesh"),
        ],
    )
    def test_invalid_fields_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            DenoiserConfig(**{field: value})

    def test_skeleton_defaults(self):
        adj = skeleton_adjacency(17)
        assert adj.shape == (17, 17)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 1.0)
        chain = skeleton_adjacency(5)
        assert chain[0, 1] == 1.0 and chain[0, 2] == 0.0


class TestSpatialStages:
    def test_pose_embed_shapes_and_zero_weights(self):
        rng = RngStream(1)
        y = rng.normal((4, 6, 3))
        x = rng.normal((4, 6, 2))
        bias = rng.normal((8,))
        out = pose_embed(y, x, np.zeros((5, 8)), bias)
        assert out.shape == (4, 6, 8)
        assert np.allclose(out, bias, atol=0)

    def test_pose_embed_frame_permutation(self):
        rng = RngStream(2)
        y, x = rng.normal((3, 5, 3)), rng.normal((3, 5, 2))
        w, b = rng.normal((5, 8)), rng.normal((8,))
        perm = np.array([4, 0, 2, 1, 3])
        assert np.array_equal(pose_embed(y, x, w, b)[:, perm], pose_embed(y[:, perm], x[:, perm], w, b))

    def test_pose_embed_shape_mismatch(self):
        with pytest.raises(ValueError):
            pose_embed(np.zeros((2, 3, 3)), np.zeros((2, 4, 2)), np.zeros((5, 8)), np.zeros(8))

    def test_gcn_zero_weight_identity(self):
        tokens = RngStream(3).normal((4, 5, 8))
        assert np.array_equal(spatial_gcn(tokens, skeleton_adjacency(4), np.zeros((8, 8))), tokens)

    def test_gcn_identity_adjacency_no_mixing(self):
        rng = RngStream(4)
        tokens = rng.normal((3, 4, 6))
        w = rng.normal((6, 6)) * 0.3
        out = spatial_gcn(tokens, np.eye(3), w)
        assert np.max(np.abs(out - (tokens + gelu(linear(tokens, w))))) < 1e-12

    def test_gcn_matches_loop_oracle(self):
        rng = RngStream(5)
        adj = skeleton_adjacency(3)
        tokens = rng.normal((3, 4, 5))
        w = rng.normal((5, 5)) * 0.4
        assert np.max(np.abs(spatial_gcn(tokens, adj, w) - naive_gcn(tokens, adj.tolist(), w))) < 1e-12

    def test_gcn_asymmetric_rejected(self):
        adj = skeleton_adjacency(3)
        adj[0, 2] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            normalize_adjacency(adj)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_gcn_non_finite_rejected(self, value):
        adj = skeleton_adjacency(3)
        adj[0, 1] = adj[1, 0] = value
        with pytest.raises(ValueError, match="entries must be finite"):
            normalize_adjacency(adj)

    def test_spatial_attention_single_joint(self):
        # one joint: softmax over a single token is 1, so output = tokens + v @ wo
        rng = RngStream(6)
        cfg = small_cfg(joints=1)
        params = init_params(cfg, 0)
        tokens = rng.normal((1, 4, 16))
        out = spatial_mhsa(tokens, params.entry_attn, params.entry_mlp)
        assert out.shape == tokens.shape
        from htp.attention import attention_probs

        per_frame = np.swapaxes(tokens, 0, 1)
        probs = attention_probs(per_frame, None, params.entry_attn)
        assert np.allclose(probs, 1.0, atol=0)

    def test_spatial_attention_preserves_shape(self):
        cfg = small_cfg()
        params = init_params(cfg, 1)
        tokens = RngStream(7).normal((4, 10, 16))
        out = spatial_mhsa(tokens, params.entry_attn, params.entry_mlp)
        assert out.shape == tokens.shape and out.flags.c_contiguous
        # oracle: the block over the joint axis of a strided per-frame view
        ref = np.swapaxes(attention_block(np.swapaxes(tokens, 0, 1), None, params.entry_attn, params.entry_mlp), 0, 1)
        assert np.max(np.abs(out - ref)) < 1e-12


class TestTimestepEmbedding:
    def test_zero_step_pattern(self):
        feats = timestep_features(0, 12)
        assert np.all(feats[:6] == 0.0) and np.all(feats[6:] == 1.0)

    def test_injective_over_schedule(self):
        seen = set()
        for t in range(1001):
            seen.add(timestep_features(t, 16).tobytes())
        assert len(seen) == 1001

    def test_zero_affine_gives_pure_bias(self):
        cfg = small_cfg()
        params = init_params(cfg, 2)
        params.time_w1[...] = 0.0
        params.time_w2[...] = 0.0
        params.time_b2[...] = 3.5
        emb = timestep_embedding(123, params)
        assert np.allclose(emb, 3.5, atol=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            timestep_features(-1, 8)


class TestForward:
    def test_output_shape_and_purity(self):
        cfg = small_cfg()
        params = init_params(cfg, 3)
        y = gaussian(RngStream(8), (4, 10, 3))
        x = gaussian(RngStream(9), (4, 10, 2))
        a = denoise_forward(y, x, 250, cfg, params)
        b = denoise_forward(y, x, 250, cfg, params)
        assert a.shape == (4, 10, 3)
        assert np.array_equal(a, b)

    def test_diagnostics_capture(self):
        cfg = small_cfg()
        params = init_params(cfg, 4)
        diag = {}
        denoise_forward(
            gaussian(RngStream(10), (4, 10, 3)), gaussian(RngStream(11), (4, 10, 2)), 5, cfg, params, diag
        )
        assert diag["retained_indices"].shape == (5,)
        assert np.all(np.diff(diag["retained_indices"]) > 0)
        assert diag["temporal_mask"].shape == (4, 10, 10)

    def test_temporal_mask_is_boolean(self):
        cfg = small_cfg()
        diag = {}
        denoise_forward(
            gaussian(RngStream(12), (4, 10, 3)), gaussian(RngStream(13), (4, 10, 2)), 5, cfg, init_params(cfg, 6), diag
        )
        assert diag["temporal_mask"].dtype == bool

    def test_no_log_record_at_a_clamping_config(self, caplog):
        cfg = small_cfg(corr_topk=10, recompute_mask_per_block=True)  # corr_topk >= F = 10 clamps
        with caplog.at_level(logging.DEBUG):
            denoise_forward(
                gaussian(RngStream(14), (4, 10, 3)), gaussian(RngStream(15), (4, 10, 2)), 5, cfg, init_params(cfg, 7)
            )
        assert caplog.records == []  # `htp infer` reports the clamp, once per run

    def test_stage_errors_carry_stage_name(self):
        cfg = small_cfg()
        params = init_params(cfg, 5)
        params.tcep_w = np.zeros((3, 3))  # wrong width blows up inside the tcep stage
        with pytest.raises(StageError, match="tcep"):
            denoise_forward(
                gaussian(RngStream(12), (4, 10, 3)), gaussian(RngStream(13), (4, 10, 2)), 5, cfg, params
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_fails_the_head_stage(self):
        cfg = small_cfg()
        params = init_params(cfg, 5)
        params.head_w = np.full_like(params.head_w, 1e308)  # finite weights whose output overflows
        with pytest.raises(StageError, match="^head: "):
            denoise_forward(
                gaussian(RngStream(12), (4, 10, 3)), gaussian(RngStream(13), (4, 10, 2)), 5, cfg, params
            )

    @pytest.mark.parametrize(
        "stage", [name for name, _ in profile_model(small_cfg(recompute_mask_per_block=True), 1, 1).stages]
    )
    def test_injected_failure_is_named_after_its_profile_stage(self, monkeypatch, stage):
        callee, failing_call = STAGE_CALLEES[stage]
        original, calls = getattr(htp.denoiser, callee), []

        def fail_once_reached(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing_call + 1:
                raise ValueError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(htp.denoiser, callee, fail_once_reached)
        cfg = small_cfg(recompute_mask_per_block=True)
        with pytest.raises(StageError) as err:
            denoise_forward(
                gaussian(RngStream(12), (4, 10, 3)), gaussian(RngStream(13), (4, 10, 2)), 5, cfg, init_params(cfg, 5)
            )
        assert str(err.value) == f"{stage}: injected"

    @pytest.mark.parametrize("recompute", [False, True])
    @pytest.mark.parametrize("sparse_blocks", [0, 1, 3])
    def test_stage_seconds_follow_the_profile(self, monkeypatch, sparse_blocks, recompute):
        cfg = small_cfg(sparse_blocks=sparse_blocks, recompute_mask_per_block=recompute)
        params = init_params(cfg, 11)
        y = gaussian(RngStream(20), (4, 10, 3))
        x = gaussian(RngStream(21), (4, 10, 2))
        diag = {}
        timed = denoise_forward(y, x, 30, cfg, params, diag)
        assert list(diag["stage_seconds"]) == [name for name, _ in profile_model(cfg, 1, 1).stages]
        assert all(s >= 0.0 for s in diag["stage_seconds"].values())

        def refuse():
            raise AssertionError("a forward without diagnostics read the clock")

        monkeypatch.setattr(htp.denoiser, "perf_counter", refuse)
        assert np.array_equal(timed, denoise_forward(y, x, 30, cfg, params))

    def test_dense_degenerate_equivalence_small(self):
        cfg = small_cfg(keep_frames=10, corr_topk=9, pool_threshold=1e-9)
        params = init_params(cfg, 6)
        y = gaussian(RngStream(14), (4, 10, 3))
        x = gaussian(RngStream(15), (4, 10, 2))
        pruned_path = denoise_forward(y, x, 77, cfg, params)
        dense_path = dense_reference_forward(y, x, 77, cfg, params)
        assert np.max(np.abs(pruned_path - dense_path)) < 1e-10

    def test_recompute_mask_flag_runs(self):
        cfg = small_cfg(recompute_mask_per_block=True)
        params = init_params(cfg, 7)
        out = denoise_forward(
            gaussian(RngStream(16), (4, 10, 3)), gaussian(RngStream(17), (4, 10, 2)), 9, cfg, params
        )
        assert np.isfinite(out).all()

    def test_no_nan_across_seeds(self):
        cfg = small_cfg()
        for seed in range(10):
            params = init_params(cfg, seed)
            out = denoise_forward(
                gaussian(RngStream(100 + seed), (4, 10, 3)),
                gaussian(RngStream(200 + seed), (4, 10, 2)),
                seed * 100, cfg, params,
            )
            assert np.isfinite(out).all()


class TestCheckpoints:
    def test_roundtrip_preserves_forward(self, tmp_path):
        cfg = small_cfg()
        params = init_params(cfg, 8)
        path = tmp_path / "p.ckpt"
        save_denoiser_params(path, params)
        loaded = load_denoiser_params(path, cfg)
        y = gaussian(RngStream(18), (4, 10, 3))
        x = gaussian(RngStream(19), (4, 10, 2))
        assert np.array_equal(
            denoise_forward(y, x, 40, cfg, params), denoise_forward(y, x, 40, cfg, loaded)
        )

    def test_wrong_config_rejected(self, tmp_path):
        from htp.io import FormatError

        cfg = small_cfg()
        path = tmp_path / "p.ckpt"
        save_denoiser_params(path, init_params(cfg, 9))
        with pytest.raises(FormatError, match="shape"):
            load_denoiser_params(path, small_cfg(embed_dim=32))

    def test_loading_draws_no_random_numbers(self, tmp_path, monkeypatch):
        cfg = small_cfg()
        params = init_params(cfg, 10)
        path = tmp_path / "p.ckpt"
        save_denoiser_params(path, params)

        def refuse(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew from an RngStream")

        for name in ("__init__", "normal", "uniform"):
            monkeypatch.setattr(RngStream, name, refuse)
        loaded = load_denoiser_params(path, cfg)
        assert np.array_equal(loaded.blocks[1].temporal_mlp.w2, params.blocks[1].temporal_mlp.w2)
        assert np.array_equal(loaded.head_w, params.head_w)
