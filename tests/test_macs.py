"""Analytic MAC accounting: primitives, stage walk, published-cost windows."""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from htp.denoiser import DenoiserConfig
from htp.macs import GIGA, macs_attention, macs_ffn, macs_linear, mask_support_rows, profile_model


class TestPrimitives:
    def test_unit_linear(self):
        assert macs_linear(1, 1, 1) == 1

    def test_direct_multiplication(self):
        # oracle: plain integer product for the default token grid
        assert macs_linear(17 * 243, 512, 512) == 17 * 243 * 512 * 512 == 1_082_916_864

    def test_tokens_linearity(self):
        assert macs_linear(2 * 100, 64, 32) == 2 * macs_linear(100, 64, 32)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            macs_linear(-1, 2, 2)

    def test_tiny_attention_enumeration(self):
        # J=1, F=2, D=2, h=1: count every multiply-accumulate explicitly
        muls = 0
        for _token in range(2):
            muls += 4 * 2 * 2  # q, k, v, o projections of a width-2 token
        for _q in range(2):
            for _k in range(2):
                muls += 2  # score dot product at head width 2
                muls += 2  # context accumulation
        assert macs_attention(2, 1, 2, 1) == muls == 48

    def test_support_halving_halves_scores_only(self):
        proj = 4 * macs_linear(2 * 8, 16, 16)
        full = macs_attention(8, 2, 16, 2)
        half = macs_attention(8, 2, 16, 2, support_total=64)
        assert full - proj == 2 * (half - proj)

    def test_ffn(self):
        assert macs_ffn(10, 8, 16) == 10 * 8 * 16 * 2

    def test_head_divisibility_checked(self):
        with pytest.raises(ValueError):
            macs_attention(4, 1, 10, 3)

    def test_support_bound_saturates(self):
        assert mask_support_rows(243, 162) == 243  # 2*162+1 > 243
        assert mask_support_rows(243, 10) == 21
        assert mask_support_rows(5, 99) == 5


class TestProfile:
    def test_totals_are_stage_sums(self):
        report = profile_model(DenoiserConfig(), 20, 10)
        assert sum(c for _, c in report.stages) == report.single_pass_total
        assert all(isinstance(c, int) and c >= 0 for _, c in report.stages)

    def test_single_pass_at_unit_sampling(self):
        report = profile_model(DenoiserConfig(), 1, 1)
        assert report.inference_total == report.inference_single_pass

    def test_inference_scales_exactly(self):
        base = profile_model(DenoiserConfig(), 1, 1)
        for hypotheses, iterations in ((20, 1), (20, 5), (20, 10)):
            rep = profile_model(DenoiserConfig(), hypotheses, iterations)
            assert rep.inference_total == base.inference_single_pass * hypotheses * iterations
            assert rep.dense_inference_total == base.dense_single_pass * hypotheses * iterations

    def test_published_cost_windows(self):
        report = profile_model(DenoiserConfig(), 20, 10)
        assert 0.85 * 278.1 * GIGA <= report.dense_single_pass <= 1.15 * 278.1 * GIGA
        assert 0.85 * 175.3 * GIGA <= report.single_pass_total <= 1.15 * 175.3 * GIGA
        assert 0.51 <= report.inference_reduction <= 0.61

    def test_post_prune_score_ratio_exact(self):
        cfg = DenoiserConfig()
        proj_kept = 4 * macs_linear(cfg.joints * cfg.keep_frames, cfg.embed_dim, cfg.embed_dim)
        proj_full = 4 * macs_linear(cfg.joints * cfg.frames, cfg.embed_dim, cfg.embed_dim)
        kept = macs_attention(cfg.keep_frames, cfg.joints, cfg.embed_dim, cfg.heads) - proj_kept
        full = macs_attention(cfg.frames, cfg.joints, cfg.embed_dim, cfg.heads) - proj_full
        assert Fraction(kept, full) == Fraction(54, 243) ** 2

    def test_quadratic_scaling_in_kept_frames(self):
        cfg = DenoiserConfig()
        for kept in (27, 54, 108):
            proj = 4 * macs_linear(cfg.joints * kept, cfg.embed_dim, cfg.embed_dim)
            sc = macs_attention(kept, cfg.joints, cfg.embed_dim, cfg.heads) - proj
            assert sc == 2 * cfg.joints * kept * kept * cfg.embed_dim

    def test_dense_dominates_pruned(self):
        for kept in (27, 54, 243):
            rep = profile_model(DenoiserConfig(keep_frames=kept), 1, 1)
            assert rep.dense_single_pass >= rep.single_pass_total

    def test_report_serialization(self):
        report = profile_model(DenoiserConfig(), 2, 3)
        data = report.as_dict()
        assert data["hypotheses"] == 2 and data["iterations"] == 3
        assert "stages" in data and data["stages"][0]["stage"] == "pose_embed"
        table = report.format_table()
        assert "single pass" in table and "reduction" in table

    def test_defaults_unmoved_by_the_support_and_refresh_charges(self):
        # a saturated mask and no refresh: criterion 7's figures stay where they were
        report = profile_model(DenoiserConfig(), 20, 10)
        assert report.single_pass_total == 169_648_486_400
        assert round(report.inference_reduction, 4) == 0.5460

    def test_tcep_mix_at_support_and_refresh_per_masked_block(self):
        # long_sparse geometry: J=17, F=729, D=64, corr_topk 8, two masked blocks
        cfg = DenoiserConfig(frames=729, keep_frames=162, corr_topk=8, embed_dim=64, blocks=4, sparse_blocks=2,
                             heads=2, mlp_ratio=2.0, recompute_mask_per_block=True)
        j, frames, dim, support_rows = 17, 729, 64, 17  # support_rows = min(2 * 8 + 1, 729)
        similarity = j * frames * frames * dim  # one mask build's J * F^2 * D
        report = profile_model(cfg, 1, 1)
        stages = dict(report.stages)
        assert stages["tcep"] == similarity + j * frames * support_rows * dim + j * frames * dim * dim
        fixed = profile_model(replace(cfg, recompute_mask_per_block=False), 1, 1)
        for i in range(cfg.sparse_blocks):
            assert stages[f"block{i}_full"] - dict(fixed.stages)[f"block{i}_full"] == similarity
        assert report.single_pass_total - fixed.single_pass_total == cfg.sparse_blocks * similarity
        assert report.single_pass_total == 4_937_021_696
        assert report.dense_single_pass == fixed.dense_single_pass  # the dense model builds no mask

    def test_inference_and_dense_lines_are_walks_of_configs(self):
        # the inference line walks cfg at its masked-block count; the dense line walks criterion 6's
        # degenerate config: every frame kept, a saturated mask, no per-block refresh
        for frames, keep, topk, sparse, refresh in product((1, 9, 243), (0.25, 1), (2, 999), (0, 1, 3), (False, True)):
            cfg = DenoiserConfig(joints=5, frames=frames, keep_frames=max(1, int(keep * frames)), corr_topk=topk,
                                 embed_dim=16, heads=2, mlp_ratio=2.0, blocks=3, sparse_blocks=sparse, knn_k=1,
                                 recompute_mask_per_block=refresh)
            dense = replace(cfg, keep_frames=frames, corr_topk=frames, recompute_mask_per_block=False)
            for isb in (0, 2, 3):
                report, inference = profile_model(cfg, 2, 3, isb), replace(cfg, sparse_blocks=isb)
                assert report.dense_single_pass == profile_model(dense, 1, 1).single_pass_total
                assert report.inference_single_pass == profile_model(inference, 1, 1).single_pass_total

    def test_inference_blocks_validated(self):
        with pytest.raises(ValueError):
            profile_model(DenoiserConfig(), 1, 1, inference_sparse_blocks=99)
