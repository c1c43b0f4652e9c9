"""Run configuration loading and strict validation."""

import json
import re

import pytest

from htp.config import ConfigError, RunConfig, load_config
from htp.macs import profile_model

INF, NAN = float("inf"), float("nan")


class TestDefaults:
    def test_defaults_validate(self):
        cfg = load_config(None, {})
        assert cfg.frames == 243 and cfg.keep_frames == 54
        assert cfg.hypotheses == 20 and cfg.iterations == 10
        assert cfg.camera["fx"] == 1145.0

    def test_denoiser_config_built_from_run_config(self):
        den = load_config(None, {}).denoiser_config()
        assert den.corr_topk == 162 and den.blocks == 8


class TestLoading:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"frames": 27, "keep_frames": 9, "knn_k": 4, "corr_topk": 8}))
        cfg = load_config(path, {"keep_frames": 12, "seed": 5})
        assert cfg.frames == 27
        assert cfg.keep_frames == 12  # flag wins over file
        assert cfg.seed == 5

    def test_none_overrides_ignored(self):
        cfg = load_config(None, {"seed": None})
        assert cfg.seed == 0

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides,needle",
        [
            ({"keep_frames": 999}, "keep_frames"),
            ({"sparse_blocks": 99}, "sparse_blocks"),
            ({"corr_topk": 0}, "corr_topk"),
            ({"hypotheses": 0}, "hypotheses"),
            ({"iterations": 0}, "iterations"),
            ({"timesteps": 0}, "timesteps"),
            ({"ddim_eta": -0.1}, "ddim_eta"),
            ({"schedule": "sqrt"}, "schedule"),
            ({"pool_threshold": 2.0}, "pool_threshold"),
            ({"knn_k": 999}, "knn_k"),
            ({"embed_dim": 63}, "embed_dim"),
            ({"inference_sparse_blocks": 99}, "inference_sparse_blocks"),
            ({"camera": {"fx": 1.0, "fy": 1.0, "cx": 0.0}}, "camera"),
            ({"camera": {"fx": -5.0, "fy": 1.0, "cx": 0.0, "cy": 0.0}}, "camera"),
            ({"hypotheses": "2"}, "hypotheses"),
            ({"joints": 17.5}, "joints"),
            ({"recompute_mask_per_block": "yes"}, "recompute_mask_per_block"),
            ({"joint_adjacency": "abc"}, "joint_adjacency: must be a numeric"),
            ({"joint_adjacency": [[1.0, 0.0], [0.0]]}, "joint_adjacency: must be a numeric"),
            ({"heads": 0}, "heads: must be >= 1"),
            ({"heads": -2}, "heads: must be >= 1"),
            ({"mlp_ratio": float("inf")}, "mlp_ratio: hidden width must be finite"),
            ({"mlp_ratio": float("-inf")}, "mlp_ratio: hidden width must be finite"),
            ({"mlp_ratio": float("nan")}, "mlp_ratio: hidden width must be finite"),
            ({"mlp_ratio": 1e308}, "mlp_ratio: hidden width must be finite"),
            ({"camera": {"fx": float("nan"), "fy": 1.0, "cx": 0.0, "cy": 0.0}}, "camera: camera intrinsics must be finite"),
            ({"camera": {"fx": 1.0, "fy": 1.0, "cx": float("inf"), "cy": 0.0}}, "camera: camera intrinsics must be finite"),
            ({"camera": {"fx": None, "fy": 1.0, "cx": 0.0, "cy": 0.0}}, "camera: intrinsics must be numbers"),
            ({"iterations": 20, "timesteps": 10}, "iterations: must be <= timesteps=10"),
            ({"joints": 2, "joint_adjacency": [[1.0]]}, re.escape("joint_adjacency: must be a (2, 2) matrix")),
            ({"joints": 2, "joint_adjacency": [[INF, 0], [0, 1]]}, "joint_adjacency: entries must be finite"),
            ({"joints": 2, "joint_adjacency": [[NAN, 0], [0, 1]]}, "joint_adjacency: entries must be finite"),
            ({"joints": 2, "joint_adjacency": [[1, 1], [0, 1]]}, "joint_adjacency: must be symmetric"),
            ({"joints": 2, "joint_adjacency": [[0, 0], [0, 0]]}, re.escape("joint_adjacency: every row must sum to > 0 (rows [0, 1] do not)")),
            ({"joints": 2, "joint_adjacency": [[-1, 0], [0, 1]]}, re.escape("joint_adjacency: every row must sum to > 0 (rows [0] do not)")),
            ({"joints": 2, "joint_adjacency": [[1, 1], [1, -1]]}, re.escape("joint_adjacency: every row must sum to > 0 (rows [1] do not)")),
            ({"joints": 2, "joint_adjacency": [[1e308, 1e308], [1e308, 1]]}, re.escape("joint_adjacency: row sums must be finite (rows [0] overflow)")),
        ],
    )
    def test_named_violations(self, overrides, needle):
        with pytest.raises(ConfigError, match=needle):
            load_config(None, overrides)

    def test_small_model_leaves_inference_blocks_to_profile(self):
        cfg = load_config(None, {"blocks": 1, "sparse_blocks": 0})
        assert cfg.inference_sparse_blocks is None
        report = profile_model(cfg.denoiser_config(), 1, 1, cfg.inference_sparse_blocks)
        assert report.inference_sparse_blocks == 1
        for wrong in ("2", True):
            with pytest.raises(ConfigError, match=re.escape("inference_sparse_blocks: must be of type int | None")):
                load_config(None, {"inference_sparse_blocks": wrong})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            load_config(None, {"mystery": 1})

    def test_multiple_problems_all_reported(self):
        with pytest.raises(ConfigError) as err:
            load_config(None, {"hypotheses": 0, "iterations": 0})
        assert "hypotheses" in str(err.value) and "iterations" in str(err.value)

    def test_camera_model_construction(self):
        cam = RunConfig().camera_model()
        assert cam.fx == 1145.0 and cam.cy == 512.0

    def test_joint_adjacency_override(self):
        adj = [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        cfg = load_config(None, {"joints": 3, "frames": 9, "keep_frames": 4, "corr_topk": 4,
                                 "knn_k": 3, "joint_adjacency": adj})
        den = cfg.denoiser_config()
        assert den.joint_graph().tolist() == adj

    def test_joint_adjacency_must_be_symmetric(self):
        adj = [[1.0, 1.0], [0.0, 1.0]]
        with pytest.raises(ConfigError, match="joint_adjacency"):
            load_config(None, {"joints": 2, "frames": 9, "keep_frames": 4, "corr_topk": 4,
                               "knn_k": 3, "joint_adjacency": adj})
