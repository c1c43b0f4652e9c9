"""End-to-end CLI behavior, through real subprocesses except where a test
injects a stage failure or reads a profile in-process."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import htp.denoiser
from htp import io as htp_io
from htp.cli import EXIT_CONFIG, EXIT_IO, EXIT_STAGE, main

TINY = {
    "joints": 4,
    "frames": 12,
    "embed_dim": 16,
    "keep_frames": 5,
    "corr_topk": 4,
    "blocks": 2,
    "sparse_blocks": 1,
    "heads": 2,
    "mlp_ratio": 2.0,
    "knn_k": 3,
    "hypotheses": 2,
    "iterations": 2,
    "timesteps": 50,
    "seed": 7,
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "htp", *args], capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(scope="module")
def generated(tmp_path_factory, tiny_config):
    out = tmp_path_factory.mktemp("gen")
    gt, obs = str(out / "gt.csv"), str(out / "obs.csv")
    result = run_cli("generate", "--config", tiny_config, "--kind", "walk_cycle",
                     "--out-3d", gt, "--out-2d", obs)
    assert result.returncode == 0, result.stderr
    return gt, obs


class TestGenerate:
    def test_writes_both_files(self, generated):
        gt, obs = generated
        assert htp_io.read_pose_csv(gt).shape == (4, 12, 3)
        assert htp_io.read_pose_csv(obs).shape == (4, 12, 2)

    def test_same_seed_same_bytes(self, tmp_path, tiny_config, generated):
        gt2, obs2 = str(tmp_path / "gt2.csv"), str(tmp_path / "obs2.csv")
        result = run_cli("generate", "--config", tiny_config, "--kind", "walk_cycle",
                         "--out-3d", gt2, "--out-2d", obs2)
        assert result.returncode == 0
        assert Path(generated[0]).read_bytes() == Path(gt2).read_bytes()
        assert Path(generated[1]).read_bytes() == Path(obs2).read_bytes()


class TestInfer:
    def test_deterministic_outputs(self, tmp_path, tiny_config, generated):
        _, obs = generated
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            result = run_cli("infer", "--config", tiny_config, "--in-2d", obs, "--out", out)
            assert result.returncode == 0, result.stderr
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_emits_retained_and_mask(self, tmp_path, tiny_config, generated):
        _, obs = generated
        out = str(tmp_path / "out.csv")
        retained = str(tmp_path / "retained.json")
        mask_path = str(tmp_path / "mask.htp1")
        result = run_cli("infer", "--config", tiny_config, "--in-2d", obs, "--out", out,
                         "--emit-retained", retained, "--emit-mask", mask_path)
        assert result.returncode == 0, result.stderr
        indices = json.loads(Path(retained).read_text())
        assert indices == sorted(indices) and len(indices) == TINY["keep_frames"]
        mask = htp_io.read_tensor(mask_path)
        assert mask.shape == (4, 12, 12)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_oracle_stub_with_deterministic_sampler(self, tmp_path, tiny_config, generated):
        gt, obs = generated
        out = str(tmp_path / "oracle_out.csv")
        result = run_cli("infer", "--config", tiny_config, "--in-2d", obs, "--out", out,
                         "--oracle-y0", gt, "--eta-ddim", "0")
        assert result.returncode == 0, result.stderr
        recovered = htp_io.read_pose_csv(out)
        truth = htp_io.read_pose_csv(gt)
        assert np.max(np.abs(recovered - truth)) < 1e-6

    def test_mpjpe_report(self, tmp_path, tiny_config, generated):
        gt, obs = generated
        out = str(tmp_path / "o.csv")
        result = run_cli("infer", "--config", tiny_config, "--in-2d", obs, "--out", out,
                         "--oracle-y0", gt, "--eta-ddim", "0", "--gt-3d", gt, "--time")
        assert result.returncode == 0
        assert "MPJPE" in result.stdout
        assert "frames/s" in result.stdout

    def test_save_params_checkpoint(self, tmp_path, tiny_config, generated):
        _, obs = generated
        ckpt = str(tmp_path / "params.ckpt")
        result = run_cli("infer", "--config", tiny_config, "--in-2d", obs,
                         "--out", str(tmp_path / "x.csv"), "--save-params", ckpt)
        assert result.returncode == 0
        loaded = htp_io.load_checkpoint(ckpt)
        assert "embed.w" in loaded and loaded["embed.w"].shape == (5, 16)

    def test_shape_mismatch_is_config_error(self, tmp_path, tiny_config, generated):
        gt, _ = generated  # 3 columns where 2 are expected
        result = run_cli("infer", "--config", tiny_config, "--in-2d", gt, "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert "config error" in result.stderr

    def test_missing_input_is_io_error(self, tmp_path, tiny_config):
        result = run_cli("infer", "--config", tiny_config, "--in-2d", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 3

    @pytest.mark.parametrize("defect", ["csv_row", "checkpoint"])
    def test_malformed_input_exits_3_and_names_file(self, tmp_path, tiny_config, generated, capsys, defect):
        _, obs = generated
        args = ["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(tmp_path / "x.csv")]
        if defect == "csv_row":
            bad = tmp_path / "obs_bad.csv"
            bad.write_text(Path(obs).read_text().replace("\n1,0,", "\n1,x,", 1))
            args[4] = str(bad)
        else:
            bad = tmp_path / "params_bad.ckpt"
            bad.write_bytes(b"not a zip archive")
            args += ["--params", str(bad)]
        assert main(args) == EXIT_IO == 3
        assert str(bad) in capsys.readouterr().err

    def test_failing_stage_exits_1_and_names_it(self, tmp_path, tiny_config, generated, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("empty support")

        monkeypatch.setattr(htp.denoiser, "tcep_refine", broken)
        _, obs = generated
        code = main(["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_STAGE == 1
        assert "tcep: empty support" in capsys.readouterr().err

    def test_invalid_flag_value_is_config_error(self, tmp_path, tiny_config, generated):
        _, obs = generated
        result = run_cli("infer", "--config", tiny_config, "--in-2d", obs,
                         "--out", str(tmp_path / "x.csv"), "--K", "0")
        assert result.returncode == 2
        assert "iterations" in result.stderr


class TestProfile:
    def test_table_and_json(self, tmp_path):
        json_out = str(tmp_path / "report.json")
        result = run_cli("profile", "--H", "20", "--K", "10", "--json", json_out)
        assert result.returncode == 0, result.stderr
        assert "single pass" in result.stdout
        data = json.loads(Path(json_out).read_text())
        assert data["hypotheses"] == 20 and data["iterations"] == 10
        assert data["inference_total"] == data["inference_single_pass"] * 200

    def test_saturated_mask_reported_at_defaults(self, capsys):
        assert main(["profile"]) == 0
        assert "temporal mask saturated" in capsys.readouterr().out

    def test_unsaturated_mask_not_reported(self, tmp_path, capsys):
        path = tmp_path / "long_sparse.json"
        path.write_text(json.dumps({"frames": 729, "corr_topk": 8}))
        assert main(["profile", "--config", str(path)]) == 0
        assert "saturated" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad", [{"hypotheses": "2"}, {"joints": 17.5}, {"recompute_mask_per_block": "yes"}, {"joint_adjacency": "abc"}]
    )
    def test_wrong_json_type_is_config_error(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["profile", "--config", str(path)]) == EXIT_CONFIG
        assert next(iter(bad)) in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"blocks": 2, "wat": True}))
        result = run_cli("profile", "--config", str(path))
        assert result.returncode == 2
        assert "wat" in result.stderr
