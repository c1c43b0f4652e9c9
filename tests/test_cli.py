"""End-to-end CLI behavior, through real subprocesses except where a test
injects a stage failure or reads a profile in-process."""

import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import htp.denoiser
import htp.verify
from htp import io as htp_io
from htp.cli import EXIT_CONFIG, EXIT_IO, EXIT_STAGE, EXIT_VERIFY, main
from htp.config import RunConfig

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

INF, NAN = float("inf"), float("nan")
# Joint graphs that must fail at configuration: non-finite, a row with no positive weight,
# or rows whose sums overflow.
BAD_ADJACENCIES = [[[INF, 0], [0, 1]], [[NAN, 0], [0, 1]], [[0, 0], [0, 0]], [[-1, 0], [0, 1]], [[1, 1], [1, -1]],
                   [[1e308, 1e308], [1e308, 1e308]]]


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "htp", *args], capture_output=True, text=True, timeout=300, env=env
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
    @pytest.mark.parametrize("noise", ["-1", "nan", "inf", "1e308"])  # 1e308: finite, but the noisy pixels overflow
    def test_invalid_noise_is_config_error(self, tmp_path, tiny_config, capsys, noise):
        out_3d, out_2d = tmp_path / "gt.csv", tmp_path / "obs.csv"
        code = main(["generate", "--config", tiny_config, f"--noise-2d={noise}",
                     "--out-3d", str(out_3d), "--out-2d", str(out_2d)])
        assert code == EXIT_CONFIG
        assert "generate: config error: noise_2d: " in capsys.readouterr().err
        assert not out_3d.exists() and not out_2d.exists()

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

    @pytest.mark.parametrize("frames", [40, 6])
    def test_frames_below_keep_frames_accepted_at_defaults(self, tmp_path, frames):
        # generate reads joints, frames, seed and camera; keep_frames (54 by default) constrains only the network
        out_3d, out_2d = tmp_path / "gt.csv", tmp_path / "obs.csv"
        assert main(["generate", "--joints", "17", "--frames", str(frames),
                     "--out-3d", str(out_3d), "--out-2d", str(out_2d)]) == 0
        assert htp_io.read_pose_csv(out_2d).shape == (17, frames, 2)

    @pytest.mark.parametrize("config,message", [
        ({"frames": 0}, "frames: must be >= 1 (got 0)"),
        ({"bogus": 1}, "unknown config keys: ['bogus']"),
        ({"joints": 2, "frames": 6, "camera": {"fx": 1e308, "fy": 1e308, "cx": 512.0, "cy": 512.0}},
         "camera: the generated poses project to non-finite pixels"),
        ({"joints": 10**17, "frames": 6}, "joints, frames: cannot allocate"),  # 2 EiB: refused without allocating
    ])
    def test_config_error_writes_neither_file(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out_3d, out_2d = tmp_path / "gt.csv", tmp_path / "obs.csv"
        code = main(["generate", "--config", str(path), "--out-3d", str(out_3d), "--out-2d", str(out_2d)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out_3d.exists() and not out_2d.exists()

    def test_missing_output_directory_writes_neither_file(self, tmp_path, tiny_config, capsys):
        out_3d = tmp_path / "gt.csv"
        code = main(["generate", "--config", tiny_config, "--out-3d", str(out_3d),
                     "--out-2d", str(tmp_path / "missing" / "obs.csv")])
        assert code == EXIT_IO
        assert "out_2d: directory" in capsys.readouterr().err
        assert not out_3d.exists()

    def test_output_path_that_is_a_directory_writes_neither_file(self, tmp_path, tiny_config, capsys):
        out_2d = tmp_path / "obs.csv"
        code = main(["generate", "--config", tiny_config, "--out-3d", str(tmp_path), "--out-2d", str(out_2d)])
        assert code == EXIT_IO
        assert f"out_3d: {tmp_path} is a directory" in capsys.readouterr().err
        assert not out_2d.exists()

    @pytest.mark.parametrize("field", ["out_3d", "out_2d"])
    def test_empty_output_path_is_config_error_before_generating(self, tmp_path, tiny_config, monkeypatch, capsys,
                                                                field):
        def refuse(*args, **kwargs):
            raise AssertionError("generate ran before refusing an empty output path")

        monkeypatch.setattr("htp.cli.generate_synthetic", refuse)
        paths = {"out_3d": str(tmp_path / "gt.csv"), "out_2d": str(tmp_path / "obs.csv"), field: ""}
        code = main(["generate", "--config", tiny_config, "--out-3d", paths["out_3d"], "--out-2d", paths["out_2d"]])
        assert code == EXIT_CONFIG
        assert f"generate: config error: {field}: no output path given" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    def test_blas_thread_count_moves_poses_only_in_the_last_bits(self, tmp_path):
        # At the smoke geometry the frame similarity's syrk gives other last bits at 1 and 2 OpenBLAS
        # threads; the poses moved by 4.5e-16 relative, the masks and retained frames not at all.
        config = tmp_path / "smoke.json"
        config.write_text(json.dumps({"embed_dim": 64, "blocks": 4, "sparse_blocks": 2, "heads": 2, "mlp_ratio": 2.0,
                                      "hypotheses": 1, "iterations": 2, "seed": 3}))
        obs = str(tmp_path / "obs.csv")
        assert run_cli("generate", "--config", str(config), "--out-3d", str(tmp_path / "gt.csv"),
                       "--out-2d", obs).returncode == 0
        runs = []
        for threads in ("1", "2"):  # one run at a time, so at most 2 BLAS threads
            out, retained, mask = (str(tmp_path / f"{threads}{name}") for name in (".csv", ".json", ".htp1"))
            result = run_cli("infer", "--config", str(config), "--in-2d", obs, "--out", out,
                             "--emit-retained", retained, "--emit-mask", mask,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert result.returncode == 0, result.stderr
            runs.append((htp_io.read_pose_csv(out), Path(retained).read_bytes(), htp_io.read_tensor(mask)))
        (pose_1, retained_1, mask_1), (pose_2, retained_2, mask_2) = runs
        assert retained_1 == retained_2
        assert np.array_equal(mask_1, mask_2)
        assert np.max(np.abs(pose_1 - pose_2)) <= 1e-12 * np.max(np.abs(pose_1))

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

    def test_emitted_mask_is_the_forward_mask_as_float64(self, tmp_path, tiny_config, generated, monkeypatch):
        # the forward pass hands over a boolean mask; the file keeps the float64 0/1 format
        _, obs = generated
        seen = []

        def recording(*args, diagnostics=None, **kwargs):
            out = htp.denoiser.denoise_forward(*args, diagnostics=diagnostics, **kwargs)
            if diagnostics is not None:
                seen.append(diagnostics["temporal_mask"])
            return out

        monkeypatch.setattr("htp.cli.denoise_forward", recording)
        mask_path = tmp_path / "mask.htp1"
        assert main(["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(tmp_path / "o.csv"),
                     "--emit-mask", str(mask_path)]) == 0
        (mask,) = seen
        assert mask.dtype == bool
        raw = mask_path.read_bytes()
        assert raw[8:32] == b"".join(d.to_bytes(8, "little") for d in mask.shape)
        assert raw[32:] == mask.astype("<f8").tobytes()

    def test_clamp_reported_once_per_run(self, tmp_path, generated, caplog):
        # H=3, K=4 with per-block masks builds 3 * 4 * (1 + sparse_blocks) masks; the clamp is told once
        _, obs = generated
        outs, clamps = {}, {}
        for corr_topk in (20, 11):  # F = 12: 20 clamps to 11
            config = tmp_path / f"k{corr_topk}.json"
            config.write_text(json.dumps({**TINY, "hypotheses": 3, "iterations": 4, "corr_topk": corr_topk,
                                          "recompute_mask_per_block": True}))
            outs[corr_topk] = tmp_path / f"k{corr_topk}.csv"
            caplog.clear()
            with caplog.at_level(logging.DEBUG):
                assert main(["infer", "--config", str(config), "--in-2d", obs, "--out", str(outs[corr_topk])]) == 0
            clamps[corr_topk] = [(r.name, r.levelname, r.getMessage()) for r in caplog.records if "clamp" in r.getMessage()]
        assert clamps[20] == [("htp.cli", "WARNING", "infer: clamping corr_topk=20 to 11 for 12 frames")]
        assert clamps[11] == []
        assert outs[20].read_bytes() == outs[11].read_bytes()  # the clamped run is the corr_topk = F - 1 run

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

    def test_ground_truth_shape_checked_before_sampling(self, tmp_path, tiny_config, generated, monkeypatch, capsys):
        _, obs = generated
        gt = tmp_path / "gt_short.csv"
        htp_io.write_pose_csv(gt, np.zeros((TINY["joints"], TINY["frames"] - 1, 3)))

        def refuse(*args, **kwargs):
            raise AssertionError("infer sampled before checking the ground-truth shape")

        monkeypatch.setattr("htp.cli.denoise_forward", refuse)
        out = tmp_path / "x.csv"
        code = main(["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(out), "--gt-3d", str(gt)])
        assert code == EXIT_CONFIG
        assert "input_gt" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("poison", [INF, NAN])
    def test_non_finite_checkpoint_exits_3_before_any_forward(self, tmp_path, tiny_config, generated, monkeypatch,
                                                               capsys, poison):
        _, obs = generated
        good, bad = tmp_path / "params.ckpt", tmp_path / "params_bad.ckpt"
        args = ["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(tmp_path / "x.csv")]
        assert main(args + ["--save-params", str(good)]) == 0
        tensors = htp_io.load_checkpoint(good)
        tensors["block0.spatial.attn.ln_scale"][0] = poison
        htp_io.save_checkpoint(bad, tensors)

        def refuse(*args, **kwargs):
            raise AssertionError("infer ran a forward pass on a non-finite checkpoint")

        monkeypatch.setattr("htp.cli.denoise_forward", refuse)
        capsys.readouterr()
        assert main(args + ["--params", str(bad)]) == EXIT_IO == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "block0.spatial.attn.ln_scale" in err and "non-finite" in err

    @pytest.mark.parametrize("flag", ["--out", "--emit-retained", "--emit-mask"])
    def test_missing_output_directory_exits_3_before_any_work(self, tmp_path, tiny_config, generated, monkeypatch,
                                                              capsys, flag):
        _, obs = generated
        missing, saved, out = tmp_path / "absent" / "x.out", tmp_path / "params.ckpt", tmp_path / "x.csv"
        outputs = {"--out": str(out), flag: str(missing)}  # the flag under test points into a missing directory

        def refuse(*args, **kwargs):
            raise AssertionError("infer ran a forward pass before checking its output directories")

        monkeypatch.setattr("htp.cli.denoise_forward", refuse)
        args = ["infer", "--config", tiny_config, "--in-2d", obs, "--save-params", str(saved)]
        assert main(args + [arg for pair in outputs.items() for arg in pair]) == EXIT_IO
        assert str(missing) in capsys.readouterr().err
        assert not saved.exists() and not out.exists()

    @pytest.mark.parametrize("flag,field", [("--out", "output_3d"), ("--emit-retained", "emit_retained"),
                                            ("--emit-mask", "emit_mask"), ("--save-params", "save_params")])
    def test_output_path_that_is_a_directory_exits_3_before_any_work(self, tmp_path, tiny_config, generated,
                                                                     monkeypatch, capsys, flag, field):
        _, obs = generated
        directory, out = tmp_path / "taken", tmp_path / "x.csv"
        directory.mkdir()

        def refuse(*args, **kwargs):
            raise AssertionError("infer drew parameters or ran a forward pass before checking its output paths")

        monkeypatch.setattr("htp.cli.init_params", refuse)
        monkeypatch.setattr("htp.cli.denoise_forward", refuse)
        outputs = {"--out": str(out), flag: str(directory)}
        args = ["infer", "--config", tiny_config, "--in-2d", obs]
        code = main(args + [arg for pair in outputs.items() for arg in pair])
        assert code == EXIT_IO
        assert f"infer: i/o error: {field}: {directory} is a directory" in capsys.readouterr().err
        assert not out.exists() and list(directory.iterdir()) == []

    def test_save_params_into_missing_directory_exits_3_before_drawing(self, tmp_path, tiny_config, generated,
                                                                       monkeypatch, capsys):
        _, obs = generated
        missing, out = tmp_path / "absent" / "p.ckpt", tmp_path / "x.csv"

        def refuse(*args, **kwargs):
            raise AssertionError("infer drew parameters before checking --save-params")

        monkeypatch.setattr("htp.cli.init_params", refuse)
        code = main(["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(out),
                     "--save-params", str(missing)])
        assert code == EXIT_IO
        assert f"infer: i/o error: save_params: directory of {missing} does not exist" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--params", "--save-params", "--emit-retained", "--emit-mask"])
    def test_network_only_flag_with_oracle_is_config_error_before_any_input(self, tmp_path, tiny_config, capsys,
                                                                             flag):
        named, out = tmp_path / "named.file", tmp_path / "x.csv"
        missing = str(tmp_path / "missing.csv")  # no input exists: the flag is refused before any is read
        code = main(["infer", "--config", tiny_config, "--in-2d", missing, "--oracle-y0", missing,
                     "--out", str(out), flag, str(named)])
        assert code == EXIT_CONFIG
        field = flag[2:].replace("-", "_")
        assert (f"infer: config error: {field}: not available with --oracle-y0 (the network never runs)"
                in capsys.readouterr().err)
        assert not named.exists() and not out.exists()

    def test_checkpoint_shape_mismatch_names_file_and_tensor(self, tmp_path, tiny_config, generated, capsys):
        _, obs = generated
        ckpt, narrow = tmp_path / "params.ckpt", tmp_path / "narrow.json"
        narrow.write_text(json.dumps({**TINY, "embed_dim": 8}))
        args = ["infer", "--in-2d", obs, "--out", str(tmp_path / "x.csv")]
        assert main(args + ["--config", tiny_config, "--save-params", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(args + ["--config", str(narrow), "--params", str(ckpt)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{ckpt}: tensor block0.spatial.attn.wq: shape (16, 16), config expects (8, 8)" in err

    @pytest.mark.parametrize("timesteps", [10**5, 10**12])  # an underflowing schedule; a 7.28 TiB one
    def test_unbuildable_schedule_is_config_error_before_any_input(self, tmp_path, tiny_config, capsys, timesteps):
        saved, out = tmp_path / "params.ckpt", tmp_path / "x.csv"
        # neither input exists: the schedule is built before either is read
        code = main(["infer", "--config", tiny_config, "--T", str(timesteps), "--in-2d", str(tmp_path / "missing.csv"),
                     "--params", str(tmp_path / "missing.ckpt"), "--save-params", str(saved), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"infer: config error: timesteps: no linear schedule over {timesteps} steps" in capsys.readouterr().err
        assert not saved.exists() and not out.exists()

    def test_unallocatable_parameters_are_config_error(self, tmp_path, generated, capsys):
        # a (10**9, 10**9) float64 is 6.94 EiB: numpy refuses it without touching memory
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({**TINY, "embed_dim": 10**9, "heads": 1}))
        out, ckpt = tmp_path / "out.csv", tmp_path / "p.ckpt"
        _, obs = generated
        code = main(["infer", "--config", str(config), "--in-2d", obs, "--out", str(out), "--save-params", str(ckpt)])
        assert code == EXIT_CONFIG
        assert "block0.spatial.attn.wq (1000000000, 1000000000)" in capsys.readouterr().err
        assert not out.exists() and not ckpt.exists()

    def test_failing_stage_exits_1_and_names_it(self, tmp_path, tiny_config, generated, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("empty support")

        monkeypatch.setattr(htp.denoiser, "tcep_refine", broken)
        _, obs = generated
        code = main(["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_STAGE == 1
        assert "tcep: empty support" in capsys.readouterr().err

    def test_overflowing_checkpoint_exits_1_at_head_and_writes_no_pose(self, tmp_path, tiny_config, generated):
        # A subprocess: in-process, pytest turns numpy's overflow warning into an earlier stage failure.
        _, obs = generated
        ckpt, big, out = tmp_path / "p.ckpt", tmp_path / "big.ckpt", tmp_path / "x.csv"
        args = ["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(out)]
        assert run_cli(*args, "--save-params", str(ckpt)).returncode == 0
        out.unlink()
        tensors = htp_io.load_checkpoint(ckpt)
        tensors["head.w"] *= 1e308  # still finite, so the checkpoint loads
        htp_io.save_checkpoint(big, tensors)
        result = run_cli(*args, "--params", str(big))
        assert result.returncode == EXIT_STAGE == 1
        assert result.stderr.splitlines()[-1] == "infer: head: output is not finite"
        assert not out.exists()

    def test_config_file_paths(self, tmp_path, generated, capsys):
        gt, obs = generated
        flagged, configured = tmp_path / "flagged.csv", tmp_path / "configured.csv"
        config = tmp_path / "paths.json"
        config.write_text(json.dumps({**TINY, "input_2d": obs, "output_3d": str(configured), "input_gt": gt}))
        assert main(["infer", "--config", str(config)]) == 0
        assert f"infer: MPJPE vs {gt}: " in capsys.readouterr().out
        plain = tmp_path / "tiny.json"
        plain.write_text(json.dumps(TINY))
        assert main(["infer", "--config", str(plain), "--in-2d", obs, "--out", str(flagged)]) == 0
        assert configured.read_bytes() == flagged.read_bytes()

    def test_path_flags_override_config_paths(self, tmp_path, generated, capsys):
        gt, obs = generated
        configured, flagged = tmp_path / "configured.csv", tmp_path / "flagged.csv"
        config = tmp_path / "paths.json"
        missing = str(tmp_path / "missing.csv")  # read only if a flag lost to its key
        config.write_text(json.dumps({**TINY, "input_2d": missing, "output_3d": str(configured), "input_gt": missing}))
        code = main(["infer", "--config", str(config), "--in-2d", obs, "--out", str(flagged), "--gt-3d", gt])
        assert code == 0
        assert f"infer: MPJPE vs {gt}: " in capsys.readouterr().out
        assert flagged.exists() and not configured.exists()

    @pytest.mark.parametrize(
        "given, message",
        [
            ([], "input_2d: no 2-D input file given (use --in-2d or config input_2d)"),
            (["--in-2d", "obs.csv"], "output_3d: no output path given (use --out or config output_3d)"),
        ],
    )
    def test_missing_path_is_config_error(self, tiny_config, capsys, given, message):
        assert main(["infer", "--config", tiny_config, *given]) == EXIT_CONFIG
        assert f"infer: config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("field,flag,message", [("input_2d", "--in-2d", "no 2-D input file given"),
                                                    ("output_3d", "--out", "no output path given")])
    @pytest.mark.parametrize("given_by", ["flag", "config"])
    def test_empty_required_path_is_config_error_before_any_input(self, tmp_path, generated, monkeypatch, capsys,
                                                                 field, flag, message, given_by):
        def refuse(*args, **kwargs):
            raise AssertionError("infer read an input before refusing an empty required path")

        monkeypatch.setattr(htp_io, "read_pose_csv", refuse)
        paths = {"input_2d": generated[1], "output_3d": str(tmp_path / "x.csv")}
        config = tmp_path / "cfg.json"
        if given_by == "config":
            config.write_text(json.dumps({**TINY, **paths, field: ""}))
            argv = ["infer", "--config", str(config)]
        else:
            config.write_text(json.dumps(TINY))
            argv = ["infer", "--config", str(config), "--in-2d", paths["input_2d"], "--out", paths["output_3d"]]
            argv += [flag, ""]
        assert main(argv) == EXIT_CONFIG
        assert f"infer: config error: {field}: {message}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_empty_optional_paths_mean_not_given(self, tmp_path, tiny_config, generated, capsys):
        _, obs = generated
        out = tmp_path / "x.csv"
        args = ["--gt-3d", "", "--save-params", "", "--emit-retained", "", "--emit-mask", ""]
        assert main(["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(out), *args]) == 0
        assert "MPJPE" not in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    @pytest.mark.parametrize("fx", [1e300, 1e308])  # the squared pixel error overflows; the pixel itself overflows
    def test_overflowing_camera_projection_exits_0_without_warning(self, tmp_path, generated, fx):
        _, obs = generated
        config, out = tmp_path / "camera.json", tmp_path / "x.csv"
        config.write_text(json.dumps({**TINY, "camera": {"fx": fx, "fy": 1145.0, "cx": 512.0, "cy": 512.0}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["infer", "--config", str(config), "--in-2d", obs, "--out", str(out)]) == 0
        assert np.isfinite(htp_io.read_pose_csv(out)).all()

    def test_invalid_flag_value_is_config_error(self, tmp_path, tiny_config, generated):
        _, obs = generated
        result = run_cli("infer", "--config", tiny_config, "--in-2d", obs,
                         "--out", str(tmp_path / "x.csv"), "--K", "0")
        assert result.returncode == 2
        assert "iterations" in result.stderr

    def test_more_iterations_than_timesteps_is_config_error(self, tmp_path, tiny_config, generated, monkeypatch,
                                                             capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("infer ran the network with an invalid K/T pair")

        monkeypatch.setattr("htp.cli.denoise_forward", refuse)
        _, obs = generated
        code = main(["infer", "--config", tiny_config, "--in-2d", obs, "--out", str(tmp_path / "x.csv"),
                     "--K", "20", "--T", "10"])
        assert code == EXIT_CONFIG
        assert "iterations: must be <= timesteps=10" in capsys.readouterr().err


# Bad or boundary values for one key of a tiny valid infer config. Every value keeps H, K <= 2 and every tensor
# far under init_params' threaded size, asks for no threads, and never pairs a large timesteps with "cosine".
_BAD_NUMBERS = [float("nan"), INF, -INF, -1, 0, True, "2", None]
_CAMERA = {"fx": 1145.0, "fy": 1145.0, "cx": 512.0, "cy": 512.0}
BAD_VALUES = {
    "joints": _BAD_NUMBERS + [1, 5, 17, 2.5],
    "frames": _BAD_NUMBERS + [1, 2, 11, 13],
    "embed_dim": _BAD_NUMBERS + [1, 3, 32],
    "keep_frames": _BAD_NUMBERS + [1, 12, 13],
    "corr_topk": _BAD_NUMBERS + [1, 11, 12, 10**6],
    "blocks": _BAD_NUMBERS + [1, 3],
    "sparse_blocks": _BAD_NUMBERS + [2, 3],
    "heads": _BAD_NUMBERS + [1, 3, 16, 32],
    "mlp_ratio": _BAD_NUMBERS + [1e-9, 0.5, 1],
    "pool_threshold": _BAD_NUMBERS + [1e-300, 1, 1.5],
    "knn_k": _BAD_NUMBERS + [1, 11, 12],
    "temporal_graph": ["", "ring", 1, None, "full"],
    "recompute_mask_per_block": [1, 0, "yes", None, True],
    "joint_adjacency": ["abc", [[1]], [[1, 0], [0, 1]], np.full((4, 4), NAN).tolist(), np.eye(4).tolist(),
                        np.full((4, 4), 1e308).tolist()],
    "hypotheses": _BAD_NUMBERS + [1, 2.0],
    "iterations": _BAD_NUMBERS + [1, 2.0],
    "timesteps": _BAD_NUMBERS + [1, 2, 10**5, 10**12],
    "ddim_eta": _BAD_NUMBERS + [0.0, 1, 1.5],
    "schedule": ["", "cosine", "quadratic", 1, None],
    "seed": _BAD_NUMBERS + [2**32, 2**64, 2**200],
    "inference_sparse_blocks": _BAD_NUMBERS + [2, 3],
    "camera": [{**_CAMERA, k: v} for k in ("fx", "cx") for v in (1e300, 1e308, -1e308, 0.0, NAN, INF, "1", True)]
              + [{k: v for k, v in _CAMERA.items() if k != "cy"}, {**_CAMERA, "k1": 0.1}, [], "pinhole"],
    "input_2d": ["", 5, None, True, ".", "missing.csv"],
    "input_gt": ["", 5, True, ".", "missing.csv", "obs.csv"],
    "output_3d": ["", 5, None, True, ".", "missing/x.csv"],
}
FIELDS = {f.name for f in fields(RunConfig)}


def test_generated_bad_config_values_keep_the_exit_code_contract(tmp_path, generated, monkeypatch, capsys):
    """Each run exits 0, 2 or 3, or 1 naming its stage; no exception escapes; a failure names the field or
    path it refuses and writes nothing."""
    monkeypatch.chdir(tmp_path)  # relative paths among the values resolve here
    _, obs = generated
    Path("obs.csv").write_bytes(Path(obs).read_bytes())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(BAD_VALUES)).flatmap(lambda k: st.tuples(st.just(k), st.sampled_from(BAD_VALUES[k]))))
    @example(("camera", {**_CAMERA, "fx": 1e308}))
    @example(("output_3d", ""))
    @example(("input_2d", ""))
    def check(mutation):
        key, value = mutation
        run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
        config = {**TINY, "input_2d": obs, "output_3d": str(run_dir / "x.csv"), key: value}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = main(["infer", "--config", str(tmp_path / "cfg.json")])
        err = capsys.readouterr().err.strip()
        if code == 0:
            return
        last = err.splitlines()[-1]
        named = [f for f in FIELDS if re.search(rf"\b{f}[:,]", last)]
        paths = [v for v in config.values() if isinstance(v, str) and v and v in last]
        assert code in (1, 2, 3), (mutation, code, err)
        if code == 1:
            assert re.match(r"infer: [a-z][a-z0-9_]*: ", last), (mutation, err)
        else:
            assert last.startswith(("infer: config error: ", "infer: i/o error: ")), (mutation, err)
            assert named or paths, (mutation, err)
        assert list(run_dir.iterdir()) == [], (mutation, err)

    check()


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["generate", "infer", "profile", "verify"])
def test_seed_outside_the_stream_range_is_config_error(tmp_path, capsys, command, seed):
    # RngStream reads a seed mod 2**64, so -1 would run the stream of 2**64 - 1
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**TINY, "seed": seed}))
    args = {
        "generate": ["--config", str(config), "--out-3d", str(tmp_path / "g.csv"), "--out-2d", str(tmp_path / "o.csv")],
        "infer": ["--config", str(config), "--in-2d", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x.csv")],
        "profile": ["--config", str(config)],
        "verify": ["--seed", str(seed)],
    }[command]
    assert main([command, *args]) == EXIT_CONFIG
    assert f"{command}: config error: seed: must be in [0, 2**64) (got {seed})" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


class TestProfile:
    def test_table_and_json(self, tmp_path):
        json_out = str(tmp_path / "report.json")
        result = run_cli("profile", "--H", "20", "--K", "10", "--json", json_out)
        assert result.returncode == 0, result.stderr
        assert "single pass" in result.stdout
        data = json.loads(Path(json_out).read_text())
        assert data["hypotheses"] == 20 and data["iterations"] == 10
        assert data["inference_total"] == data["inference_single_pass"] * 200

    def test_json_into_missing_directory_exits_3_before_the_table(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "r.json"
        assert main(["profile", "--json", str(missing)]) == EXIT_IO
        captured = capsys.readouterr()
        assert f"profile: i/o error: json_out: directory of {missing} does not exist" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("command", ["profile", "infer"])
    @pytest.mark.parametrize("adj", BAD_ADJACENCIES)
    def test_bad_joint_graph_is_config_error(self, tmp_path, capsys, monkeypatch, command, adj):
        def refuse(*args, **kwargs):
            raise AssertionError("a forward pass ran on an invalid joint graph")

        monkeypatch.setattr("htp.cli.denoise_forward", refuse)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({**TINY, "joints": 2, "joint_adjacency": adj}))
        argv = [command, "--config", str(path)]
        if command == "infer":  # the input need not exist: the config is rejected first
            argv += ["--in-2d", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_CONFIG
        assert "config error: joint_adjacency: " in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"blocks": 2, "wat": True}))
        result = run_cli("profile", "--config", str(path))
        assert result.returncode == 2
        assert "wat" in result.stderr


class TestVerify:
    def test_failing_and_raising_checks_exit_4_and_the_suite_runs_on(self, monkeypatch, capsys):
        ran = []

        def passing(rng):
            ran.append("passing")
            return ""

        def raising(rng):
            ran.append("raising")
            raise ZeroDivisionError("no frames to divide by")

        def failing(rng):
            ran.append("failing")
            return "oracle and fast path disagree"

        monkeypatch.setattr(htp.verify, "CHECKS", [("passing", passing), ("raising", raising), ("failing", failing)])
        assert main(["verify"]) == EXIT_VERIFY == 4
        lines = capsys.readouterr().out.splitlines()
        assert ran == ["passing", "raising", "failing"]
        assert [line.split(" (")[0] for line in lines[:3]] == ["PASS  passing", "FAIL  raising", "FAIL  failing"]
        assert lines[1].endswith("s): ZeroDivisionError: no frames to divide by")
        assert lines[2].endswith("s): oracle and fast path disagree")
        assert lines[3].startswith("verify: 1/3 checks passed in ")
