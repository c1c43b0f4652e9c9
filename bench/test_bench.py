"""Tests of the benchmark itself, on a tiny geometry.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import htp.config  # noqa: E402
import htp.denoiser  # noqa: E402
import measure as M  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402
from htp.macs import profile_model  # noqa: E402

TINY = W.Workload(
    "tiny",
    {"joints": 5, "frames": 24, "embed_dim": 16, "keep_frames": 8, "corr_topk": 4, "blocks": 3,
     "sparse_blocks": 1, "heads": 2, "mlp_ratio": 2.0, "knn_k": 3, "recompute_mask_per_block": True,
     "hypotheses": 2, "iterations": 2},
    "random_smooth", 1.0, rounds=2, min_forwards_per_round=1, setups_per_forward=1, traced_forwards=2,
)


@pytest.fixture
def tiny(tmp_path):
    bench = M.Bench(TINY, 3, tmp_path, None)
    bench.setup(0)
    return bench


def _forward(bench, case):
    diag = {}
    out = htp.denoiser.denoise_forward(case.noisy, case.keypoints, W.TIMESTEPS, bench.den_cfg, bench.params, diag)
    return out, diag["retained_indices"]


def test_traced_run_reproduces_untraced_outputs_and_reports_every_layer(tmp_path):
    bench = M.Bench(TINY, 3, tmp_path, None)
    metrics, extra = M.measure_traced(bench)
    # measure_traced repeats each infer and forward under tracing; any output
    # that is not bitwise equal to its untraced run is a recorded failure.
    assert bench.ledger.failures == []
    assert bench.ledger.attempted == 2 * (1 + 1 + TINY.traced_forwards)
    declared = {k for k, _ in M.PER_LAYER} - {"failed_ratio"}
    assert declared <= set(metrics)
    assert [k for k in declared if metrics[k] is None] == []
    assert extra["not_observed"] == []
    assert metrics["denoiser.forward.calls"] == 4  # H x K
    assert 0.0 < metrics["attention.mask_density"] < 1.0


def test_bindings_are_restored(tiny):
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in S.BINDINGS}
    tracer = S.Tracer()
    with tracer.installed():
        assert htp.denoiser.linear is not before[("htp.denoiser", "linear")]
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in S.BINDINGS}
    assert after == before


def test_missing_name_is_not_observed_and_does_not_crash(tiny):
    bindings = S.BINDINGS + (("htp.denoiser", "renamed_away", "denoiser.renamed_away"),
                             ("htp.no_such_module", "fn", "gone.fn"))
    tracer = S.Tracer()
    with tracer.installed(bindings):
        _forward(tiny, tiny.cases[0])
    assert "htp.denoiser.renamed_away (missing)" in tracer.not_observed
    assert "htp.no_such_module.fn (missing)" in tracer.not_observed
    assert "config.load_config (no calls)" in tracer.not_observed


def test_unbound_layer_is_left_out_not_read_as_zero(tmp_path, monkeypatch):
    dropped = {"tcep.tcep_refine", "tcep.select_topk_mask"}
    monkeypatch.setattr(S, "BINDINGS", tuple(b for b in S.BINDINGS if b[2] not in dropped))
    metrics, _ = M.measure_traced(M.Bench(TINY, 3, tmp_path, None))
    # The tcep stage has no closing span, so neither it nor the stage that
    # would absorb its time is reported.
    for key in ("tcep.tcep_refine.self_s", "tcep.select_topk_mask.calls", "tcep.select_topk_mask.s",
                "denoiser.stage.tcep.s", "denoiser.stage.timestep_mlp.s"):
        assert metrics[key] is None, key
    assert metrics["denoiser.stage.pose_embed.s"] > 0
    assert metrics["denoiser.stage.blocks_full.s"] > 0


def test_stages_partition_the_forward_pass_in_macs_order(tiny):
    tracer = S.Tracer()
    with tracer.installed():
        _forward(tiny, tiny.cases[1])
    stages = [name for name, _ in profile_model(tiny.den_cfg, 1, 1).stages]
    kids = tracer.children()
    (fwd,) = [i for i, s in enumerate(tracer.spans) if s.name == "denoiser.forward"]
    seconds = tracer.stage_seconds(fwd, stages, kids)
    assert list(seconds) == stages
    assert all(v >= 0 for v in seconds.values())
    assert sum(seconds.values()) <= tracer.spans[fwd].seconds


def test_output_checks_catch_bad_outputs():
    assert W.check_retained(np.array([1, 3, 5]), 8, 3) == []
    assert W.check_retained(np.array([3, 1, 5]), 8, 3)
    assert W.check_retained(np.array([1, 1, 5]), 8, 3)
    assert W.check_retained(np.array([1, 3, 8]), 8, 3)
    assert W.check_retained(np.array([1, 3]), 8, 3)
    assert W.check_retained(None, 8, 3)
    pose = np.ones((2, 4, 3))
    assert W.check_pose(pose, (2, 4, 3)) == []
    assert W.check_pose(pose, (2, 5, 3))
    bad = pose.copy()
    bad[0, 0, 0] = np.nan
    assert W.check_pose(bad, (2, 4, 3))
    assert W.compare_pose(pose * (1 + 1e-12), pose) == []
    assert W.compare_pose(pose * (1 + 1e-6), pose)


def test_failed_operation_is_counted_not_raised(tiny):
    tiny.params = None
    assert tiny.forward(0) is None
    assert tiny.ledger.failures and "no parameters" in tiny.ledger.failures[-1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(M.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(M.PER_LAYER)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_committed_references_fit_their_workload(name):
    wl = W.WORKLOADS[name]
    ref = W.load_reference(wl)
    cfg = htp.config.load_config(None, W.run_config(wl, W.REFERENCE_SEED)).denoiser_config()
    for kind in ("infer", "forward"):
        assert W.check_pose(ref[f"{kind}_pose"], (cfg.joints, cfg.frames, 3)) == []
        assert W.check_retained(ref[f"{kind}_retained"], cfg.frames, cfg.keep_frames) == []
