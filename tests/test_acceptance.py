"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a PASS/FAIL line for its criterion. Criterion 1 is split:
the construction suite (symmetry, unit diagonal, minimum support, stable-sort
oracle) and the upper caps on support that the OR-symmetrized construction
has: F*min(2k+1, F) in total per joint, and k+1+in_p for a row that in_p
other rows select. A single row is not capped at 2k+1; a hub frame reaches F.

Every other `htp verify` check runs once as `test_verify_check[<name>]`, so
`-m "not slow"` runs all of them; a check is the one home of its property.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from htp.core import RngStream
from htp.verify import (
    CHECKS,
    check_attention_dense_equivalence,
    check_attention_masked_zero_rowsum,
    check_dense_degenerate_equivalence,
    check_ddim_sigma_arithmetic,
    check_forward_statistics,
    check_macs_acceptance,
    check_mask_construction_suite,
    check_mask_row_support_upper_bound,
    check_mgptp_oracle_500,
    check_sampler_consistency,
)

SEED = 2024


def test_verify_checks_keep_their_names_and_order():
    """Each check draws from RNG child <its position>, so a reordering would re-seed checks."""
    assert [name for name, _ in CHECKS] == [
        "softmax_probability_vector", "linear_matches_naive", "gelu_layer_norm_contracts",
        "rng_determinism_and_moments", "mask_construction_suite", "mask_row_support_upper_bound",
        "masked_similarity_softmax", "tcep_refine_matches_naive", "tcep_permutation_equivariance",
        "selection_monotonicity", "attention_dense_equivalence", "attention_masked_zero_rowsum",
        "attention_frame_permutation", "sparse_route_matches_naive", "ffn_matches_naive", "sparse_macs_hook",
        "mgptp_oracle_500", "mgptp_invariants", "mgptp_examples", "schedule", "forward_and_eps",
        "ddim_sigma_arithmetic", "sampler_consistency", "forward_statistics", "timestep_rule", "jpma", "mpjpe",
        "shape_contract", "dense_degenerate_equivalence", "frame_permutation_sanity", "finite_outputs",
        "denoiser_determinism", "gcn_matches_naive", "timestep_embedding", "checkpoint_roundtrip",
        "macs_examples", "macs_acceptance", "htp1_roundtrip", "pose_csv_roundtrip", "config_rejection",
        "synthetic_and_camera_loop", "similarity_exactly_symmetric", "topk_mask_infinite_and_tied_scores",
        "init_params_worker_split",
    ]


def _run(criterion: str, check, index: int) -> None:
    detail = check(RngStream(SEED).child(index))
    status = "PASS" if detail == "" else "FAIL"
    print(f"{status}  {criterion}" + (f": {detail}" if detail else ""))
    assert detail == "", f"{criterion}: {detail}"


def test_criterion_1_mask_construction_suite():
    """200 random instances: symmetry, unit diagonal, minimum row support,
    and exact agreement with a stable-sort brute-force oracle."""
    _run("criterion-1 mask construction suite", check_mask_construction_suite, 10)


def test_criterion_1_row_support_upper_cap():
    """Upper caps on support over a 200-instance sweep: per joint the total is
    at most F*min(2k+1, F), the cost model's charge, and row p's support is at
    most min(k+1+in_p, F), in_p being the rows whose top-k picks p.

    Pinned: cyclic scores (F=10, k=2) reach the total cap exactly, and a 4-frame
    hub with k=1 has row support 4 > 2k+1, so no per-row cap of 2k+1 holds.
    """
    _run("criterion-1 row-support upper cap", check_mask_row_support_upper_bound, 11)


def test_criterion_2_masked_attention_equivalence():
    """Full mask == dense attention (<1e-12, 50 instances); random masks give
    exactly-zero weights off support and rows summing to 1 +- 1e-12."""
    _run("criterion-2 dense equivalence", check_attention_dense_equivalence, 12)
    _run("criterion-2 masked zero/rowsum", check_attention_masked_zero_rowsum, 13)


def test_criterion_3_mgptp_oracle_equivalence():
    """500 random instances (F<=12, J<=3, D<=4): selected indices match the
    independent straight-loop reimplementation exactly, ties included."""
    _run("criterion-3 pruning oracle 500", check_mgptp_oracle_500, 14)


def test_criterion_4_sampler_consistency():
    """The reverse chain `infer` runs: with the exact-clean oracle stub at eta 0
    it reconstructs the target within 1e-8 relative (K in {1,5,10}, T=1000),
    and two eta-0 runs of the network are bitwise equal; sigma(0.5, 0.75) =
    sqrt(1/6) +- 1e-12."""
    _run("criterion-4 sigma arithmetic", check_ddim_sigma_arithmetic, 15)
    _run("criterion-4 reverse chain", check_sampler_consistency, 16)


def test_criterion_5_forward_statistics():
    """Empirical mean of 1e5 seeded draws within 4*sqrt((1-abar)/1e5) of the
    scaled clean input, for t in {100, 500, 900}."""
    _run("criterion-5 forward statistics", check_forward_statistics, 17)


def test_criterion_6_dense_degenerate_equivalence():
    """Full-budget, no-prune settings equal the dense reference to 1e-10 at
    (J=17, F=27, D=64)."""
    _run("criterion-6 dense degenerate", check_dense_degenerate_equivalence, 18)


def test_criterion_7_macs_reproduction():
    """(a) post-prune score/context ratio exactly (54/243)^2; (b) defaults land
    within +-15% of 278.1G dense and 175.3G pruned; (c) inference totals scale
    exactly by H*K with a 56% +- 5 point reduction."""
    _run("criterion-7 MACs reproduction", check_macs_acceptance, 19)


CRITERION_CHECKS = {
    check_mask_construction_suite, check_mask_row_support_upper_bound, check_attention_dense_equivalence,
    check_attention_masked_zero_rowsum, check_mgptp_oracle_500, check_ddim_sigma_arithmetic,
    check_sampler_consistency, check_forward_statistics, check_dense_degenerate_equivalence, check_macs_acceptance,
}


@pytest.mark.parametrize(
    "index, check",
    [pytest.param(index, check, id=name) for index, (name, check) in enumerate(CHECKS)
     if check not in CRITERION_CHECKS],
)
def test_verify_check(index, check):
    """Every `htp verify` check that no criterion test runs, on the RNG child
    `verify.run_all` gives it, so each verdict is `htp verify`'s."""
    detail = check(RngStream(SEED).child(index))
    assert detail == "", detail


SMOKE_CONFIG = {
    "joints": 17,
    "frames": 243,
    "embed_dim": 64,
    "keep_frames": 54,
    "corr_topk": 162,
    "blocks": 4,
    "sparse_blocks": 2,
    "heads": 2,
    "mlp_ratio": 2.0,
    "knn_k": 5,
    "hypotheses": 20,
    "iterations": 10,
    "timesteps": 1000,
    "seed": 31,
}

EXPECTED_VERIFY_FAILURES = set()


def _cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "htp", *args], capture_output=True, text=True, timeout=timeout
    )


def _smoke_chain(workdir):
    """generate -> infer -> profile -> verify; returns output bytes and verify text."""
    cfg = workdir / "smoke.json"
    cfg.write_text(json.dumps(SMOKE_CONFIG))
    gt, obs = str(workdir / "gt.csv"), str(workdir / "obs.csv")
    out, retained = str(workdir / "out.csv"), str(workdir / "retained.json")
    report = str(workdir / "report.json")

    gen = _cli("generate", "--config", str(cfg), "--kind", "walk_cycle", "--out-3d", gt, "--out-2d", obs)
    assert gen.returncode == 0, gen.stderr
    inf = _cli("infer", "--config", str(cfg), "--in-2d", obs, "--out", out,
               "--emit-retained", retained, "--gt-3d", gt)
    assert inf.returncode == 0, inf.stderr
    prof = _cli("profile", "--config", str(cfg), "--json", report)
    assert prof.returncode == 0, prof.stderr
    ver = _cli("verify")
    failed = {line.split()[1] for line in ver.stdout.splitlines() if line.startswith("FAIL")}
    assert failed == EXPECTED_VERIFY_FAILURES, (
        f"unexpected verify failures {failed - EXPECTED_VERIFY_FAILURES} "
        f"or unexpectedly passing {EXPECTED_VERIFY_FAILURES - failed}:\n{ver.stdout}"
    )
    assert ver.returncode == 0, f"verify exited {ver.returncode}, expected 0 (EXIT_OK):\n{ver.stdout}"

    blobs = tuple(Path(p).read_bytes() for p in (gt, obs, out, retained, report))
    return blobs, ver.stdout, inf.stdout


@pytest.mark.slow
def test_criterion_8_end_to_end_smoke(tmp_path):
    """generate -> infer (H=20, K=10, F=243, J=17, D=64) -> profile -> verify,
    twice, under 10 minutes, with bitwise-identical outputs across runs."""
    started = time.perf_counter()
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    blobs_a, verify_a, infer_a = _smoke_chain(run_a)
    blobs_b, verify_b, infer_b = _smoke_chain(run_b)
    elapsed = time.perf_counter() - started

    names = ("gt.csv", "obs.csv", "out.csv", "retained.json", "report.json")
    for name, a, b in zip(names, blobs_a, blobs_b):
        assert a == b, f"{name} differs between the two seeded runs"

    def strip_timings(text):
        return re.sub(r"\(\d+\.\d+s\)|in \d+\.\d+s", "", text)

    assert strip_timings(verify_a) == strip_timings(verify_b), "verify verdicts differ between runs"

    def mpjpe_line(stdout):
        lines = [line for line in stdout.splitlines() if "MPJPE" in line]
        assert lines, "infer did not report MPJPE"
        return lines[0].rsplit(":", 1)[1]  # value only; the path differs per run

    assert mpjpe_line(infer_a) == mpjpe_line(infer_b)
    assert elapsed < 600, f"smoke chain took {elapsed:.0f}s, budget is 600s"
    print(f"PASS  criterion-8 end-to-end smoke ({elapsed:.0f}s for both runs, bitwise identical)")
