"""Golden outputs: a seeded in-process `htp infer` compared with committed files.

Run-to-run determinism (criterion 8) cannot see a change in behaviour between
versions; these files can. Each geometry runs generate -> infer with H=2, K=2
and ddim_eta=1 and compares out.csv with ``golden/<name>/out.csv`` (poses to
1e-9 relative to the largest magnitude) and the retained indices with
``golden/<name>/retained.json`` (exactly). ``golden/tiny_params.ckpt`` is a
``--save-params`` checkpoint kept from an earlier version (re-recording leaves
it alone); it must still load and reproduce the golden poses of its geometry.

Re-record (only for an intended change of behaviour, stated in CHANGES.md):
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import zipfile
from pathlib import Path

import numpy as np
import pytest

from htp import io as htp_io
from htp.cli import EXIT_OK, main
from htp.config import load_config
from htp.denoiser import _build_params

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CHECKPOINT = GOLDEN_DIR / "tiny_params.ckpt"
POSE_RTOL = 1e-9

_SAMPLING = {"hypotheses": 2, "iterations": 2, "timesteps": 50, "ddim_eta": 1.0, "seed": 11}

GEOMETRIES = {
    "tiny": {
        "joints": 4, "frames": 12, "embed_dim": 16, "keep_frames": 5, "corr_topk": 4,
        "blocks": 2, "sparse_blocks": 1, "heads": 2, "mlp_ratio": 2.0, "knn_k": 3,
        "recompute_mask_per_block": False, **_SAMPLING,
    },
    "tiny_recompute": {
        "joints": 5, "frames": 16, "embed_dim": 16, "keep_frames": 6, "corr_topk": 3,
        "blocks": 3, "sparse_blocks": 2, "heads": 4, "mlp_ratio": 1.5, "knn_k": 4,
        "recompute_mask_per_block": True, "temporal_graph": "full", **_SAMPLING,
    },
}


def run_infer(name: str, workdir: Path, *extra: str) -> tuple[np.ndarray, list[int]]:
    """generate -> infer for one geometry in ``workdir``; returns (poses, retained)."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(GEOMETRIES[name]))
    gt, obs = workdir / "gt.csv", workdir / "obs.csv"
    out, retained = workdir / "out.csv", workdir / "retained.json"
    assert main(["generate", "--config", str(cfg), "--kind", "walk_cycle",
                 "--out-3d", str(gt), "--out-2d", str(obs)]) == EXIT_OK
    assert main(["infer", "--config", str(cfg), "--in-2d", str(obs), "--out", str(out),
                 "--emit-retained", str(retained), *extra]) == EXIT_OK
    return htp_io.read_pose_csv(out), json.loads(retained.read_text())


def _assert_matches_golden(name: str, pose: np.ndarray, retained: list[int]) -> None:
    ref = htp_io.read_pose_csv(GOLDEN_DIR / name / "out.csv")
    assert pose.shape == ref.shape
    dev = float(np.max(np.abs(pose - ref))) / float(np.max(np.abs(ref)))
    assert dev <= POSE_RTOL, f"{name}: poses deviate from golden by {dev:.3e} (relative)"
    assert retained == json.loads((GOLDEN_DIR / name / "retained.json").read_text())


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_infer_matches_golden(name, tmp_path):
    pose, retained = run_infer(name, tmp_path)
    _assert_matches_golden(name, pose, retained)


def test_recorded_checkpoint_loads_and_reproduces_golden(tmp_path):
    pose, retained = run_infer("tiny", tmp_path, "--params", str(CHECKPOINT))
    _assert_matches_golden("tiny", pose, retained)


def test_table_names_match_recorded_checkpoint():
    names = []
    _build_params(load_config(None, GEOMETRIES["tiny"]), lambda name, shape, init: names.append(name))
    with zipfile.ZipFile(CHECKPOINT) as zf:
        recorded = json.loads(zf.read("manifest.json"))["tensors"]
    assert sorted(names) == sorted(recorded)


def _record(root: Path) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GEOMETRIES:
        keep_old_checkpoint = name != "tiny" or CHECKPOINT.exists()
        extra = () if keep_old_checkpoint else ("--save-params", str(CHECKPOINT))
        work = root / name
        run_infer(name, work, *extra)
        (GOLDEN_DIR / name).mkdir(exist_ok=True)
        for fname in ("out.csv", "retained.json"):
            (GOLDEN_DIR / name / fname).write_bytes((work / fname).read_bytes())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
