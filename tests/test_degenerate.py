"""Property tests: degenerate geometries run through the whole forward pass.

Each case pins one edge of the configuration space (a single frame, two
frames, a single joint, no pruning, the largest clustering neighborhood, one
feature per head) and draws the rest of a small geometry, the weights and the
inputs. Every forward pass must return finite (J, F, 3) poses and sorted,
unique, in-range retained indices of length keep_frames.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htp.core import RngStream
from htp.denoiser import TEMPORAL_GRAPHS, DenoiserConfig, denoise_forward, init_params

CASES = ("F=1", "F=2", "J=1", "keep=F", "knn_k=F-1", "heads=D")


@st.composite
def geometries(draw, case: str) -> DenoiserConfig:
    heads = draw(st.sampled_from((1, 2, 4)))
    blocks = draw(st.integers(0, 3))
    geo = {
        "joints": 1 if case == "J=1" else draw(st.integers(1, 4)),
        "frames": {"F=1": 1, "F=2": 2}.get(case) or draw(st.integers(2, 9)),
        "heads": heads,
        "embed_dim": heads if case == "heads=D" else heads * draw(st.integers(1, 3)),
        "corr_topk": draw(st.integers(1, 10)),
        "blocks": blocks,
        "sparse_blocks": draw(st.integers(0, blocks)),
        "mlp_ratio": draw(st.sampled_from((1.0, 2.0))),
        "pool_threshold": draw(st.sampled_from((0.25, 0.5, 1.0))),
        "temporal_graph": draw(st.sampled_from(TEMPORAL_GRAPHS)),
        "recompute_mask_per_block": draw(st.booleans()),
    }
    frames = geo["frames"]
    geo["keep_frames"] = frames if case == "keep=F" else draw(st.integers(1, frames))
    max_k = max(frames - 1, 1)
    geo["knn_k"] = max_k if case == "knn_k=F-1" else draw(st.integers(1, max_k))
    return DenoiserConfig(**geo)


@pytest.mark.parametrize("case", CASES)
def test_degenerate_geometry_forward(case):
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(cfg=geometries(case), seed=st.integers(0, 2**32 - 1), t=st.integers(0, 1000))
    def check(cfg, seed, t):
        rng = RngStream(seed)
        noisy = rng.normal((cfg.joints, cfg.frames, 3))
        keypoints = rng.normal((cfg.joints, cfg.frames, 2))
        diag = {}
        out = denoise_forward(noisy, keypoints, t, cfg, init_params(cfg, seed), diagnostics=diag)
        assert out.shape == (cfg.joints, cfg.frames, 3)
        assert np.isfinite(out).all()
        idx = np.asarray(diag["retained_indices"])
        assert idx.shape == (cfg.keep_frames,)
        assert np.all(np.diff(idx) > 0)
        assert 0 <= idx[0] and idx[-1] < cfg.frames

    check()
