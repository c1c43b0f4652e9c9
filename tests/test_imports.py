"""Every module imports on its own in a fresh interpreter, so no import
order hides a cycle (``verify`` imports ``cli``, which imports ``verify``
only inside the ``verify`` command)."""

import subprocess
import sys
from pathlib import Path

import pytest

import htp

# __main__ is left out: importing it runs the command line
MODULES = sorted(p.stem for p in Path(htp.__file__).parent.glob("*.py") if p.stem != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import htp.{module}"], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_cli_and_a_forward_leave_scipy_spatial_unimported():
    # importing scipy.spatial alone adds about 10 MB of resident memory to every run
    code = (
        "import sys, numpy as np, htp.cli\n"
        "from htp.denoiser import DenoiserConfig, denoise_forward, init_params\n"
        "cfg = DenoiserConfig(joints=2, frames=6, embed_dim=8, keep_frames=3, corr_topk=2, blocks=2,\n"
        "                     sparse_blocks=1, heads=2, mlp_ratio=1.0, knn_k=2)\n"
        "denoise_forward(np.zeros((2, 6, 3)), np.ones((2, 6, 2)), 5, cfg, init_params(cfg, 0))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_importing_cli_starts_no_thread():
    # init_params starts its draw workers per call, never at import
    code = "import threading, htp.cli\nprint(threading.active_count())\n"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"
