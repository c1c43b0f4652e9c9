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
