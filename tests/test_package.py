import os
import subprocess
import sys
from pathlib import Path

import barystream


def test_every_export_resolves():
    assert [name for name in barystream.__all__
            if not hasattr(barystream, name)] == []


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # HiGHS is imported at the first LP solve, which only certify and costs
    # off the grid make
    env = {**os.environ, "PYTHONPATH": str(Path(barystream.__file__).parents[1])}
    code = "import sys, barystream.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
