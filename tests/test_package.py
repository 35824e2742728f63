import importlib
import importlib.util
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


def test_every_tracer_target_resolves():
    # the benchmark's tracer reports a target it cannot find as missing,
    # not as a failure, so a renamed function would drop its metrics silently
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module_name, attr_path, _ in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append((name, f"{module_name}.{attr_path}"))
    assert tracer.TARGETS and missing == []
