import ast
import importlib
import importlib.util
import os
import re
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


def test_no_source_file_cites_a_benchmark_record():
    # measurements live in the BENCH_*.json records, CHANGES.md and README;
    # the source states what the code guarantees
    src = Path(barystream.__file__).parent
    citing = [path.name for path in sorted(src.rglob("*.py"))
              if re.search(r"BENCH_\w*\.json", path.read_text())]
    assert citing == []


def _writes_a_file(call: ast.Call) -> bool:
    """Whether call is os.replace, or an open whose mode is not a constant
    read-only one."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "replace" and getattr(func.value, "id", None) == "os"
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and set(mode.value) <= set("rbt"))


def test_only_write_file_writes_a_file():
    # measures.write_file owns the temporary file and the rename, so no
    # other writer can leave a file cut short
    src = Path(barystream.__file__).parent
    writes = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owned = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef) and fn.name == "write_file"
                 for node in ast.walk(fn)}
        writes += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and id(node) not in owned
                   and _writes_a_file(node)]
    assert writes == []
