"""Tests of the benchmark's tracer: self-time arithmetic, aggregation,
missing wrap targets and the metric list in BENCHMARK.json.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from tracer import (  # noqa: E402
    LAYER_METRICS,
    OP,
    Tracer,
    layer_metrics,
    self_times,
    span_stats,
)

# root [0, 10] with children a [1, 4] and b [3, 6], which overlap, and c
# [9, 12], which ends after its parent; a has a grandchild g [2, 3].
TREE = [
    ["root", 0.0, 10.0, -1],
    ["a", 1.0, 4.0, 0],
    ["b", 3.0, 6.0, 0],
    ["g", 2.0, 3.0, 1],
    ["c", 9.0, 12.0, 0],
]


def test_self_time_subtracts_the_union_of_child_intervals():
    # root: 10 minus the union [1, 6] + [9, 10]; the grandchild lies inside a
    assert self_times(TREE) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_times_add_up_to_the_root_duration_for_nested_spans():
    spans = [["r", 0.0, 8.0, -1], ["x", 0.5, 3.5, 0], ["y", 1.0, 2.0, 1],
             ["x", 4.0, 7.0, 0], ["y", 4.5, 5.0, 3], ["y", 5.5, 6.0, 3]]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_span_stats_counts_a_nested_call_of_one_name_once():
    spans = [["f", 0.0, 4.0, -1], ["f", 1.0, 2.0, 0], ["h", 5.0, 6.0, -1]]
    stats = span_stats(spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["self_s"] == pytest.approx(4.0)
    assert stats["f"]["incl_s"] == pytest.approx(4.0)
    assert stats["h"]["incl_s"] == pytest.approx(1.0)


def test_layer_metrics_share_and_overhead():
    spans = [[OP, 0.0, 10.0, -1], ["dual_core.sinkhorn", 1.0, 8.0, 0]]
    dump = {"spans": spans, "missing": {},
            "counters": {"sinkhorn_iters": 200, "sinkhorn_unconverged": 1}}
    out = layer_metrics(dump, untraced_op_s=8.0)
    assert out["dual_core.sinkhorn.share"]["value"] == pytest.approx(0.7)
    assert out["dual_core.sinkhorn.self_s"]["value"] == pytest.approx(7.0)
    assert out["dual_core.sinkhorn.ms_per_call"]["value"] == pytest.approx(7000.0)
    assert out["dual_core.sinkhorn.unconverged_frac"]["value"] == 1.0
    assert out["trace.overhead_frac"]["value"] == pytest.approx(0.25)
    assert out["kmd.kmd_step.us_per_call"]["note"].startswith("missing: no calls")


def test_missing_wrap_target_is_reported_with_its_name():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.io")
    user = types.ModuleType("fakepkg.user")

    def write(x):
        return x + 1

    mod.write = write
    user.write = write          # bound by `from fakepkg.io import write`
    saved = {k: sys.modules.get(k) for k in ("fakepkg", "fakepkg.io", "fakepkg.user")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.io": mod, "fakepkg.user": user})
    try:
        t = Tracer()
        t.install([("io.write", "fakepkg.io", "write", "all"),
                   ("io.read", "fakepkg.io", "read", "all")])
        assert user.write(1) == 2 and mod.write(2) == 3
    finally:
        for key, value in saved.items():
            if value is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = value
    assert [s[0] for s in t.spans] == ["io.write", "io.write"]
    assert t.missing == {"io.read": "fakepkg.io.read"}

    dump = {"spans": [[OP, 0.0, 1.0, -1]], "counters": {},
            "missing": {"cli.checkpoint_write": "barystream.cli._atomic_write_json"}}
    out = layer_metrics(dump, untraced_op_s=1.0)
    note = out["cli.checkpoint_write.ms_per_call"]["note"]
    assert "barystream.cli._atomic_write_json" in note
    assert out["cli.checkpoint_write.ms_per_call"]["value"] == 0


def test_rng_proxy_draws_are_identical_and_traced():
    t = Tracer()
    plain = np.random.Generator(np.random.PCG64(5))
    proxied = t.rng(np.random.Generator(np.random.PCG64(5)))
    p = np.full(4, 0.25)
    for _ in range(20):
        assert plain.choice(4, p=p) == proxied.choice(4, p=p)
        assert plain.integers(7) == proxied.integers(7)
    assert len(t.spans) == 40 and {s[0] for s in t.spans} == {tracer.DRAWS}


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [(name, unit, better) for name, unit, better, *_ in LAYER_METRICS]
