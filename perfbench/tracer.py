"""Span tracing for the benchmark's traced run, installed from outside `src/`.

`Tracer.install()` replaces module attributes of the `barystream` package with
wrappers that record a span (name, start, end, parent) per call and keep a few
counters read from arguments and return values. Spans stay in memory and are
written out once, when the workload process ends. Nothing here is imported by
an untraced run.

A wrap target that no longer exists is recorded in `Tracer.missing` with the
name that was looked for; its metrics are then reported as missing instead of
failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute path, binding scope). Scope "all" replaces every
# binding of the same object in the loaded barystream modules (names imported
# with `from x import y` included); scope "local" replaces only the binding in
# the named module, for third-party functions shared with other modules.
TARGETS = (
    ("cli.main", "barystream.cli", "main", "all"),
    ("finite_md.md_step", "barystream.finite_md", "md_step", "all"),
    ("finite_md.oracle", "barystream.finite_md", "oracle_g", "all"),
    ("finite_md.oracle", "barystream.finite_md", "oracle_h", "all"),
    ("finite_md.softmax", "barystream.finite_md", "logsumexp", "local"),
    ("finite_md.duality_gap", "barystream.finite_md", "duality_gap_finite", "all"),
    ("dual_core.lp", "barystream.dual_core", "linprog", "local"),
    ("dual_core.lambda_star", "barystream.dual_core", "lambda_star", "all"),
    ("evaluation.gap_surrogate", "barystream.evaluation", "gap_surrogate", "all"),
    ("dual_core.sinkhorn", "barystream.dual_core", "sinkhorn", "all"),
    ("baselines.baseline_step", "barystream.baselines", "baseline_step", "all"),
    ("kmd.kmd_step", "barystream.kmd", "kmd_step", "all"),
    ("kmd.f_eval", "barystream.kmd", "f_eval", "all"),
    ("kmd.saddle_update", "barystream.kmd", "_saddle_update", "all"),
    ("kmd.linear_kmd_step", "barystream.kmd", "linear_kmd_step", "all"),
    ("cli.checkpoint_write", "barystream.cli", "_atomic_write_json", "all"),
    ("cli.checkpoint_read", "barystream.cli", "json.load", "local"),
    ("cli.build_stream", "barystream.cli", "_build_stream", "all"),
    ("measures.sample", "barystream.measures", "MeasureStream.sample", "all"),
    ("evaluation.score", "barystream.evaluation", "score", "all"),
    ("dual_core.wasserstein_1d", "barystream.dual_core", "wasserstein_1d", "all"),
)

DRAWS = "finite_md.draws"
OP = "bench.op"
HOLDOUT_BUILD = "cli.holdout_build"

# Per-layer metrics: (metric name, unit, better, span or counter it reads, kind).
# Kinds: calls, self_s, us_per_call / ms_per_call (inclusive time per call),
# share (inclusive time over the time of the traced operations), and counters read by hooks.
# Counter kinds name a key of Tracer.counters; "frac:<num>" divides that
# counter by the span's call count.
LAYER_METRICS = (
    ("finite_md.md_step.calls", "count", "higher", "finite_md.md_step", "calls"),
    ("finite_md.md_step.self_s", "s", "lower", "finite_md.md_step", "self_s"),
    ("finite_md.md_step.us_per_call", "us", "lower", "finite_md.md_step", "us_per_call"),
    ("finite_md.md_step.share", "frac", "lower", "finite_md.md_step", "share"),
    ("finite_md.draws.calls", "count", "higher", DRAWS, "calls"),
    ("finite_md.draws.self_s", "s", "lower", DRAWS, "self_s"),
    ("finite_md.oracle.self_s", "s", "lower", "finite_md.oracle", "self_s"),
    ("finite_md.softmax.self_s", "s", "lower", "finite_md.softmax", "self_s"),
    ("finite_md.duality_gap.calls", "count", "higher", "finite_md.duality_gap", "calls"),
    ("finite_md.duality_gap.self_s", "s", "lower", "finite_md.duality_gap", "self_s"),
    ("finite_md.duality_gap.ms_per_call", "ms", "lower", "finite_md.duality_gap", "ms_per_call"),
    ("dual_core.lp.solves", "count", "lower", "dual_core.lp", "calls"),
    ("dual_core.lp.self_s", "s", "lower", "dual_core.lp", "self_s"),
    ("dual_core.lp.ms_per_solve", "ms", "lower", "dual_core.lp", "ms_per_call"),
    ("dual_core.lp.retries", "count", "lower", "dual_core.lp", "lp_retries"),
    ("dual_core.lp.failed", "count", "lower", "dual_core.lp", "lp_failed"),
    ("dual_core.lambda_star.calls", "count", "lower", "dual_core.lambda_star", "calls"),
    ("dual_core.lambda_star.self_s", "s", "lower", "dual_core.lambda_star", "self_s"),
    ("evaluation.gap_surrogate.calls", "count", "higher", "evaluation.gap_surrogate", "calls"),
    ("evaluation.gap_surrogate.self_s", "s", "lower", "evaluation.gap_surrogate", "self_s"),
    ("evaluation.gap_surrogate.ms_per_call", "ms", "lower", "evaluation.gap_surrogate", "ms_per_call"),
    ("evaluation.gap_surrogate.share", "frac", "lower", "evaluation.gap_surrogate", "share"),
    ("dual_core.sinkhorn.calls", "count", "higher", "dual_core.sinkhorn", "calls"),
    ("dual_core.sinkhorn.self_s", "s", "lower", "dual_core.sinkhorn", "self_s"),
    ("dual_core.sinkhorn.ms_per_call", "ms", "lower", "dual_core.sinkhorn", "ms_per_call"),
    ("dual_core.sinkhorn.share", "frac", "lower", "dual_core.sinkhorn", "share"),
    ("dual_core.sinkhorn.inner_iters", "count", "lower", "dual_core.sinkhorn", "sinkhorn_iters"),
    ("dual_core.sinkhorn.unconverged_frac", "frac", "lower", "dual_core.sinkhorn", "frac:sinkhorn_unconverged"),
    ("dual_core.sinkhorn.unstable", "count", "lower", "dual_core.sinkhorn", "sinkhorn_unstable"),
    ("baselines.baseline_step.calls", "count", "higher", "baselines.baseline_step", "calls"),
    ("baselines.baseline_step.self_s", "s", "lower", "baselines.baseline_step", "self_s"),
    ("kmd.kmd_step.calls", "count", "higher", "kmd.kmd_step", "calls"),
    ("kmd.kmd_step.self_s", "s", "lower", "kmd.kmd_step", "self_s"),
    ("kmd.kmd_step.us_per_call", "us", "lower", "kmd.kmd_step", "us_per_call"),
    ("kmd.f_eval.self_s", "s", "lower", "kmd.f_eval", "self_s"),
    ("kmd.f_eval.us_per_call", "us", "lower", "kmd.f_eval", "us_per_call"),
    ("kmd.saddle_update.self_s", "s", "lower", "kmd.saddle_update", "self_s"),
    ("kmd.history_len", "count", "lower", "kmd.kmd_step", "history_len"),
    ("kmd.history_mb", "MB_computed", "lower", "kmd.kmd_step", "history_mb"),
    ("kmd.linear_kmd_step.calls", "count", "higher", "kmd.linear_kmd_step", "calls"),
    ("kmd.linear_kmd_step.self_s", "s", "lower", "kmd.linear_kmd_step", "self_s"),
    ("kmd.linear_kmd_step.us_per_call", "us", "lower", "kmd.linear_kmd_step", "us_per_call"),
    ("cli.checkpoint_write.calls", "count", "lower", "cli.checkpoint_write", "calls"),
    ("cli.checkpoint_write.self_s", "s", "lower", "cli.checkpoint_write", "self_s"),
    ("cli.checkpoint_write.ms_per_call", "ms", "lower", "cli.checkpoint_write", "ms_per_call"),
    ("cli.checkpoint_write.mb_written", "MB", "lower", "cli.checkpoint_write", "mb_written"),
    ("cli.checkpoint_read.calls", "count", "lower", "cli.checkpoint_read", "calls"),
    ("cli.checkpoint_read.self_s", "s", "lower", "cli.checkpoint_read", "self_s"),
    ("cli.checkpoint_read.mb_read", "MB", "lower", "cli.checkpoint_read", "mb_read"),
    ("cli.checkpoint_io.share", "frac", "lower", "cli.checkpoint_write+cli.checkpoint_read", "share"),
    ("cli.holdout_build.calls", "count", "lower", HOLDOUT_BUILD, "calls"),
    ("cli.holdout_build.self_s", "s", "lower", HOLDOUT_BUILD, "self_s"),
    ("measures.sample.calls", "count", "higher", "measures.sample", "calls"),
    ("measures.sample.self_s", "s", "lower", "measures.sample", "self_s"),
    ("measures.sample.us_per_call", "us", "lower", "measures.sample", "us_per_call"),
    ("evaluation.score.calls", "count", "higher", "evaluation.score", "calls"),
    ("evaluation.score.self_s", "s", "lower", "evaluation.score", "self_s"),
    ("dual_core.wasserstein_1d.calls", "count", "higher", "dual_core.wasserstein_1d", "calls"),
    ("dual_core.wasserstein_1d.self_s", "s", "lower", "dual_core.wasserstein_1d", "self_s"),
    ("trace.overhead_frac", "frac", "lower", OP, "overhead"),
)


class _ModuleProxy:
    """Stand-in for a module seen through one attribute: one name is wrapped,
    every other lookup goes to the real module."""

    def __init__(self, module, name, wrapper):
        self._module = module
        setattr(self, name, wrapper)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _RngProxy:
    """Forwards every Generator method, recording each draw call as a span.

    The draws come from the wrapped Generator itself, so they are identical
    to the draws of an untraced run."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer
        self._wrapped = {}

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.wrap(DRAWS, attr)
        return self._wrapped[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._signatures: dict[str, inspect.Signature] = {}
        self._builds_in_command = 0

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn, hook=None, name_fn=None):
        """Return fn wrapped so that each call records a span.

        hook(result, args, kwargs) runs after a successful call, outside the
        span; name_fn() picks the span name per call when given.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name_fn() if name_fn else name, clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                try:
                    hook(result, args, kwargs)
                except (AttributeError, KeyError, TypeError) as exc:
                    # the program's return values changed shape: report the
                    # counters this hook feeds as missing, keep running
                    self.missing.setdefault(f"{name}:hook",
                                            f"{type(exc).__name__}: {exc}")
            return result

        return wrapper

    def op(self, fn):
        """fn wrapped in the root span of one benchmark operation."""
        return self.wrap(OP, fn)

    def rng(self, rng):
        return _RngProxy(rng, self)

    # -- installation ------------------------------------------------------
    def install(self, targets=TARGETS):
        hooks = {
            "cli.main": (self._main_name, None),
            "dual_core.lp": (None, self._lp_hook),
            "dual_core.sinkhorn": (None, self._sinkhorn_hook),
            "kmd.kmd_step": (None, self._history_hook),
            "cli.checkpoint_write": (None, self._write_hook),
            "cli.checkpoint_read": (None, self._read_hook),
            "cli.build_stream": (self._build_stream_name, None),
        }
        for name, module_name, path, scope in targets:
            name_fn, hook = hooks.get(name, (None, None))
            module = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            owner = module
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if module is None or not callable(original):
                self.missing[name] = f"{module_name}.{path}"
                continue
            try:
                self._signatures[name] = inspect.signature(original)
            except (TypeError, ValueError):
                pass
            wrapper = self.wrap(name, original, hook, name_fn)
            if parents and inspect.ismodule(owner):
                # a module seen through an attribute (cli.json): wrap this view only
                setattr(module, parents[0], _ModuleProxy(owner, attr, wrapper))
            elif scope == "local" or parents:
                setattr(owner, attr, wrapper)
            else:
                package = module_name.split(".")[0]
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != package:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _main_name(self):
        self._builds_in_command = 0
        return "cli.main"

    def _build_stream_name(self):
        # the first stream a command builds is its data stream; any later one
        # is the holdout, rebuilt at every checkpoint
        self._builds_in_command += 1
        return "cli.build_stream" if self._builds_in_command == 1 else HOLDOUT_BUILD

    def _lp_hook(self, res, args, kwargs):
        # exact_ot's presolve retry is the only call that switches presolve off
        if (kwargs.get("options") or {}).get("presolve") is False:
            self.counters["lp_retries"] += 1
        if not res.success:
            self.counters["lp_failed"] += 1

    def _sinkhorn_hook(self, sol, args, kwargs):
        bound = self._signatures["dual_core.sinkhorn"].bind(*args, **kwargs)
        bound.apply_defaults()
        self.counters["sinkhorn_iters"] += sol.n_iter
        self.counters["sinkhorn_unstable"] += bool(sol.unstable)
        self.counters["sinkhorn_unconverged"] += bool(
            sol.marginal_residual > bound.arguments["tol"])

    def _history_hook(self, state, args, kwargs):
        hist = state.history
        self.counters["history_len"] = max(self.counters["history_len"], hist.size)
        mb = (hist.betas.nbytes + hist.samples.nbytes) / 1e6
        self.counters["history_mb"] = max(self.counters["history_mb"], mb)

    def _write_hook(self, result, args, kwargs):
        self.counters["mb_written"] += os.path.getsize(args[0]) / 1e6

    def _read_hook(self, result, args, kwargs):
        self.counters["mb_read"] += os.fstat(args[0].fileno()).st_size / 1e6

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "missing": self.missing}, fh)


# -- analysis ----------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap each other or reach past their parent; the covered
    part is the length of the union of the child intervals clipped to the
    parent. Grandchildren are not subtracted again: they lie inside a child.
    """
    children = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def span_stats(spans) -> dict[str, dict]:
    """calls, self_s and inclusive incl_s per span name.

    incl_s counts a span only when no ancestor has the same name, so nested
    calls of one name are not counted twice.
    """
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for i, self_s in enumerate(self_times(spans)):
        name, start, end, parent = spans[i]
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["incl_s"] += end - start
    return stats


_TARGET_OF = {HOLDOUT_BUILD: "cli.build_stream"}


def layer_metrics(dump: dict, untraced_op_s: float) -> dict[str, dict]:
    """Per-layer metrics from a dumped trace: name -> {value, unit, note}.

    note is None for a measured value; otherwise it says why the value is
    missing (wrap target not found, or no calls on this workload), and the
    value is 0.
    """
    stats = span_stats(dump["spans"])
    counters, missing = dump["counters"], dump["missing"]
    op_s = stats[OP]["incl_s"]
    out = {}
    for metric, unit, _better, source, kind in LAYER_METRICS:
        names = source.split("+")
        calls = sum(stats[n]["calls"] for n in names)
        note = None
        for n in names:
            target = _TARGET_OF.get(n, n)
            if target in missing:
                note = f"missing: wrap target {missing[target]} not found"
            elif f"{target}:hook" in missing and kind not in (
                    "calls", "self_s", "share", "us_per_call", "ms_per_call"):
                note = f"missing: {target} result unreadable ({missing[target + ':hook']})"
        if kind == "overhead":
            value = op_s / untraced_op_s - 1.0
        elif note is not None:
            value = 0
        elif kind == "calls":
            value = calls
        elif kind == "self_s":
            value = sum(stats[n]["self_s"] for n in names)
        elif kind == "share":
            value = sum(stats[n]["incl_s"] for n in names) / op_s
        elif calls == 0:
            value, note = 0, "missing: no calls on this workload"
        elif kind in ("us_per_call", "ms_per_call"):
            scale = 1e6 if kind == "us_per_call" else 1e3
            value = scale * sum(stats[n]["incl_s"] for n in names) / calls
        elif kind.startswith("frac:"):
            value = counters.get(kind[5:], 0.0) / calls
        else:
            value = counters.get(kind, 0.0)
        if note is None and kind in ("calls", "self_s", "share") and calls == 0:
            note = "absent: no calls on this workload"
        out[metric] = {"value": value, "unit": unit, "note": note}
    return out
