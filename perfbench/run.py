"""barystream benchmark: one workload, its output checks and its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; barystream is imported from its `src/`.
Each run starts the workload in its own single-threaded process (BLAS and
OpenMP pinned to one thread), plus SETUP_PROBES processes that only set up,
for the median set-up time. It prints a table of the metrics, a JSON line of
details (environment, per-round figures, missing metrics with their reasons)
and, last, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced repeat of the check rounds. The exit code is 0
only when every operation succeeded and every output check passed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from worker import CHECK_ROUNDS, WORKLOADS  # noqa: E402

SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# End-to-end metrics and their units. The result line (and BENCHMARK.json)
# holds only those defined and never 0 on every workload; the others are
# printed, or missing with the reason. w2_to_truth and duality_gap are also
# output checks against reference.json; failed_frac is failed / attempted.
END_TO_END = {
    "norm_samples_per_s": "1/s",
    "samples_per_s": "1/s",
    "probe_ms": "ms",
    "setup_s": "s",
    "setup_raw_s": "s",
    "peak_rss_mb": "MB",
    "checkpoint_bytes": "bytes",
    "w2_to_truth": "x",
    "duality_gap": "cost",
    "failed_frac": "frac",
}
IN_BENCHMARK_JSON = ("norm_samples_per_s", "setup_s", "peak_rss_mb")
# The host's speed drifts by tens of percent over minutes, more than a bound
# allows. So the timings in the result line are scaled to a machine on which
# worker.speed_probe (fixed work, no barystream code) takes PROBE_REF_S, about
# its median on the baseline host: norm_samples_per_s scales each round's
# samples_per_s by the probe run around that round, setup_s each process's
# set-up time by the probe run right after it. samples_per_s and setup_raw_s
# are the unscaled wall-clock figures.
PROBE_REF_S = 0.034
NOT_APPLICABLE = {
    ("finite-md", "checkpoint_bytes"): "finite_md runs through the API, which writes no checkpoint",
    ("finite-md", "w2_to_truth"): "a random finite family has no known Gaussian barycenter",
    ("kmd-ckpt-resume", "duality_gap"): "n=100 is above the exact-solver cap (64); the CLI computes no gap",
    ("sinkhorn-sgd", "duality_gap"): "n=100 is above the exact-solver cap (64); the CLI computes no gap",
}


def worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, timeout):
    """Run worker.py with args; returns its last stdout line parsed as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def fail(rnd, message):
    """Record a failed output check; an operation of the round failed."""
    if not rnd["errors"]:
        rnd["failed"] += 1
    rnd["errors"].append(message)


def check_reference(workload, seed, rounds, reference):
    """Compare the check rounds' quality values with the reference.

    A seed recorded in reference.json must reproduce its values within the
    relative tolerance. Any other seed must stay within `envelope` times the
    largest recorded value of the same quantity, and not below zero.
    """
    rtol = reference["rtol"]
    recorded = reference["workloads"][workload]
    expected = recorded.get(str(seed))
    for rnd in rounds:
        if not recorded:
            fail(rnd, f"reference.json records no values for {workload}")
        for key, value in rnd["quality"].items():
            if expected is not None:
                ref = expected[rnd["idx"]].get(key)
                if ref is None:
                    fail(rnd, f"no reference for {key}")
                elif not abs(value - ref) <= rtol * abs(ref):
                    fail(rnd, f"{key}={value!r}, reference {ref!r} (rtol {rtol})")
                continue
            ceiling = reference["envelope"] * max(
                r.get(key, math.inf) for seed_rounds in recorded.values()
                for r in seed_rounds)
            if not -1e-9 <= value <= ceiling:
                fail(rnd, f"{key}={value!r} outside [0, {ceiling!r}] "
                          f"(seed {seed} not recorded)")


def end_to_end(workload, result, setups, attempted, failed):
    rounds = result["rounds"]
    checked = rounds[:CHECK_ROUNDS]
    ok = [r for r in rounds if not r["failed"]]  # a failed round did less work
    values = {
        "norm_samples_per_s": statistics.median(
            [r["samples"] / r["op_s"] * r["probe_s"] / PROBE_REF_S for r in ok]
            or [0.0]),
        "samples_per_s": statistics.median(
            [r["samples"] / r["op_s"] for r in ok] or [0.0]),
        "probe_ms": 1e3 * statistics.median(r["probe_s"] for r in rounds),
        "setup_s": statistics.median(
            s["setup_s"] * PROBE_REF_S / s["probe_s"] for s in setups),
        "setup_raw_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": failed / attempted,
    }
    for key in ("w2_to_truth", "duality_gap"):
        if all(key in r["quality"] for r in checked):
            values[key] = statistics.median(r["quality"][key] for r in checked)
    if all(r["checkpoint_bytes"] for r in checked):
        values["checkpoint_bytes"] = statistics.median(
            r["checkpoint_bytes"] for r in checked)
    out = {}
    for name, unit in END_TO_END.items():
        note = NOT_APPLICABLE.get((workload, name))
        if note is None and name not in values:
            note = "not measured: an operation failed before it was produced"
        out[name] = {"value": values.get(name), "unit": unit,
                     "note": None if note is None else f"missing: {note}"}
    return out


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        if m["note"] and m["note"].startswith("missing"):
            shown = m["note"]
        else:
            shown = f"{m['value']!r} {m['unit']}" + (f"  ({m['note']})" if m["note"] else "")
        print(f"  {name:40s} {shown}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "barystream" / "__init__.py").is_file():
        print(f"error: no barystream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", str(workdir)]
    spans_path = workdir / "spans.json"
    try:
        setups = [start_worker(base + ["--setup-only"], 60)
                  for _ in range(SETUP_PROBES)]
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        result = start_worker(base + (["--spans-out", str(spans_path)]
                                      if args.trace else []), remaining)
        dump = json.loads(spans_path.read_text()) if args.trace else None
        setups.append({"setup_s": result["setup_s"],
                       "probe_s": result["setup_probe_s"]})
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = result["rounds"][:CHECK_ROUNDS]
    check_reference(args.workload, args.seed, checked, reference)
    for untraced, traced in zip(checked, result["traced"]):
        if traced["quality"] != untraced["quality"]:
            fail(traced, f"traced outputs differ from untraced ones: "
                         f"{traced['quality']} vs {untraced['quality']}")
    all_rounds = result["warmup"] + result["rounds"] + result["traced"]
    attempted = sum(r["attempted"] for r in all_rounds)
    failed = sum(r["failed"] for r in all_rounds)
    errors = [f"round {r['idx']}: {e}" for r in all_rounds for e in r["errors"]]
    e2e = end_to_end(args.workload, result, setups, attempted, failed)
    for name, m in e2e.items():
        if m["value"] is not None and not math.isfinite(m["value"]):
            errors.append(f"{name} is not finite: {m['value']!r}")
    print_table(f"{args.workload} seed={args.seed} end-to-end "
                f"({len(result['rounds'])} rounds)", e2e)
    layers = None
    if args.trace:
        untraced_op_s = sum(r["op_s"] for r in checked)
        layers = layer_metrics(dump, untraced_op_s)
        print_table(f"{args.workload} per-layer (traced repeat of "
                    f"{len(result['traced'])} rounds)", layers)
    for err in errors:
        print(f"CHECK FAILED: {err}")

    correct = not errors
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "env": result["env"],
        "setup_s_samples": setups,
        "rounds": [{k: r[k] for k in ("idx", "op_s", "samples", "quality",
                                      "checkpoint_bytes", "probe_s")}
                   for r in result["rounds"]],
        "end_to_end": e2e, "per_layer": layers, "errors": errors}))
    if args.trace:
        metrics = {name: {"value": layers[name]["value"], "unit": unit}
                   for name, unit, *_ in LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
                   for name in IN_BENCHMARK_JSON}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
