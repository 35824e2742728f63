"""Run the benchmark on every workload, once per seed, and summarise.

    python3 perfbench/repeat.py [--workloads finite-md,sinkhorn-sgd]
        [--seeds 0-9] [--seconds 25] [--trace 0] [--out summary.json]

With the defaults it runs all four workloads. It prints each run's metric
table (all seven end-to-end metrics, or missing with the reason; with
--trace 1 the per-layer ones). For every workload and metric of the result
line it then prints the median, the quartiles and the
spread (distance between the quartiles over the median), as
statistics.quantiles(values, n=4) gives them. Runs are sequential so they do
not compete for the cores. --out writes the summary and every run's result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            print("\n".join(line for line in lines if not line.startswith("{")))
            runs.append({"seed": seed, "exit": proc.returncode, **result})
            shown = {k: round(v["value"], 6) for k, v in
                     result.get("metrics", {}).items()} if not args.trace else ""
            print(f"{workload} seed={seed} exit={proc.returncode} "
                  f"correct={result.get('correct')} {shown}", flush=True)
        metrics = {}
        for name in runs[0].get("metrics", {}):
            values = [r["metrics"][name]["value"] for r in runs if "metrics" in r]
            metrics[name] = summarise(values)
            if not args.trace:
                s = metrics[name]
                print(f"  {name}: median {s['median']:.6g} quartiles "
                      f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f}")
        summary[workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
