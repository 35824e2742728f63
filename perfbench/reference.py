"""Record the reference outputs that run.py checks each run against.

    python3 perfbench/reference.py --seeds 0-29 [--jobs 2]

For each workload and seed it runs the check rounds once (no timing) and
writes their quality values (w2_to_truth, duality gaps) to reference.json.
Run it on the commit whose outputs are the reference; a change that alters
these values on purpose records them again and says why.
"""

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from repeat import parse_seeds  # noqa: E402
from run import ROOT, WORKLOADS, start_worker  # noqa: E402
from worker import CHECK_ROUNDS  # noqa: E402

RTOL = 1e-6
ENVELOPE = 2.0


def record(workload, seed):
    workdir = ROOT / ".perfbench_work" / f"reference-{workload}-{seed}"
    try:
        result = start_worker(["--workload", workload, "--seed", str(seed),
                               "--seconds", "0", "--workdir", str(workdir)], 600)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = result["rounds"][:CHECK_ROUNDS]
    errors = [e for r in rounds for e in r["errors"]]
    if errors:
        raise RuntimeError(f"{workload} seed {seed}: {errors}")
    return [r["quality"] for r in rounds]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-29", help="first-last, inclusive")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    jobs = [(w, s) for w in WORKLOADS for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(args.jobs) as pool:
        values = list(pool.map(lambda job: record(*job), jobs))
    out = {"rtol": RTOL, "envelope": ENVELOPE, "check_rounds": CHECK_ROUNDS,
           "workloads": {w: {} for w in WORKLOADS}}
    for (workload, seed), quality in zip(jobs, values):
        out["workloads"][workload][str(seed)] = quality
    with open(HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
