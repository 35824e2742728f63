"""One workload process of the benchmark (started by run.py, one per run).

The process imports barystream from the checkout's `src/`, builds the
workload's inputs from the seed, then runs rounds in a closed loop (each
operation starts after the previous one returned) until the time is up,
checking every output. It times speed_probe after set-up and around every
round, so run.py can scale the timings to a reference machine speed. It
prints one JSON object on its last line of output.
With --spans-out it runs one warm-up round first and, after the timed rounds,
repeats the check rounds with span wrappers installed and writes the spans
to that file.

Set-up time is counted from the first statement of this file, so it covers
importing barystream and building the inputs.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CHECK_ROUNDS = 3        # rounds whose outputs are compared with the reference
SIMPLEX_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def import_program():
    sys.path.insert(0, str(SRC))
    import barystream
    import barystream.cli
    if Path(barystream.__file__).resolve().parent != SRC / "barystream":
        raise ImportError(f"barystream imported from {barystream.__file__}, "
                          f"not from {SRC}")
    return barystream


def check_simplex(r, what):
    r = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(r)) and np.all(r >= 0.0)
            and abs(r.sum() - 1.0) <= SIMPLEX_TOL):
        raise CheckFailed(f"{what}: estimate is not on the simplex "
                          f"(min {r.min()!r}, sum {r.sum()!r})")


def check_finite(value, what):
    if value is None or not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {value!r}")


def checkpoint_estimate(path):
    """The averaged estimate stored in a checkpoint written by the CLI."""
    with open(path) as fh:
        payload = json.load(fh)
    state = payload["state"]
    if "r_avg" in state:
        return np.asarray(state["r_avg"], dtype=float)
    num = np.asarray(state["avg_num"], dtype=float)
    return num / state.get("avg_den", payload["k"])


def last_report_row(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed(f"report {path} has no rows")
    return rows[-1]


def speed_probe():
    """Seconds the machine takes now for a fixed mix of the kinds of work the
    workloads do: scipy calls on tiny arrays from a Python loop, JSON float
    encoding, 100 x 100 log-sum-exp, float-list allocation and a small HiGHS
    LP. It runs no barystream code, so a change to the program leaves it
    unchanged; it moves only with the speed of the (shared) machine."""
    from scipy.optimize import linprog
    from scipy.special import logsumexp
    small = np.linspace(0.0, 1.0, 5)
    big = np.linspace(0.0, 1.0, 10_000).reshape(100, 100)
    floats = big.ravel()[:4000].tolist()
    n = 5
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
    b_eq = np.full(2 * n, 1.0 / n)
    cost = np.abs(np.subtract.outer(small, small)).ravel() ** 2
    start = time.perf_counter()
    for _ in range(2):
        for i in range(60):
            logsumexp(small + i)
        json.dumps(floats)
        for _ in range(3):
            logsumexp(big, axis=1)
        big.tolist()
        linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return time.perf_counter() - start


def round_seed(seed, idx):
    """Seed of round idx (idx -1 is the warm-up round), derived from --seed."""
    key = [seed, 0] if idx < 0 else [seed, 1, idx]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


class Round:
    """Bookkeeping of one round: operations attempted and their time."""

    def __init__(self, idx, tracer=None):
        self.idx = idx
        self.tracer = tracer
        self.op_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.quality = {}
        self.checkpoint_bytes = None

    def call(self, fn, *args, **kwargs):
        """Run one timed operation."""
        if self.tracer is not None:
            fn = self.tracer.op(fn)
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.op_s += time.perf_counter() - start

    def as_dict(self, samples):
        return {"idx": self.idx, "op_s": self.op_s, "samples": samples,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "quality": self.quality,
                "checkpoint_bytes": self.checkpoint_bytes}


class FiniteMd:
    """Criterion-06 shape through the API: one random 5-measure family on a
    5-point grid per round, run_finite to each N, exact gap on each result."""

    name = "finite-md"
    NS = (250, 1000, 4000)
    samples = sum(NS)

    def __init__(self, bs, seed, workdir):
        self.bs = bs
        grid = bs.Grid1D.uniform(0.0, 1.0, 5)
        self.C = bs.squared_distance_cost(grid, 2.0)
        self.grid = grid
        self.seed = seed
        self.problems = {}

    def problem(self, idx):
        if idx not in self.problems:
            rng = np.random.default_rng(round_seed(self.seed, idx))
            measures = [self.bs.normalize(rng.random(5) + 0.05, self.grid)
                        for _ in range(5)]
            self.problems[idx] = self.bs.FiniteProblem.from_measures(measures,
                                                                     self.C)
        return self.problems[idx]

    def prepare(self, n_rounds):
        for idx in range(-1, n_rounds):
            self.problem(idx)

    def run(self, rnd):
        bs = self.bs
        problem = self.problem(rnd.idx)
        run_seed = round_seed(self.seed, rnd.idx)
        for N in self.NS:
            rng = np.random.Generator(np.random.PCG64(run_seed))
            if rnd.tracer is not None:
                rng = rnd.tracer.rng(rng)
            r_avg, M_avg, _ = rnd.call(bs.run_finite, problem, N, run_seed,
                                       rng=rng)
            check_simplex(r_avg, f"run_finite N={N}")
            gap = rnd.call(bs.duality_gap_finite, r_avg, M_avg, problem)
            check_finite(gap, f"duality_gap_finite N={N}")
            if gap < -1e-9:
                raise CheckFailed(f"negative duality gap {gap!r} at N={N}")
            rnd.quality[f"gap_N{N}"] = gap
        rnd.quality["duality_gap"] = rnd.quality[f"gap_N{self.NS[-1]}"]


class CliWorkload:
    """A workload that drives the `barystream` CLI through cli.main([...])."""

    common = ()

    def __init__(self, bs, seed, workdir):
        self.cli = sys.modules["barystream.cli"]
        self.seed = seed
        self.workdir = Path(workdir)

    def prepare(self, n_rounds):
        self.argv = {idx: self.args(idx) for idx in range(-1, n_rounds)}

    def args(self, idx):
        out = self.workdir / f"round{idx}"
        sets = list(self.common) + [
            f"seed={round_seed(self.seed, idx)}", f"N={self.samples}",
            f"output.report={out / 'report.csv'}",
            f"output.checkpoint={out / 'state.json'}"]
        return out, [a for s in sets for a in ("--set", s)]

    def command(self, rnd, argv):
        """One CLI command; its stdout is captured and returned."""
        buf = io.StringIO()

        def main():
            with contextlib.redirect_stdout(buf):
                return self.cli.main(argv)

        code = rnd.call(main)
        if code != 0:
            raise CheckFailed(f"barystream {argv[0]} exited with {code}")
        return buf.getvalue()

    def run(self, rnd):
        out, sets = self.argv.get(rnd.idx) or self.args(rnd.idx)
        out.mkdir(parents=True, exist_ok=True)
        try:
            printed = self.run_commands(rnd, out, sets)
            ckpt = out / "state.json"
            row = last_report_row(out / "report.csv")
            if int(row["samples_processed"]) != self.samples:
                raise CheckFailed(f"last report row at k={row['samples_processed']}"
                                  f", expected {self.samples}")
            check_simplex(checkpoint_estimate(ckpt), f"{self.name} checkpoint")
            rnd.quality["w2_to_truth"] = float(row["w2_to_truth"])
            check_finite(rnd.quality["w2_to_truth"], "w2_to_truth")
            self.check_row(rnd, row, printed)
            rnd.checkpoint_bytes = ckpt.stat().st_size
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def run_commands(self, rnd, out, sets):
        return self.command(rnd, ["run"] + sets)

    def check_row(self, rnd, row, printed):
        pass


class KmdCkptResume(CliWorkload):
    """kmd with the criterion-07 RBF kernel: run to N/2 with checkpoints,
    resume to N, then eval the checkpoint."""

    name = "kmd-ckpt-resume"
    samples = 800
    common = ("method=kmd",
              'kernel={"family": "rbf", "param": 0.001, "r_sq": 25.0}',
              "cost.normalize=true", "eta_scale=10000.0", "checkpoint_every=100")

    def run_commands(self, rnd, out, sets):
        ckpt = str(out / "state.json")
        self.command(rnd, ["run"] + sets + ["--set", f"halt_after={self.samples // 2}"])
        self.command(rnd, ["resume", "--checkpoint", ckpt])
        return self.command(rnd, ["eval", "--checkpoint", ckpt])

    def check_row(self, rnd, row, printed):
        if printed.strip() != f"w2_to_truth={row['w2_to_truth']}":
            raise CheckFailed(f"eval printed {printed.strip()!r}, last report "
                              f"row has w2_to_truth={row['w2_to_truth']}")


class LinearKmdGap(CliWorkload):
    """Default method linear_kmd at n=64 with the holdout gap column on."""

    name = "linear-kmd-gap"
    samples = 1000
    common = ("data.grid.n=64", "cost.normalize=true", "eta_scale=200000.0",
              "eval.gap_holdout=16", "checkpoint_every=500")

    def check_row(self, rnd, row, printed):
        if row["gap_surrogate"] == "":
            raise CheckFailed("gap_surrogate column is blank")
        rnd.quality["duality_gap"] = float(row["gap_surrogate"])
        check_finite(rnd.quality["duality_gap"], "gap_surrogate")


class SinkhornSgd(CliWorkload):
    """sinkhorn_sgd at criterion-08's small-gamma setting."""

    name = "sinkhorn-sgd"
    samples = 8
    common = ("method=sinkhorn_sgd", "baseline.gamma=5e-05",
              "baseline.stepsize=20.0", "baseline.inner_iters=200",
              "cost.normalize=true", "checkpoint_every=4")


WORKLOADS = {w.name: w for w in (FiniteMd, KmdCkptResume, LinearKmdGap,
                                 SinkhornSgd)}


def run_round(workload, idx, tracer=None):
    rnd = Round(idx, tracer)
    probe_s = speed_probe()
    try:
        workload.run(rnd)
    except CheckFailed as exc:
        rnd.failed += 1
        rnd.errors.append(str(exc))
    except (Exception, SystemExit) as exc:  # argparse exits on bad arguments
        # anything the program raises fails the operation; the run goes on
        traceback.print_exc()
        rnd.failed += 1
        rnd.errors.append(f"{type(exc).__name__}: {exc}")
    result = rnd.as_dict(workload.samples)
    result["probe_s"] = (probe_s + speed_probe()) / 2
    return result


def environment():
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    bs = import_program()
    workload = WORKLOADS[args.workload](bs, args.seed, args.workdir)
    workload.prepare(CHECK_ROUNDS)
    setup_s = time.perf_counter() - _T0
    speed_probe()  # the first call carries lazy scipy set-up
    setup_probe_s = speed_probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
        return 0

    # the traced repeat is compared with untraced rounds, so those must not
    # carry first-call costs; an untraced run's median absorbs them
    warmup = [run_round(workload, -1)] if args.spans_out else []
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < CHECK_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(workload, len(rounds)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = []
    if args.spans_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        traced = [run_round(workload, idx, tracer) for idx in range(CHECK_ROUNDS)]
        tracer.dump(args.spans_out)

    print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s,
                      "peak_rss_mb": peak_rss_mb,
                      "warmup": warmup, "rounds": rounds, "traced": traced,
                      "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
