"""Experiment runner: config parsing, subcommands, checkpoints, CSV reports.

Subcommands: gen-data, run, eval, certify, resume. Configuration is a
single JSON file; individual keys can be overridden on the command line
with --set dotted.key=value (flags win). Every subcommand is deterministic
under (config, seed). Exit codes: 0 ok, 1 config error, 2 numerical abort,
3 certification failure.
"""

from __future__ import annotations

import argparse
import base64
import copy
import dataclasses
import hashlib
import json
import os
import sys
import time
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from barystream import baselines, evaluation, finite_md, kmd
from barystream.dual_core import (
    EXACT_SOLVER_CAP,
    CostMatrix,
    SolverError,
    certify_dual_bound,
    drive,
    squared_distance_cost,
)
from barystream.finite_md import FiniteProblem, FiniteSaddleState, NumericalAbort
from barystream.kmd import Kernel, KmdConfig, KmdState, LinearKmdState, _History
from barystream.measures import (
    DiscreteMeasure,
    GaussianParamLaw,
    Grid1D,
    MeasureError,
    MeasureStream,
    load_corpus,
    normalize,
    save_corpus,
)

CHECKPOINT_VERSION = 2
# the only keys a resumed run may override: they leave the run's identity alone
RESUME_OVERRIDES = ("output", "eval", "halt_after")
# the values an enumerated config key may take; any other is a config error
CHOICES = {
    "stepsize_mode": kmd.STEPSIZE_MODES,
    "clip": kmd.CLIPS,
    "data.kind": ("gaussian", "corpus", "finite"),
    "baseline.schedule": baselines.SCHEDULES,
    "baseline.stepper": baselines.STEPPERS,
}

DEFAULT_CONFIG = {
    "method": "linear_kmd",
    "N": 1000,
    "halt_after": None,       # stop early at this step; resume continues to N
    "seed": None,             # falls back to $BARY_SEED, then 0
    "checkpoint_every": 100,
    "clip": "cost",
    "eta_scale": 1.0,
    "stepsize_mode": "constant",
    "kernel": {"family": "linear", "param": 0.0, "r_sq": None},
    "data": {
        "kind": "gaussian",
        "law": {"mu0": 1.0, "sigma0_sq": 4.0, "rate": 0.5},
        "grid": {"lo": -10.0, "hi": 10.0, "n": 100},
        "count": 1000,
        "path": None,
        "weights": None,
    },
    "cost": {"p": 2.0, "normalize": False},
    "baseline": {
        "gamma": 1e-2,
        "inner_iters": 200,
        "inner_tol": 1e-9,
        "schedule": "inverse_sqrt",
        "stepsize": 1.0,
        "stepper": "mirror",
    },
    "output": {"report": None, "checkpoint": None},
    "eval": {"gap_holdout": 0},
}


class ConfigError(ValueError):
    pass


def _deep_update(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_update(out[key], value)
        else:
            out[key] = value
    return out


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_override(config: dict, keys: list[str], value) -> None:
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def load_config(path: str | None, overrides: list[str],
                base: dict = DEFAULT_CONFIG) -> dict:
    """base (the defaults, or a checkpoint's config), then the file, then flags."""
    config = copy.deepcopy(base)
    if path is not None:
        with open(path) as fh:
            config = _deep_update(config, json.load(fh))
    for item in overrides:
        _apply_override(config, *_parse_override(item))
    if config["seed"] is None:
        config["seed"] = int(os.environ.get("BARY_SEED", "0"))
    return _check_config(config)


def _check_config(config: dict) -> dict:
    """Reject a config the run would misread; every command's config passes here."""
    for key, allowed in [("method", tuple(METHODS)), *CHOICES.items()]:
        node = config
        for part in key.split("."):
            node = node[part]
        if node not in allowed:
            raise ConfigError(f"{key} must be one of {', '.join(allowed)}, "
                              f"got {node!r}")
    for key in ("N", "checkpoint_every", "halt_after"):
        value = config[key]
        if key == "halt_after" and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    return config


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _build_grid(config: dict) -> Grid1D:
    g = config["data"]["grid"]
    return Grid1D.uniform(g["lo"], g["hi"], g["n"])


def _build_cost(config: dict, grid: Grid1D) -> CostMatrix:
    C = squared_distance_cost(grid, config["cost"]["p"])
    if config["cost"]["normalize"]:
        C = C.scaled(1.0 / C.inf_norm)
    return C


def _load_family(data: dict) -> tuple[Grid1D, list[DiscreteMeasure]]:
    """The measures of the corpus file at data.path, which carries a grid header."""
    path = data.get("path")
    if not path or not os.path.exists(path):
        raise ConfigError(f"corpus path missing: {path!r}")
    grid, measures = load_corpus(path)
    if grid is None:
        raise ConfigError(f"corpus {path} carries no grid header")
    return grid, measures


def _build_stream(config: dict) -> tuple[MeasureStream, Grid1D]:
    data = config["data"]
    seed = config["seed"]
    if data["kind"] == "gaussian":
        grid = _build_grid(config)
        law = GaussianParamLaw(**data["law"])
        return MeasureStream.gaussian(law, grid, seed), grid
    grid, measures = _load_family(data)
    if data["kind"] == "corpus":
        return MeasureStream(kind="corpus", seed=seed, grid=grid,
                             measures=measures), grid
    weights = data.get("weights") or [1.0 / len(measures)] * len(measures)
    return MeasureStream.finite(measures, weights, seed), grid


def _build_kernel(config: dict) -> Kernel:
    k = config["kernel"]
    return Kernel(family=k["family"], param=k.get("param") or 0.0,
                  r_sq=k.get("r_sq"))


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _encode_matrix(a: np.ndarray) -> dict:
    """A 2-D array as its shape and the base64 of its little-endian float64 bytes."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f8": base64.b64encode(raw).decode("ascii")}


def _decode_matrix(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["f8"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def _load_checkpoint(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')}"
                          f" (this version reads {CHECKPOINT_VERSION})")
    return payload


def _encode_state(state) -> dict:
    """A method state as checkpoint JSON: every field but k and r, a matrix
    through _encode_matrix, a vector as a number list, the kmd history as its
    betas and samples matrices, a scalar as it is. r, the softmax of log_r, is
    rebuilt from log_r when the state is constructed again."""
    out = {}
    for f in dataclasses.fields(state):
        if f.name in ("k", "r"):
            continue
        value = getattr(state, f.name)
        if isinstance(value, _History):
            out["betas"] = _encode_matrix(value.betas)
            out["samples"] = _encode_matrix(value.samples)
        elif isinstance(value, np.ndarray):
            out[f.name] = _encode_matrix(value) if value.ndim == 2 else value.tolist()
        else:
            out[f.name] = value
    return out


def _restore_state(payload: dict):
    """The state a checkpoint holds: _encode_state reversed. The state class
    rebuilds r from the restored log_r."""
    values = {"k": payload["k"]}
    for name, value in payload["state"].items():
        if isinstance(value, dict):
            value = _decode_matrix(value)
        elif isinstance(value, list):
            value = np.array(value)
        values[name] = value
    if "betas" in values:
        values["history"] = _History.from_arrays(values.pop("betas"),
                                                 values.pop("samples"))
    return METHODS[payload["method"]].state_cls(**values)


@dataclasses.dataclass
class _Run:
    """A method set up to run: its grid, cost and start state, and step(state)
    -> state, which draws from stream or rng (the sources a checkpoint saves)."""

    grid: Grid1D
    C: CostMatrix
    state: object
    step: Callable
    stream: MeasureStream | None = None
    rng: np.random.Generator | None = None


class Method(NamedTuple):
    """A row of the method table: the class of the method's state, which the
    checkpoint codec builds, and setup(config) -> _Run at a cold start."""

    state_cls: type
    setup: Callable[[dict], _Run]


def _finite_md_run(config: dict) -> _Run:
    data = config["data"]
    if data["kind"] == "gaussian":
        raise ConfigError("finite_md needs a finite measure family "
                          "(data.kind corpus or finite)")
    grid, measures = _load_family(data)
    C = _build_cost(config, grid)
    problem = FiniteProblem.from_measures(measures, C, data.get("weights"))
    rng = np.random.Generator(np.random.PCG64(config["seed"]))
    state = FiniteSaddleState.cold_start(problem, config["N"])
    state.eta *= config["eta_scale"]
    return _Run(grid, C, state, lambda s: finite_md.md_step(s, problem, rng),
                rng=rng)


def _stream_method(state_cls, make_step) -> Method:
    """A method whose step takes one sample of the configured stream, built by
    make_step(config, C, stream)."""
    def setup(config: dict) -> _Run:
        stream, grid = _build_stream(config)
        C = _build_cost(config, grid)
        return _Run(grid, C, state_cls.cold_start(C.n),
                    make_step(config, C, stream), stream=stream)
    return Method(state_cls, setup)


def _kmd_config(config: dict, kernel: Kernel, C: CostMatrix) -> KmdConfig:
    return KmdConfig.for_run(kernel, C, config["N"], mode=config["stepsize_mode"],
                             clip=config["clip"], eta_scale=config["eta_scale"])


def _kmd_step(config: dict, C: CostMatrix, stream: MeasureStream) -> Callable:
    need = 2 * config["N"] * C.n * 8  # a beta and a sample row of n float64 per step
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 3 * need > have:
        raise ConfigError(f"kmd history of {need} bytes (N={config['N']}, n={C.n}) "
                          f"peaks at 3x that while it grows, past the {have} "
                          "bytes of physical memory")
    run_config = _kmd_config(config, _build_kernel(config), C)
    return lambda s: kmd.kmd_step(s, run_config, stream.sample().weights, C)


def _linear_kmd_step(config: dict, C: CostMatrix,
                     stream: MeasureStream) -> Callable:
    run_config = _kmd_config(config, Kernel.linear(config["kernel"].get("r_sq")), C)
    return lambda s: kmd.linear_kmd_step(s, run_config, stream.sample().weights, C)


def _baseline_step(config: dict, C: CostMatrix,
                   stream: MeasureStream) -> Callable:
    b = config["baseline"]
    run_config = baselines.BaselineConfig(
        method=config["method"], gamma=b["gamma"], inner_iters=b["inner_iters"],
        inner_tol=b["inner_tol"], schedule=b["schedule"],
        stepsize=b["stepsize"], stepper=b["stepper"])
    return lambda s: baselines.baseline_step(s, run_config, stream.sample(), C)


# Steps look their method's function up on its module at every call, so a
# function replaced there (by a test or a tracer) is the one that runs.
METHODS = {
    "finite_md": Method(FiniteSaddleState, _finite_md_run),
    "kmd": _stream_method(KmdState, _kmd_step),
    "linear_kmd": _stream_method(LinearKmdState, _linear_kmd_step),
    "sinkhorn_sgd": _stream_method(baselines.BaselineState, _baseline_step),
    "lp_sgd": _stream_method(baselines.BaselineState, _baseline_step),
}


def _truth(config: dict, grid: Grid1D) -> DiscreteMeasure | None:
    if config["data"]["kind"] == "gaussian":
        law = GaussianParamLaw(**config["data"]["law"])
        return evaluation.true_gaussian_barycenter(law, grid)
    return None


def cmd_gen_data(config: dict) -> int:
    data = config["data"]
    path = data.get("path")
    if not path:
        raise ConfigError("gen-data needs data.path")
    grid = _build_grid(config)
    stream = MeasureStream.gaussian(GaussianParamLaw(**data["law"]), grid,
                                    config["seed"])
    measures = [stream.sample() for _ in range(int(data["count"]))]
    save_corpus(path, measures, grid)
    print(f"wrote {len(measures)} measures (n={grid.n}) to {path}")
    return 0


def _run_loop(config: dict, run: _Run):
    """Step the run to N (or halt_after), scoring and checkpointing every
    checkpoint_every steps and at the last one; returns the last state."""
    N = config["N"]
    target = N if config["halt_after"] is None else min(N, config["halt_after"])
    every = config["checkpoint_every"]
    report_path = config["output"].get("report")
    checkpoint_path = config["output"].get("checkpoint")
    grid, C = run.grid, run.C
    truth = _truth(config, grid)
    report = evaluation.ExperimentReport(method=config["method"],
                                         seed=config["seed"],
                                         config_hash=config_hash(config))
    t0 = time.monotonic_ns()

    holdout = None
    holdout_size = config["eval"]["gap_holdout"]
    if holdout_size:
        holdout_stream, _ = _build_stream(
            _deep_update(config, {"seed": config["seed"] + 10_000_019}))
        holdout = [holdout_stream.sample() for _ in range(holdout_size)]

    def checkpoint_and_score(state):
        if state.k % every and state.k != target:
            return
        est = normalize(state.r_avg, grid)
        w2 = evaluation.score(est, truth, grid) if truth is not None else None
        gap = None
        if holdout is not None:
            gap = evaluation.gap_surrogate(state.r_avg, holdout, C)
        report.add(state.k, w2, gap, time.monotonic_ns() - t0)
        if checkpoint_path:
            payload = {"version": CHECKPOINT_VERSION, "method": config["method"],
                       "config": config, "k": state.k}
            if run.stream is not None:
                payload["stream"] = run.stream.state_dict()
            if run.rng is not None:
                payload["rng"] = run.rng.bit_generator.state
            payload["state"] = _encode_state(state)
            _atomic_write_json(checkpoint_path, payload)

    state = drive(run.state, run.step, target, checkpoint_and_score)
    if report_path:
        report.write_csv(report_path)
    return state


def cmd_run(config: dict, payload: dict | None = None) -> int:
    """Run the configured method from a cold start, or from a checkpoint."""
    run = METHODS[config["method"]].setup(config)
    if payload is not None:
        run.state = _restore_state(payload)
        if run.stream is not None:
            run.stream.load_state(payload["stream"])
        if run.rng is not None:
            run.rng.bit_generator.state = payload["rng"]
    state = _run_loop(config, run)
    if getattr(state, "unstable", 0):
        print(f"warning: {state.unstable} of {state.k} Sinkhorn inner solves "
              "were unstable", file=sys.stderr)
    return 0


def cmd_resume(checkpoint_path: str, overrides: list[str]) -> int:
    payload = _load_checkpoint(checkpoint_path)
    config = payload["config"]
    config["halt_after"] = None  # a resumed run continues to the full N
    for item in overrides:
        keys, value = _parse_override(item)
        if keys[0] not in RESUME_OVERRIDES:
            raise ConfigError(f"resume cannot override {'.'.join(keys)!r}: only "
                              f"{', '.join(RESUME_OVERRIDES)} keys leave the "
                              "checkpointed run unchanged")
        _apply_override(config, keys, value)
    return cmd_run(_check_config(config), payload)


def cmd_eval(checkpoint_path: str, config_path: str | None,
             overrides: list[str]) -> int:
    payload = _load_checkpoint(checkpoint_path)
    config = load_config(config_path, overrides, base=payload["config"])
    state = _restore_state(payload)
    grid = _build_grid(config)
    truth = _truth(config, grid)
    if truth is None:
        raise ConfigError("eval needs gaussian data to define the truth")
    est = normalize(state.r_avg, grid)
    print(f"w2_to_truth={evaluation.score(est, truth, grid)!r}")
    return 0


def cmd_certify(n_lo: int, n_hi: int, instances: int, seed: int) -> int:
    if not 2 <= n_lo <= n_hi <= EXACT_SOLVER_CAP or instances < 0:
        raise ConfigError(f"certify needs 2 <= n-lo <= n-hi <= {EXACT_SOLVER_CAP} and "
                          f"instances >= 0, got [{n_lo},{n_hi}] and {instances}")
    if instances == 0:
        print("warning: 0 instances requested; vacuous pass")
        return 0
    rng = np.random.Generator(np.random.PCG64(seed))
    failures = 0
    for idx in range(instances):
        n = int(rng.integers(n_lo, n_hi + 1))
        grid = Grid1D.uniform(0.0, 1.0, n)
        C = squared_distance_cost(grid, 2.0)
        r = normalize(np.maximum(rng.random(n), 1e-12), grid)
        c = normalize(np.maximum(rng.random(n), 1e-12), grid)
        ok, _mu = certify_dual_bound(r, c, C)
        if not ok:
            failures += 1
            print(f"FAIL instance {idx}: n={n}")
    print(f"certify: {instances - failures}/{instances} passed "
          f"(n in [{n_lo},{n_hi}])")
    return 0 if failures == 0 else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="barystream")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("gen-data", "run"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--set", action="append", default=[], dest="overrides")

    p = sub.add_parser("eval")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], dest="overrides")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("resume")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--set", action="append", default=[], dest="overrides")

    p = sub.add_parser("certify")
    p.add_argument("--n-lo", type=int, default=2)
    p.add_argument("--n-hi", type=int, default=6)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get("BARY_SEED", "0")))

    args = parser.parse_args(argv)
    try:
        if args.command == "gen-data":
            return cmd_gen_data(load_config(args.config, args.overrides))
        if args.command == "run":
            return cmd_run(load_config(args.config, args.overrides))
        if args.command == "eval":
            return cmd_eval(args.checkpoint, args.config, args.overrides)
        if args.command == "resume":
            return cmd_resume(args.checkpoint, args.overrides)
        if args.command == "certify":
            return cmd_certify(args.n_lo, args.n_hi, args.instances, args.seed)
    except (ConfigError, MeasureError, SolverError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
