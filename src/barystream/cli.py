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
import hashlib
import json
import os
import sys
import time

import numpy as np

from barystream import baselines, evaluation, finite_md, kmd
from barystream.dual_core import (
    EXACT_SOLVER_CAP,
    CostMatrix,
    SolverError,
    certify_dual_bound,
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
    discretize_gaussian,
    load_corpus,
    normalize,
    save_corpus,
)

CHECKPOINT_VERSION = 2
# the only keys a resumed run may override: they leave the run's identity alone
RESUME_OVERRIDES = ("output", "eval", "halt_after")
METHODS = ("finite_md", "kmd", "linear_kmd", "sinkhorn_sgd", "lp_sgd")

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
    if config["method"] not in METHODS:
        raise ConfigError(f"unknown method {config['method']!r}")
    if config["N"] < 1:
        raise ConfigError("N must be >= 1")
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


def _build_stream(config: dict) -> tuple[MeasureStream, Grid1D]:
    data = config["data"]
    seed = config["seed"]
    if data["kind"] == "gaussian":
        grid = _build_grid(config)
        law = GaussianParamLaw(**data["law"])
        return MeasureStream.gaussian(law, grid, seed), grid
    if data["kind"] == "corpus":
        if not data.get("path") or not os.path.exists(data["path"]):
            raise ConfigError(f"corpus path missing: {data.get('path')!r}")
        stream = MeasureStream.corpus(data["path"], seed)
        if stream.grid is None:
            raise ConfigError("corpus file carries no grid header")
        return stream, stream.grid
    if data["kind"] == "finite":
        if not data.get("path") or not os.path.exists(data["path"]):
            raise ConfigError(f"finite corpus path missing: {data.get('path')!r}")
        grid, measures = load_corpus(data["path"])
        if grid is None:
            raise ConfigError("finite corpus file carries no grid header")
        weights = data.get("weights") or [1.0 / len(measures)] * len(measures)
        return MeasureStream.finite(measures, weights, seed), grid
    raise ConfigError(f"unknown data kind {data['kind']!r}")


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


def _checkpoint_payload(config: dict, state, stream, rng) -> dict:
    method = config["method"]
    payload = {
        "version": CHECKPOINT_VERSION,
        "method": method,
        "config": config,
        "k": state.k,
    }
    if stream is not None:
        payload["stream"] = stream.state_dict()
    if rng is not None:
        payload["rng"] = rng.bit_generator.state
    if method == "finite_md":
        payload["state"] = {
            "log_r": state.log_r.tolist(), "M": _encode_matrix(state.M),
            "r_avg": state.r_avg.tolist(), "M_avg": _encode_matrix(state.M_avg),
            "eta": state.eta, "alpha": state.alpha, "beta": state.beta,
        }
    elif method == "kmd":
        payload["state"] = {
            "log_r": state.log_r.tolist(),
            "betas": _encode_matrix(state.history.betas),
            "samples": _encode_matrix(state.history.samples),
            "avg_num": state.avg_num.tolist(), "avg_den": state.avg_den,
        }
    elif method == "linear_kmd":
        payload["state"] = {
            "log_r": state.log_r.tolist(), "theta": _encode_matrix(state.theta),
            "avg_num": state.avg_num.tolist(), "avg_den": state.avg_den,
        }
    else:
        payload["state"] = {
            "log_r": state.log_r.tolist(), "r_euclid": state.r_euclid.tolist(),
            "avg_num": state.avg_num.tolist(), "unstable": state.unstable,
        }
    return payload


def _restore_state(payload: dict):
    method = payload["method"]
    s = payload["state"]
    k = payload["k"]
    if method == "finite_md":
        return FiniteSaddleState(
            log_r=np.array(s["log_r"]), M=_decode_matrix(s["M"]),
            r_avg=np.array(s["r_avg"]), M_avg=_decode_matrix(s["M_avg"]),
            k=k, eta=s["eta"], alpha=s["alpha"], beta=s["beta"])
    if method == "kmd":
        hist = _History.from_arrays(_decode_matrix(s["betas"]),
                                    _decode_matrix(s["samples"]))
        return KmdState(log_r=np.array(s["log_r"]), history=hist,
                        avg_num=np.array(s["avg_num"]), avg_den=s["avg_den"], k=k)
    if method == "linear_kmd":
        return LinearKmdState(log_r=np.array(s["log_r"]),
                              theta=_decode_matrix(s["theta"]),
                              avg_num=np.array(s["avg_num"]),
                              avg_den=s["avg_den"], k=k)
    return baselines.BaselineState(log_r=np.array(s["log_r"]),
                                   r_euclid=np.array(s["r_euclid"]),
                                   avg_num=np.array(s["avg_num"]), k=k,
                                   unstable=s["unstable"])


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
    law = GaussianParamLaw(**data["law"])
    rng = np.random.Generator(np.random.PCG64(config["seed"]))
    measures = []
    for _ in range(int(data["count"])):
        mu = rng.normal(law.mu0, np.sqrt(law.sigma0_sq))
        sigma = rng.exponential(1.0 / law.rate)
        while sigma <= 0:
            sigma = rng.exponential(1.0 / law.rate)
        measures.append(discretize_gaussian(mu, sigma, grid))
    save_corpus(path, measures, grid)
    print(f"wrote {len(measures)} measures (n={grid.n}) to {path}")
    return 0


def _run_loop(config: dict, state, stream, rng, problem, grid, report_path,
              checkpoint_path):
    """Shared driver: step the selected method to N with periodic scoring."""
    method = config["method"]
    N = config["N"]
    target = N if not config.get("halt_after") else min(N, config["halt_after"])
    every = config["checkpoint_every"]
    C = _build_cost(config, grid)
    truth = _truth(config, grid)
    report = evaluation.ExperimentReport(method=method, seed=config["seed"],
                                         config_hash=config_hash(config))
    t0 = time.monotonic_ns()

    if method == "kmd":
        run_config = KmdConfig.for_run(_build_kernel(config), C, N,
                                       mode=config["stepsize_mode"],
                                       clip=config["clip"],
                                       eta_scale=config["eta_scale"])
    elif method == "linear_kmd":
        run_config = KmdConfig.for_run(Kernel.linear(config["kernel"].get("r_sq")),
                                       C, N, mode=config["stepsize_mode"],
                                       clip=config["clip"],
                                       eta_scale=config["eta_scale"])
    elif method in ("sinkhorn_sgd", "lp_sgd"):
        b = config["baseline"]
        run_config = baselines.BaselineConfig(
            method=method, gamma=b["gamma"], inner_iters=b["inner_iters"],
            inner_tol=b["inner_tol"], schedule=b["schedule"],
            stepsize=b["stepsize"], stepper=b["stepper"])
    else:
        run_config = None

    holdout = None
    holdout_size = config["eval"]["gap_holdout"]
    if holdout_size and C.n <= EXACT_SOLVER_CAP:
        holdout_stream, _ = _build_stream(
            _deep_update(config, {"seed": config["seed"] + 10_000_019}))
        holdout = [holdout_stream.sample() for _ in range(holdout_size)]

    def checkpoint_and_score():
        est = normalize(state.r_avg, grid)
        w2 = evaluation.score(est, truth, grid) if truth is not None else None
        gap = None
        if holdout is not None:
            gap = evaluation.gap_surrogate(state.r_avg, holdout, C)
        report.add(state.k, w2, gap, time.monotonic_ns() - t0)
        if checkpoint_path:
            _atomic_write_json(checkpoint_path,
                               _checkpoint_payload(config, state, stream, rng))

    while state.k < target:
        if method == "finite_md":
            state = finite_md.md_step(state, problem, rng)
        elif method == "kmd":
            c = stream.sample().weights
            state = kmd.kmd_step(state, run_config, c, C)
        elif method == "linear_kmd":
            c = stream.sample().weights
            state = kmd.linear_kmd_step(state, run_config, c, C)
        else:
            c = stream.sample()
            state = baselines.baseline_step(state, run_config, c, C)
        if state.k % every == 0 or state.k == target:
            checkpoint_and_score()
    if report_path:
        report.write_csv(report_path)
    return state, report


def _prepare_run(config: dict, payload: dict | None = None):
    """Build stream/problem/state for a fresh run or a checkpoint resume."""
    method = config["method"]
    if method == "finite_md":
        data = config["data"]
        if data["kind"] == "gaussian":
            raise ConfigError("finite_md needs a finite measure family "
                              "(data.kind corpus or finite)")
        grid, measures = load_corpus(data["path"])
        if grid is None:
            raise ConfigError("finite_md corpus carries no grid header")
        C = _build_cost(config, grid)
        weights = data.get("weights")
        problem = FiniteProblem.from_measures(measures, C, weights)
        stream = None
        rng = np.random.Generator(np.random.PCG64(config["seed"]))
        state = FiniteSaddleState.cold_start(problem, config["N"])
        if config["eta_scale"] != 1.0:
            state.eta *= config["eta_scale"]
        out_grid = grid
    else:
        stream, grid = _build_stream(config)
        out_grid = grid
        C = _build_cost(config, grid)
        if method == "lp_sgd" and C.n > EXACT_SOLVER_CAP:
            raise ConfigError(f"lp_sgd requires n <= {EXACT_SOLVER_CAP} (got {C.n})")
        problem = None
        rng = None
        if method == "kmd":
            state = KmdState.cold_start(C.n)
        elif method == "linear_kmd":
            state = LinearKmdState.cold_start(C.n)
        else:
            state = baselines.BaselineState.cold_start(C.n)
    if payload is not None:
        state = _restore_state(payload)
        if stream is not None:
            stream.load_state(payload["stream"])
        if rng is not None:
            rng.bit_generator.state = payload["rng"]
    return state, stream, rng, problem, out_grid


def cmd_run(config: dict, payload: dict | None = None) -> int:
    state, stream, rng, problem, grid = _prepare_run(config, payload)
    state, _report = _run_loop(config, state, stream, rng, problem, grid,
                               config["output"].get("report"),
                               config["output"].get("checkpoint"))
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
    return cmd_run(config, payload)


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
