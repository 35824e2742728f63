"""Experiment runner: config parsing, subcommands, checkpoints, CSV reports.

Subcommands: gen-data, run, eval, certify, resume. A config is
DEFAULT_CONFIG with a JSON file (or a checkpoint's stored config) and then
each --set dotted.key=value merged in by one rule (flags win). SCHEMA holds
each key's default and rule; a key it lacks, or a value its rule refuses, is
a config error naming the key. Every subcommand is deterministic under
(config, seed). Exit codes: 0 ok, 1 config or usage error, 2 numerical
abort, 3 certification failure.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import copy
import dataclasses
import functools
import hashlib
import json
import math
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
    NumericalAbort,
    SolverError,
    certify_dual_bound,
    drive,
    squared_distance_cost,
)
from barystream.finite_md import FiniteProblem, FiniteSaddleState
from barystream.kmd import Kernel, KmdConfig, KmdState, _History
from barystream.measures import (
    BlockDraws,
    DiscreteMeasure,
    GaussianParamLaw,
    Grid1D,
    MeasureError,
    MeasureStream,
    load_corpus,
    normalize,
    sampling_law,
    save_corpus,
)

CHECKPOINT_VERSION = 5
# a checkpoint's top-level keys, each one fact of the run
CHECKPOINT_RECORDS = ("version", "config", "k", "rng", "state")
# a kmd history: the first k rows of <checkpoint>ROWS_SUFFIX, a beta then its sample
ROWS_SUFFIX = ".rows"
# the only keys a resumed run may override: they leave the run's identity alone
RESUME_OVERRIDES = ("output", "eval", "halt_after")


class ConfigError(ValueError):
    pass


def _deep_update(base: dict, extra: dict, prefix: str = "") -> dict:
    """base with extra merged in, object into object. A key base lacks, or a
    non-object for an object, is a config error; _check_config tests the
    leaves' values."""
    if not isinstance(extra, dict):
        raise ConfigError(f"{prefix[:-1] or 'a config'} takes a JSON object, "
                          f"got {extra!r}")
    out = copy.deepcopy(base)
    for key, value in extra.items():
        name = prefix + key
        if key not in out:
            raise ConfigError(f"unknown config key {name!r}")
        out[key] = (_deep_update(out[key], value, name + ".")
                    if isinstance(out[key], dict) else value)
    return out


def _parse_override(text: str) -> dict:
    """--set a.b=v as {"a": {"b": v}}, v read as JSON or else as a string."""
    if "=" not in text:
        raise ConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def _read_json(path: str, what: str):
    """The JSON document in the file at path; a file that is missing or holds
    no JSON is a config error naming what it is."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} {path} is missing") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not JSON: {exc}") from None


def load_config(path: str | None, overrides: list[str]) -> dict:
    """The defaults, then the file, then each --set, merged by _deep_update."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        config = _deep_update(config, _read_json(path, "config file"))
    for item in overrides:
        config = _deep_update(config, _parse_override(item))
    if config["seed"] is None:
        config["seed"] = _env_seed()
    return _check_config(config)


def _env_seed() -> int:
    """$BARY_SEED as an integer, 0 when it is unset."""
    raw = os.environ.get("BARY_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"BARY_SEED must be an integer, got {raw!r}") from None


def _check_config(config: dict) -> dict:
    """Reject a config the run would misread; every command's config passes here."""
    for key, (_, rule) in SCHEMA.items():
        value = _leaf(config, key)
        if not rule.test(value, config):
            raise ConfigError(f"{key} must be {rule.must_be}, got {value!r}")
    return config


def _leaf(config: dict, key: str):
    """The value at a dotted key of a nested config."""
    return functools.reduce(dict.__getitem__, key.split("."), config)


def config_hash(config: dict) -> str:
    """The run's identity: its config but the RESUME_OVERRIDES keys, which a
    resumed run may change without changing the run."""
    identity = {k: v for k, v in config.items() if k not in RESUME_OVERRIDES}
    blob = json.dumps(identity, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


_GRID_KEYS = ("data.grid.lo", "data.grid.hi", "data.grid.n")
_LAW_KEYS = ("data.law.mu0", "data.law.sigma0_sq", "data.law.rate")


def _cost_keys(config: dict) -> tuple[str, ...]:
    """The keys the cost comes from: cost.p, cost.normalize and those of the
    grid, which is data.grid's or, for a corpus, the file's at data.path."""
    grid = _GRID_KEYS if config["data"]["kind"] == "gaussian" else ("data.path",)
    return ("cost.p", "cost.normalize", *grid)


@contextlib.contextmanager
def _derived(config: dict, what: str, *keys: str):
    """A block that builds what from the config keys named, with numpy's
    overflow and invalid-value warnings off, so each built value must be
    checked. A MeasureError, SolverError or ArithmeticError raised in it is
    one config error naming every key with its value, and why."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (MeasureError, SolverError, ArithmeticError) as exc:
        named = [f"{key}={_leaf(config, key)!r}" for key in keys]
        raise ConfigError(f"{', '.join(named[:-1])} and {named[-1]} give no "
                          f"{what}: {exc}") from None


def _scoring(config: dict, what: str):
    """`_derived` for a run's draws and scores: they come from the cost's
    keys and the seed, and from the Gaussian law's where the data are drawn
    from it (a corpus row always has mass on its grid)."""
    law = _LAW_KEYS if config["data"]["kind"] == "gaussian" else ()
    return _derived(config, what, *law, *_cost_keys(config), "seed")


def _build_grid(config: dict) -> Grid1D:
    """The uniform grid of data.grid; Grid1D refuses the inf and NaN points
    of a span that overflows, and a span too narrow for n distinct points."""
    g = config["data"]["grid"]
    with _derived(config, "grid", *_GRID_KEYS):
        return Grid1D.uniform(g["lo"], g["hi"], g["n"])


def _build_cost(config: dict, grid: Grid1D) -> CostMatrix:
    """The cost |x_i - x_j|^p on the grid, scaled to sup-norm 1 where
    cost.normalize; its sup-norm must be finite and > 0, so a cost 0
    everywhere (every power underflows) or infinite somewhere is refused."""
    with _derived(config, "cost", *_cost_keys(config)):
        C = squared_distance_cost(grid, config["cost"]["p"])
        if config["cost"]["normalize"] and 0 < C.inf_norm < math.inf:
            C = C.scaled(1.0 / C.inf_norm)
        if not 0 < C.inf_norm < math.inf:
            raise SolverError(f"its sup-norm {C.inf_norm!r} must be finite and > 0")
    return C


def _finite_family(config: dict) -> tuple[Grid1D, list[DiscreteMeasure], np.ndarray]:
    """The grid, the measures and the index law (`sampling_law` of
    data.weights) of the corpus file at data.path, which has a grid header."""
    data = config["data"]
    with _derived(config, "corpus", "data.kind", "data.path", "data.weights"):
        grid, measures = load_corpus(data["path"])
        if grid is None:
            raise MeasureError(f"corpus {data['path']} carries no grid header")
        return grid, measures, sampling_law(data["weights"], len(measures))


def _build_stream(config: dict) -> tuple[MeasureStream, Grid1D]:
    """The configured stream; a corpus file's rows are drawn i.i.d., with
    replacement, by the law of _finite_family."""
    if config["data"]["kind"] == "gaussian":
        grid = _build_grid(config)
        law = GaussianParamLaw(**config["data"]["law"])
        return MeasureStream.gaussian(law, grid, config["seed"]), grid
    grid, measures, law = _finite_family(config)
    return MeasureStream.finite(measures, law, config["seed"]), grid


def _atomic_write_json(path: str, payload: dict) -> None:
    """Write payload's JSON to path through a temporary file. One json.dumps
    call runs the C encoder, where json.dump streams through the Python one;
    the bytes are the same."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload))
    os.replace(tmp, path)


def _encode_matrix(a: np.ndarray) -> dict:
    """A 2-D array as its shape and the base64 of its little-endian float64 bytes."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f8": base64.b64encode(raw).decode("ascii")}


def _decode_matrix(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["f8"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def _write_rows(path: str, rows: np.ndarray, append: bool) -> None:
    """rows (each a beta, then its sample) as little-endian f8, appended to the
    rows file at path, or as the whole file through a tmp file and os.replace."""
    data = np.ascontiguousarray(rows, dtype="<f8").tobytes()
    if append:
        with open(path, "ab") as fh:
            fh.write(data)
        return
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _read_rows(path: str, count: int, n: int) -> _History:
    """The history of the first count rows of the rows file at path; rows
    past them (appended before a crash kept the JSON from recording them)
    are not read."""
    size = count * 2 * n * 8
    try:
        with open(path, "rb") as fh:
            raw = fh.read(size)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint rows file {path} is missing") from None
    if len(raw) < size:
        raise ConfigError(f"checkpoint rows file {path} holds {len(raw)} bytes, "
                          f"short of the {size} of its {count} rows")
    rows = np.frombuffer(raw, dtype="<f8").reshape(count, 2 * n)
    if not np.isfinite(rows).all():
        raise ConfigError(f"checkpoint rows file {path} holds a non-finite value")
    return _History.from_arrays(rows[:, :n], rows[:, n:])


def _encode_state(state) -> dict:
    """A method state as checkpoint JSON: every field but k, r and the kmd
    history (its first k rows are the rows file), a matrix through
    _encode_matrix, a vector as a number list, a scalar as it is. r, the
    softmax of log_r, is rebuilt from log_r when the state is constructed again."""
    out = {}
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        if f.name in ("k", "r") or isinstance(value, _History):
            continue
        if isinstance(value, np.ndarray):
            out[f.name] = _encode_matrix(value) if value.ndim == 2 else value.tolist()
        else:
            out[f.name] = value
    return out


def _stored(payload: dict, key: str):
    """payload[key]; a checkpoint without it is a config error naming it."""
    if key not in payload:
        raise ConfigError(f"checkpoint lacks {key!r}")
    return payload[key]


def _restore_field(name: str, cold, value):
    """value, a stored state field, as a value of the kind and shape of cold,
    its cold-start value (an integer passes for a float, as in SCHEMA), with
    finite entries; anything else is a config error naming the field."""
    if not isinstance(cold, np.ndarray):
        rule = _number(kind=int) if type(cold) is int else _FINITE
        if not rule.test(value, None):
            raise ConfigError(f"checkpoint state field {name!r} must be "
                              f"{rule.must_be}, got {value!r}")
        return type(cold)(value)
    out = None
    try:  # a matrix through _decode_matrix, a vector as a list of JSON numbers
        if cold.ndim == 2:
            out = _decode_matrix(value)
        elif isinstance(value, list) and all(type(x) in (int, float) for x in value):
            out = np.array(value, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    if out is None or out.shape != cold.shape:
        raise ConfigError(f"checkpoint state field {name!r} must be a float64 "
                          f"array of shape {list(cold.shape)}")
    if not np.isfinite(out).all():
        raise ConfigError(f"checkpoint state field {name!r} holds a non-finite value")
    return out


def _restore_state(cold, payload: dict, rows_path: str):
    """The state a checkpoint holds, restored against cold, the state its
    method's setup builds: every field of cold but k, r (rebuilt from log_r)
    and the kmd history (the first k rows of the rows file at rows_path) must
    be stored, and nothing else; each goes through _restore_field, and one
    the class lists in SETUP_FIELDS must equal cold's, and each entry of one
    it lists in STEP_FIELDS must be a whole number in [0, k]."""
    colds = {f.name: getattr(cold, f.name) for f in dataclasses.fields(cold)
             if f.name not in ("k", "r")}
    k, stored, values = payload["k"], _stored(payload, "state"), {}
    if not isinstance(stored, dict):
        raise ConfigError("checkpoint state must be a JSON object")
    for name, value in stored.items():
        if name not in colds or isinstance(colds[name], _History):
            raise ConfigError(f"checkpoint state field {name!r} is not a field "
                              f"of {type(cold).__name__}")
        values[name] = _restore_field(name, colds[name], value)
        if name in getattr(cold, "SETUP_FIELDS", ()) and values[name] != colds[name]:
            raise ConfigError(f"checkpoint state field {name!r} must be "
                              f"{colds[name]!r}, as its config sets it, got {value!r}")
        if name in getattr(cold, "STEP_FIELDS", ()):
            steps = values[name]
            if not ((steps >= 0) & (steps <= k) & (steps == np.floor(steps))).all():
                raise ConfigError(f"checkpoint state field {name!r} must hold "
                                  f"whole numbers in [0, k={k}]")
    values.update({name: _read_rows(rows_path, k, cold.log_r.size)
                   for name, value in colds.items() if isinstance(value, _History)})
    missing = [name for name in colds if name not in values]
    if missing:
        raise ConfigError(f"checkpoint state lacks {', '.join(map(repr, missing))}")
    return type(cold)(k=k, **values)


@dataclasses.dataclass
class _Run:
    """A method set up to run: its grid, cost and start state, step(state),
    which advances state in place and returns it, and rng, the one generator
    step draws from (finite_md's own, in `BlockDraws`, or its stream's); a
    checkpoint saves and restores rng.bit_generator.state."""

    grid: Grid1D
    C: CostMatrix
    state: object
    step: Callable
    rng: np.random.Generator | BlockDraws


def _finite_md_run(config: dict) -> _Run:
    if config["data"]["kind"] == "gaussian":
        raise ConfigError("finite_md needs a corpus: data.kind='finite'")
    grid, measures, law = _finite_family(config)
    C = _build_cost(config, grid)
    problem = FiniteProblem.from_measures(measures, C, law)
    rng = BlockDraws(np.random.Generator(np.random.PCG64(config["seed"])))
    state = FiniteSaddleState.cold_start(problem, config["N"])
    state.eta *= config["eta_scale"]
    return _Run(grid, C, state, lambda s: finite_md.md_step(s, problem, rng), rng)


def _stream_method(make_step) -> Callable[[dict], _Run]:
    """The setup of a method whose step takes one sample of the configured
    stream: make_step(config, C, stream) gives its cold state and step."""
    def setup(config: dict) -> _Run:
        stream, grid = _build_stream(config)
        C = _build_cost(config, grid)
        return _Run(grid, C, *make_step(config, C, stream), stream.rng)
    return setup


def _kmd_config(config: dict, kernel: Kernel, C: CostMatrix) -> KmdConfig:
    """The run's KmdConfig: the cost's sup-norm must square within the float
    range, and L, stepsize(1), beta_scale and stepsize(1)*beta_scale (the
    scale of every beta) must be finite and > 0."""
    with _derived(config, "kmd stepsize", "eta_scale", "stepsize_mode",
                  "kernel.family", "kernel.r_sq", "N", *_cost_keys(config)):
        if C.inf_norm * C.inf_norm == math.inf:
            raise SolverError(f"the cost's sup-norm {C.inf_norm!r} squares past the "
                              "float range; set cost.normalize=true or narrow the grid")
        c = KmdConfig.for_run(kernel, C, config["N"], mode=config["stepsize_mode"],
                              eta_scale=config["eta_scale"])
        eta_1 = c.stepsize(1)
        if not all(0 < x < math.inf for x in (c.L, eta_1, c.beta_scale,
                                              eta_1 * c.beta_scale)):
            raise SolverError(f"L={c.L!r}, stepsize(1)={eta_1!r} and beta_scale="
                              f"{c.beta_scale!r}; each and stepsize(1)*beta_scale "
                              "must be finite and > 0")
    return c


def _kmd_step(config: dict, C: CostMatrix, stream: MeasureStream):
    if config["method"] == "linear_kmd" and config["kernel"]["family"] != "linear":
        raise ConfigError("method='linear_kmd' runs the linear kernel only, got "
                          f"kernel.family={config['kernel']['family']!r}")
    with _derived(config, "kernel", "kernel.family", "kernel.param", "kernel.r_sq"):
        kernel = Kernel(**config["kernel"])
    state, step = kmd.cold_start(kernel, C.n)
    need = 2 * config["N"] * C.n * 8  # a beta and a sample row of n float64 per step
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if isinstance(state, KmdState) and 3 * need > have:
        raise ConfigError(f"kmd history of {need} bytes (N={config['N']}, n={C.n}) "
                          f"peaks at 3x that while it grows, past the {have} "
                          "bytes of physical memory")
    run_config = _kmd_config(config, kernel, C)
    return state, lambda s: step(s, run_config, stream.sample().weights, C)


def _baseline_step(config: dict, C: CostMatrix, stream: MeasureStream):
    run_config = baselines.BaselineConfig(method=config["method"], **config["baseline"])
    return (baselines.BaselineState.cold_start(C.n),
            lambda s: baselines.baseline_step(s, run_config, stream.sample(), C))


# Each method's setup(config) -> _Run at a cold start. Steps look their
# method's function up on its module at every call, so a function replaced
# there (by a test or a tracer) is the one that runs.
METHODS = {
    "finite_md": _finite_md_run,
    "kmd": _stream_method(_kmd_step),
    "linear_kmd": _stream_method(_kmd_step),
    "sinkhorn_sgd": _stream_method(_baseline_step),
    "lp_sgd": _stream_method(_baseline_step),
}


class Rule(NamedTuple):
    """What a config value must be, in words, and test(value, config) of that."""

    must_be: str
    test: Callable[[object, dict], bool]


def _number(op: str = "", bound: int | str = 0, kind=(int, float)) -> Rule:
    """A finite JSON number, an integer where kind is int (a boolean is
    neither), and op bound where op is > or >=. A bound that is a dotted key
    stands for that key's value, which SCHEMA must check first."""
    def test(v, config) -> bool:
        b = _leaf(config, bound) if isinstance(bound, str) else bound
        return (isinstance(v, kind) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max
                and (not op or (v > b if op == ">" else v >= b)))
    name = "an integer" if kind is int else "a finite number"
    return Rule(f"{name} {op} {bound}" if op else name, test)


def _one_of(*choices: str) -> Rule:
    return Rule(f"one of {', '.join(choices)}", lambda v, _: v in choices)


def _or_null(rule: Rule) -> Rule:
    return Rule(f"null or {rule.must_be}",
                lambda v, config: v is None or rule.test(v, config))


_FINITE = _number()
_STRING = Rule("a string", lambda v, _: isinstance(v, str))
_WEIGHTS = Rule("an array of finite numbers",
                lambda v, _: isinstance(v, list)
                and all(_FINITE.test(x, None) for x in v))

# The config schema: each dotted leaf key's default and the rule its value
# passes in every command (_check_config), in this order, so a rule across
# keys (data.grid.hi's) comes after the keys it reads. DEFAULT_CONFIG nests
# the defaults.
SCHEMA = {
    "method": ("linear_kmd", _one_of(*METHODS)),
    "N": (1000, _number(">=", 1, int)),
    # stop early at this step; resume continues to N
    "halt_after": (None, _or_null(_number(">=", 1, int))),
    "seed": (None, _number(">=", 0, int)),  # null falls back to $BARY_SEED, then 0
    "checkpoint_every": (100, _number(">=", 1, int)),
    "eta_scale": (1.0, _number(">", 0)),
    "stepsize_mode": ("constant", _one_of(*kmd.STEPSIZE_MODES)),
    "kernel.family": ("linear", _one_of(*kmd.KERNEL_FAMILIES)),
    "kernel.param": (0.0, _number(">=", 0)),
    "kernel.r_sq": (None, _or_null(_number(">", 0))),
    "data.kind": ("gaussian", _one_of("gaussian", "finite")),
    "data.law.mu0": (1.0, _number()),
    "data.law.sigma0_sq": (4.0, _number(">", 0)),
    "data.law.rate": (0.5, _number(">", 0)),
    "data.grid.lo": (-10.0, _number()),
    "data.grid.hi": (10.0, _number(">", "data.grid.lo")),
    "data.grid.n": (100, _number(">=", 2, int)),
    "data.count": (1000, _number(">=", 1, int)),
    "data.path": (None, _or_null(_STRING)),
    "data.weights": (None, _or_null(_WEIGHTS)),
    "cost.p": (2.0, _number(">=", 1)),
    "cost.normalize": (False, Rule("a boolean", lambda v, _: isinstance(v, bool))),
    "baseline.gamma": (1e-2, _number(">", 0)),
    "baseline.inner_iters": (200, _number(">=", 1, int)),
    "baseline.inner_tol": (1e-9, _number(">=", 0)),
    "baseline.schedule": ("inverse_sqrt", _one_of(*baselines.SCHEDULES)),
    "baseline.stepsize": (1.0, _number(">", 0)),
    "baseline.stepper": ("mirror", _one_of(*baselines.STEPPERS)),
    "output.report": (None, _or_null(_STRING)),
    "output.checkpoint": (None, _or_null(_STRING)),
    "eval.gap_holdout": (0, _number(">=", 0, int)),
}


def _nest(schema: dict) -> dict:
    """The config of each dotted key's default, as nested objects."""
    out = {}
    for key, (default, _) in schema.items():
        *parents, leaf = key.split(".")
        node = functools.reduce(lambda d, part: d.setdefault(part, {}), parents, out)
        node[leaf] = default
    return out


DEFAULT_CONFIG = _nest(SCHEMA)


def _open_checkpoint(path: str, overrides: list[str]) -> tuple[dict, _Run]:
    """The config and run a checkpoint holds, for resume and eval. Its stored
    config merges into the defaults as a --config file does, runs to its full
    N, and takes --set overrides of RESUME_OVERRIDES keys only; the method is
    set up as at a cold start, then its state and rng are restored against
    that run. A record unknown, missing or not fitting is a config error."""
    payload = _read_json(path, "checkpoint")
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}"
                          f" (this version reads {CHECKPOINT_VERSION})")
    for key in payload:
        if key not in CHECKPOINT_RECORDS:
            raise ConfigError(f"unknown checkpoint record {key!r}")
    config = _deep_update(DEFAULT_CONFIG, _stored(payload, "config"))
    config["halt_after"] = None
    for item in overrides:
        extra = _parse_override(item)
        if next(iter(extra)) not in RESUME_OVERRIDES:
            raise ConfigError(f"{item.split('=')[0]!r} cannot be overridden: only "
                              f"{', '.join(RESUME_OVERRIDES)} keep the run unchanged")
        config = _deep_update(config, extra)
    run = METHODS[_check_config(config)["method"]](config)
    k = _stored(payload, "k")
    if not (_number(">=", 0, int).test(k, config) and k <= config["N"]):
        raise ConfigError(f"checkpoint k must be an integer in [0, N={config['N']}], "
                          f"got {k!r}")
    run.state = _restore_state(run.state, payload, path + ROWS_SUFFIX)
    rng = _stored(payload, "rng")
    try:
        run.rng.bit_generator.state = rng
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"checkpoint rng is not a PCG64 state: {exc}") from None
    return config, run


def _scorer(config: dict, run: _Run) -> Callable:
    """score(state) -> (w2, gap) of state.r_avg: w2 to the truth of Gaussian
    data (which has mass on the grid), gap_surrogate on eval.gap_holdout holdout
    measures, each None where it does not apply; normalize rejects a
    non-finite r_avg at every score."""
    grid, truth = run.grid, None
    if config["data"]["kind"] == "gaussian":
        with _derived(config, "true barycenter on the grid", "data.grid.lo",
                      "data.grid.hi", "data.law.mu0", "data.law.rate"):
            truth = evaluation.true_gaussian_barycenter(
                GaussianParamLaw(**config["data"]["law"]), grid)
    holdout = None
    if config["eval"]["gap_holdout"]:
        holdout_stream, _ = _build_stream(
            _deep_update(config, {"seed": config["seed"] + 10_000_019}))
        holdout = [holdout_stream.sample()
                   for _ in range(config["eval"]["gap_holdout"])]

    def score(state) -> tuple[float | None, float | None]:
        est = normalize(state.r_avg, grid)
        w2 = None if truth is None else evaluation.score(est, truth, grid)
        gap = (None if holdout is None
               else evaluation.gap_surrogate(state.r_avg, holdout, run.C))
        return w2, gap
    return score


def cmd_gen_data(config: dict) -> int:
    data = config["data"]
    path = data["path"]
    if not path:
        raise ConfigError("gen-data needs data.path")
    # the draws of data.law, whatever data.kind names
    stream, grid = _build_stream(_deep_update(config, {"data": {"kind": "gaussian"}}))
    with _derived(config, "corpus", *_LAW_KEYS, *_GRID_KEYS, "data.count", "seed"):
        measures = [stream.sample() for _ in range(data["count"])]
    save_corpus(path, measures, grid)
    print(f"wrote {len(measures)} measures (n={grid.n}) to {path}")
    return 0


def _run_loop(config: dict, run: _Run):
    """Step the run to N (or halt_after), scoring and checkpointing every
    checkpoint_every steps and at the last one; returns the last state."""
    N, k, halt = config["N"], run.state.k, config["halt_after"]
    target = N if halt is None else min(N, halt)
    if target <= k:
        raise ConfigError(f"halt_after={halt} must be above the checkpoint's k={k}"
                          if target == halt else f"the checkpoint's k={k} is "
                          f"already N={N}: resume would take no step")
    every = config["checkpoint_every"]
    report_path = config["output"]["report"]
    checkpoint_path = config["output"]["checkpoint"]
    report = evaluation.ExperimentReport(method=config["method"],
                                         seed=config["seed"],
                                         config_hash=config_hash(config))
    if report_path and k:
        report.read_csv(report_path, k)
    t0 = time.monotonic_ns()
    # kmd history rows this command has put in the rows file: its first
    # checkpoint writes the whole file, each later one appends the new rows
    rows_written = None

    def checkpoint_and_score(state):
        nonlocal rows_written
        if state.k % every and state.k != target:
            return
        report.add(state.k, *score(state), time.monotonic_ns() - t0)
        # the report first, so a checkpoint at k has a report of its rows <= k
        if report_path:
            report.write_csv(report_path)
        if checkpoint_path:
            history = getattr(state, "history", None)
            if history is not None:
                start = rows_written or 0
                _write_rows(checkpoint_path + ROWS_SUFFIX,
                            np.hstack([history.betas[start:],
                                       history.samples[start:]]),
                            append=rows_written is not None)
                rows_written = history.size
            _atomic_write_json(checkpoint_path, {
                "version": CHECKPOINT_VERSION, "config": config, "k": state.k,
                "rng": run.rng.bit_generator.state, "state": _encode_state(state)})

    # the steps' finiteness checks report a blow-up as one numerical abort,
    # without numpy's warnings on the way to it; a draw with no mass on the
    # grid, or a score past the float range, is a config error
    with _scoring(config, "run"):
        score = _scorer(config, run)
        return drive(run.state, run.step, target, checkpoint_and_score)


def cmd_run(config: dict, run: _Run | None = None) -> int:
    """Run the configured method from a cold start, or on from the run a
    checkpoint holds (_open_checkpoint)."""
    state = _run_loop(config, run or METHODS[config["method"]](config))
    if getattr(state, "unstable", 0):
        print(f"warning: {state.unstable} of {state.k} Sinkhorn inner solves "
              "were unstable", file=sys.stderr)
    if getattr(state, "unconverged", 0):
        b = config["baseline"]
        print(f"warning: {state.unconverged} of {state.k} Sinkhorn inner solves "
              f"stopped at inner_iters={b['inner_iters']} above "
              f"inner_tol={b['inner_tol']}", file=sys.stderr)
    if (config["output"]["report"] and config["data"]["kind"] != "gaussian"
            and not config["eval"]["gap_holdout"]):
        print("warning: the report's metric columns are empty: finite data has no "
              "w2_to_truth, and eval.gap_holdout=0 takes no gap_surrogate", file=sys.stderr)
    return 0


def cmd_eval(checkpoint_path: str, overrides: list[str]) -> int:
    """Score a checkpoint's state as its run's report rows do, on the grid and
    cost its method sets up."""
    config, run = _open_checkpoint(checkpoint_path, overrides)
    # a holdout draw with no mass on the grid is a config error naming its keys
    with _scoring(config, "score"):
        w2, gap = _scorer(config, run)(run.state)
    if w2 is None and gap is None:
        raise ConfigError("eval needs gaussian data (w2_to_truth) or "
                          "eval.gap_holdout >= 1 (gap_surrogate)")
    if w2 is not None:
        print(f"w2_to_truth={w2!r}")
    if gap is not None:
        print(f"gap_surrogate={gap!r}")
    return 0


def cmd_certify(n_lo: int, n_hi: int, instances: int, seed: int) -> int:
    if not 2 <= n_lo <= n_hi <= EXACT_SOLVER_CAP or instances < 0 or seed < 0:
        raise ConfigError(f"certify needs 2 <= n-lo <= n-hi <= {EXACT_SOLVER_CAP}, "
                          f"instances >= 0 and seed >= 0, got [{n_lo},{n_hi}], "
                          f"{instances} and {seed}")
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


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error raised as a ConfigError, so it exits 1;
    argparse's own exit 2 is the code of a numerical abort."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built at the first call of `main` and kept
    for the process: it holds no state of a parse."""
    parser = _Parser(prog="barystream")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, source in (("gen-data", "--config"), ("run", "--config"),
                         ("eval", "--checkpoint"), ("resume", "--checkpoint")):
        p = sub.add_parser(name)
        p.add_argument(source, required=source == "--checkpoint")
        p.add_argument("--set", action="append", default=[], dest="overrides")

    p = sub.add_parser("certify")
    p.add_argument("--n-lo", type=int, default=2)
    p.add_argument("--n-hi", type=int, default=6)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "gen-data":
            return cmd_gen_data(load_config(args.config, args.overrides))
        if args.command == "run":
            return cmd_run(load_config(args.config, args.overrides))
        if args.command == "eval":
            return cmd_eval(args.checkpoint, args.overrides)
        if args.command == "resume":
            return cmd_run(*_open_checkpoint(args.checkpoint, args.overrides))
        if args.command == "certify":
            seed = _env_seed() if args.seed is None else args.seed
            return cmd_certify(args.n_lo, args.n_hi, args.instances, seed)
    except (ConfigError, MeasureError, SolverError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
