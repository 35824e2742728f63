import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from barystream import baselines, cli, kmd
from barystream.cli import (
    ConfigError,
    _decode_matrix,
    _encode_matrix,
    config_hash,
    load_config,
    main,
)
from barystream.dual_core import NumericalAbort
from barystream.kmd import KmdConfig
from barystream.measures import MeasureError, MeasureStream


def _unchecked_kmd_config(config, kernel, C):
    """cli._kmd_config without its stepsize check: eta_scale=1e308, which the
    CLI refuses before the first step, then builds a run whose steps overflow."""
    return KmdConfig.for_run(kernel, C, config["N"], mode=config["stepsize_mode"],
                             eta_scale=config["eta_scale"])


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


def test_default_config_loads():
    config = load_config(None, [])
    assert config["method"] == "linear_kmd"
    assert config["seed"] == 0
    assert config["data"]["grid"]["n"] == 100


def test_config_file_and_overrides(tmp_path):
    path = write_config(tmp_path, method="kmd", N=5,
                        kernel={"family": "rbf", "param": 0.001, "r_sq": 25.0})
    config = load_config(path, ["N=7", "data.grid.n=8", "seed=3"])
    assert config["method"] == "kmd"
    assert config["N"] == 7  # flag wins over the file
    assert config["data"]["grid"]["n"] == 8
    assert config["seed"] == 3
    assert config["kernel"]["param"] == 0.001
    # untouched defaults survive the merge
    assert config["data"]["law"]["mu0"] == 1.0


def test_config_env_seed(monkeypatch):
    monkeypatch.setenv("BARY_SEED", "17")
    assert load_config(None, [])["seed"] == 17
    assert load_config(None, ["seed=4"])["seed"] == 4


@pytest.mark.parametrize("argv", [["run", "--set", "N=2"],
                                  ["certify", "--instances", "1"],
                                  ["gen-data", "--set", "data.count=1"]])
def test_a_non_integer_bary_seed_is_a_config_error(monkeypatch, capsys, argv):
    monkeypatch.setenv("BARY_SEED", "abc")
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "config error: BARY_SEED must be an integer, got 'abc'\n")
    # a seed given outright never reads it
    assert main(["certify", "--instances", "1", "--seed", "3"]) == 0


def test_config_rejections():
    with pytest.raises(ConfigError):
        load_config(None, ["method=adam"])
    with pytest.raises(ConfigError):
        load_config(None, ["N=0"])
    with pytest.raises(ConfigError):
        load_config(None, ["badflag"])


def test_config_hash_stability():
    a = load_config(None, ["seed=1"])
    b = load_config(None, ["seed=1"])
    c = load_config(None, ["seed=2"])
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_gen_data_deterministic(tmp_path):
    args = ["gen-data", "--set", "data.count=3", "--set", "data.grid.n=6",
            "--set", "seed=5"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--set", f"data.path={p1}"]) == 0
    assert main(args + ["--set", f"data.path={p2}"]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_run_writes_report_and_checkpoint(tmp_path):
    report = tmp_path / "report.csv"
    ckpt = tmp_path / "state.json"
    rc = main(["run", "--set", "N=20", "--set", "checkpoint_every=10",
               "--set", "data.grid.n=12", "--set", "seed=1",
               "--set", f"output.report={report}",
               "--set", f"output.checkpoint={ckpt}"])
    assert rc == 0
    lines = report.read_text().strip().split("\n")
    assert len(lines) == 3  # header + checkpoints at 10 and 20
    payload = json.loads(ckpt.read_text())
    assert list(payload) == list(cli.CHECKPOINT_RECORDS)
    assert payload["k"] == 20
    assert payload["config"]["method"] == "linear_kmd"


def test_successive_main_calls_keep_their_own_overrides(monkeypatch):
    # main parses with one parser per process; what one call's --set
    # appends must not reach the next call's config
    configs = []
    monkeypatch.setattr(cli, "cmd_run", lambda config: configs.append(config) or 0)
    assert main(["run", "--set", "N=5", "--set", "data.grid.n=8"]) == 0
    assert main(["run", "--set", "N=7"]) == 0
    assert main(["run"]) == 0
    defaults = load_config(None, [])
    assert [(c["N"], c["data"]["grid"]["n"]) for c in configs] == [
        (5, 8), (7, defaults["data"]["grid"]["n"]),
        (defaults["N"], defaults["data"]["grid"]["n"])]
    assert cli._parser() is cli._parser()


def test_run_rejects_finite_md_on_gaussian():
    assert main(["run", "--set", "method=finite_md", "--set", "N=5"]) == 1


def test_certify_subcommand():
    assert main(["certify", "--instances", "5", "--seed", "3"]) == 0
    assert main(["certify", "--instances", "0"]) == 0


def test_certify_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "certify_dual_bound",
                        lambda r, c, C: (False, np.zeros(C.n)))
    assert main(["certify", "--instances", "2", "--seed", "3"]) == 3
    out = capsys.readouterr().out
    assert "FAIL instance 0" in out and "FAIL instance 1" in out
    assert "certify: 0/2 passed" in out


@pytest.mark.parametrize("args, message", [
    (["method=linear_kmd", "eta_scale=1e308"],
     "numerical abort: non-finite primal iterate in KMD step at k=1"),
    (["method=lp_sgd", "baseline.schedule=constant", "baseline.stepsize=1e308"],
     "numerical abort: non-finite mirror iterate in lp_sgd step at k=1"),
    (["method=lp_sgd", "baseline.schedule=constant", "baseline.stepsize=1e308",
      "baseline.stepper=euclidean"],
     "numerical abort: non-finite euclidean iterate in lp_sgd step at k=1"),
], ids=["linear_kmd", "lp_sgd_mirror", "lp_sgd_euclidean"])
def test_a_non_finite_iterate_exits_2(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.setattr(cli, "_kmd_config", _unchecked_kmd_config)
    report = tmp_path / "report.csv"
    assert main(["run"] + _sets("N=5", "data.grid.n=20", f"output.report={report}",
                                *args)) == 2
    assert message in capsys.readouterr().err
    assert not report.exists()


def test_a_numerical_abort_is_the_only_line_on_stderr(tmp_path):
    # in a fresh interpreter: pytest captures numpy's RuntimeWarnings in
    # process, and both runs overflow on their way to the abort; the CLI
    # runs with the unchecked KMD config there too
    main_unchecked = (
        "import sys\nfrom barystream import cli, kmd\n"
        "cli._kmd_config = lambda config, kernel, C: kmd.KmdConfig.for_run("
        "kernel, C, config['N'], eta_scale=config['eta_scale'])\n"
        "sys.exit(cli.main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    for args, message in [
            (["method=linear_kmd", "eta_scale=1e308"],
             "numerical abort: non-finite primal iterate in KMD step at k=1"),
            (["method=lp_sgd", "baseline.schedule=constant",
              "baseline.stepsize=1e308", "baseline.stepper=euclidean"],
             "numerical abort: non-finite euclidean iterate in lp_sgd step at k=1")]:
        proc = subprocess.run(
            [sys.executable, "-c", main_unchecked, "run",
             *_sets("N=5", "data.grid.n=20", *args)],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == message + "\n"


@pytest.mark.parametrize("args", [["--n-lo", "6", "--n-hi", "3"],
                                  ["--instances", "-3"],
                                  ["--n-hi", "65"],
                                  ["--n-lo", "-2", "--n-hi", "-1"],
                                  ["--seed", "-1"]])
def test_certify_rejects_a_bad_range(args, capsys):
    assert main(["certify", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "passed" not in captured.out


def test_eval_subcommand(tmp_path, capsys):
    ckpt = tmp_path / "state.json"
    main(["run", "--set", "N=10", "--set", "data.grid.n=10",
          "--set", f"output.checkpoint={ckpt}"])
    rc = main(["eval", "--checkpoint", str(ckpt)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "w2_to_truth=" in out
    float(out.strip().split("=")[1])


@pytest.mark.parametrize("method_args", [
    ["--set", "method=linear_kmd"],
    ["--set", "method=kmd",
     "--set", 'kernel={"family": "rbf", "param": 0.001, "r_sq": 25.0}'],
    ["--set", "method=sinkhorn_sgd", "--set", "baseline.inner_iters=30"],
    ["--set", "method=lp_sgd"],
])
def test_resume_matches_uninterrupted(tmp_path, method_args):
    n = 8
    common = ["--set", f"data.grid.n={n}", "--set", "seed=2",
              "--set", "checkpoint_every=10"] + method_args

    full_ckpt = tmp_path / "full.json"
    main(["run", "--set", "N=40", "--set", f"output.checkpoint={full_ckpt}"]
         + common)

    half_ckpt = tmp_path / "half.json"
    main(["run", "--set", "N=40", "--set", "halt_after=20",
          "--set", f"output.checkpoint={half_ckpt}"] + common)
    main(["resume", "--checkpoint", str(half_ckpt),
          "--set", f"output.checkpoint={half_ckpt}"])

    a = json.loads(full_ckpt.read_text())
    b = json.loads(half_ckpt.read_text())
    assert a["k"] == b["k"] == 40
    assert a["state"] == b["state"]  # bit-for-bit via repr-exact JSON floats


def test_resume_finite_corpus_method(tmp_path):
    corpus = tmp_path / "corpus.csv"
    main(["gen-data", "--set", "data.count=4", "--set", "data.grid.n=6",
          "--set", "seed=9", "--set", f"data.path={corpus}"])
    common = ["--set", "method=finite_md", "--set", "data.kind=finite",
              "--set", f"data.path={corpus}", "--set", "seed=2",
              "--set", "checkpoint_every=25"]
    full_ckpt = tmp_path / "full.json"
    main(["run", "--set", "N=100", "--set", f"output.checkpoint={full_ckpt}"]
         + common)
    half_ckpt = tmp_path / "half.json"
    main(["run", "--set", "N=100", "--set", "halt_after=50",
          "--set", f"output.checkpoint={half_ckpt}"] + common)
    main(["resume", "--checkpoint", str(half_ckpt),
          "--set", f"output.checkpoint={half_ckpt}"])
    a = json.loads(full_ckpt.read_text())
    b = json.loads(half_ckpt.read_text())
    assert a["k"] == b["k"] == 100
    assert a["state"] == b["state"]
    assert a["rng"] == b["rng"]


@pytest.mark.parametrize("argv", [["resume", "--checkpoint"], ["eval", "--checkpoint"],
                                  ["run", "--config"]])
def test_a_missing_or_broken_json_file_is_a_config_error(tmp_path, capsys, argv):
    path = tmp_path / "state.json"
    what = "config file" if argv[0] == "run" else "checkpoint"
    assert main(argv + [str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {what} {path} is missing\n"
    path.write_text('{"version": 3,')
    assert main(argv + [str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {what} {path} is not "
                                              "JSON: ")


def test_resume_rejects_version_mismatch(tmp_path):
    ckpt = tmp_path / "state.json"
    main(["run", "--set", "N=10", "--set", "data.grid.n=6",
          "--set", f"output.checkpoint={ckpt}"])
    payload = json.loads(ckpt.read_text())
    payload["version"] = 99
    ckpt.write_text(json.dumps(payload))
    assert main(["resume", "--checkpoint", str(ckpt)]) == 1


def test_gap_holdout_reporting(tmp_path):
    report = tmp_path / "report.csv"
    rc = main(["run", "--set", "N=20", "--set", "checkpoint_every=20",
               "--set", "data.grid.n=8", "--set", "eval.gap_holdout=3",
               "--set", f"output.report={report}"])
    assert rc == 0
    last = report.read_text().strip().split("\n")[-1].split(",")
    assert float(last[2]) >= -1e-9  # gap column populated and non-negative


def test_gap_column_at_the_default_grid_size(tmp_path):
    # n = 100 is past the LP cap: the gap, and lp_sgd's subgradients, come
    # from the staircase duals
    report = tmp_path / "report.csv"
    for method in ("linear_kmd", "lp_sgd"):
        assert main(["run"] + _sets(f"method={method}", "N=30", "checkpoint_every=10",
                                    "eval.gap_holdout=3",
                                    f"output.report={report}")) == 0
        rows = report.read_text().strip().split("\n")[1:]
        assert len(rows) == 3
        for row in rows:
            _, w2, gap = row.split(",")[:3]
            assert float(w2) >= 0.0 and gap != "" and float(gap) >= 0.0


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               np.inf, -np.inf, np.nan, -np.nan]


@st.composite
def state_matrices(draw):
    rows = draw(st.sampled_from([0, 1, 3, 17]))
    cols = draw(st.integers(1, 9))
    values = draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                     st.floats(allow_nan=True,
                                               allow_infinity=True)),
                           min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(state_matrices())
def test_matrix_codec_round_trip_is_bit_exact(a):
    obj = json.loads(json.dumps(_encode_matrix(a)))
    assert obj["shape"] == list(a.shape)
    b = _decode_matrix(obj)
    assert b.shape == a.shape
    assert b.flags.writeable
    assert np.array_equal(b.view(np.uint64), a.view(np.uint64))


def _run_small(tmp_path, *extra, n=8, N=20):
    report = tmp_path / "report.csv"
    ckpt = tmp_path / "state.json"
    rc = main(["run", "--set", f"N={N}", "--set", "checkpoint_every=10",
               "--set", f"data.grid.n={n}", "--set", "seed=1",
               "--set", f"output.report={report}",
               "--set", f"output.checkpoint={ckpt}", *extra])
    assert rc == 0
    return report, ckpt


def test_checkpoint_stores_matrices_as_bytes(tmp_path, capsys):
    # since v4 the kmd history is the first k rows of a raw rows file beside
    # the JSON, each row a beta and then its sample as little-endian float64
    _, ckpt = _run_small(tmp_path, "--set", "method=kmd", "--set",
                         'kernel={"family": "rbf", "param": 0.001, "r_sq": 25.0}')
    payload = json.loads(ckpt.read_text())
    assert payload["version"] == cli.CHECKPOINT_VERSION == 5
    state = payload["state"]
    assert payload["k"] == 20 and set(state) == {"log_r", "avg_num", "avg_den"}
    assert isinstance(state["log_r"], list)
    assert isinstance(state["avg_num"], list)
    rows = np.fromfile(_rows_file(ckpt), dtype="<f8")
    assert rows.size == 20 * 2 * 8
    config, run = cli._open_checkpoint(str(ckpt), [])
    hist = run.state.history
    assert config == payload["config"] and run.state.k == 20 and hist.size == 20
    assert np.array_equal(hist.betas, rows.reshape(20, 16)[:, :8])
    assert np.array_equal(hist.samples, rows.reshape(20, 16)[:, 8:])
    cold = cli.METHODS["kmd"](config).state
    again = cli._restore_state(cold, payload, str(_rows_file(ckpt))).history
    assert np.array_equal(again.betas, hist.betas)
    assert np.array_equal(again.samples, hist.samples)
    # the other methods' matrices stay in the JSON, as base64 bytes
    (tmp_path / "linear").mkdir()
    _, ckpt = _run_small(tmp_path / "linear")
    theta = json.loads(ckpt.read_text())["state"]["theta"]
    assert theta["shape"] == [8, 8] and _decode_matrix(theta).shape == (8, 8)
    assert not _rows_file(ckpt).exists()
    # kmd with the linear kernel runs theta, as linear_kmd does: the same state
    # and rng, and no rows file
    (tmp_path / "kmd_linear").mkdir()
    _, kmd_ckpt = _run_small(tmp_path / "kmd_linear", "--set", "method=kmd")
    a, b = json.loads(ckpt.read_text()), json.loads(kmd_ckpt.read_text())
    assert "theta" in b["state"] and not _rows_file(kmd_ckpt).exists()
    for key in ("state", "rng"):
        assert a[key] == b[key], key
    # as a version-5 kmd checkpoint written while kmd kept the linear kernel's
    # beta history: its state holds no theta
    b["state"].pop("theta")
    kmd_ckpt.write_text(json.dumps(b))
    assert main(["resume", "--checkpoint", str(kmd_ckpt)]) == 1
    assert "checkpoint state lacks 'theta'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resume", "eval"])
def test_version_1_checkpoint_is_rejected(tmp_path, capsys, command):
    # v1 wrote matrices as float lists, v2 the kmd history as base64 matrices
    # inside the JSON, v3 its row count and the stream's generator apart from
    # finite_md's; none is read
    _, ckpt = _run_small(tmp_path)
    for version in (1, 2, 3):
        payload = json.loads(ckpt.read_text())
        payload["version"] = version
        ckpt.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([command, "--checkpoint", str(ckpt)]) == 1
        assert (f"config error: unsupported checkpoint version {version}"
                in capsys.readouterr().err)
    # a JSON document that is not an object holds no version
    ckpt.write_text("[3]")
    assert main([command, "--checkpoint", str(ckpt)]) == 1
    assert "config error: unsupported checkpoint version None" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resume", "eval"])
def test_a_version_4_checkpoint_names_both_versions(tmp_path, capsys, command):
    # v4 stored finite_md's averages as running means, r_avg and M_avg
    _, ckpt = _run_small(tmp_path, *_sets(*_method_args(tmp_path)["finite_md"]),
                         "--set", "halt_after=10")
    payload = json.loads(ckpt.read_text())
    payload["version"] = 4
    ckpt.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err == ("config error: unsupported checkpoint "
                                       "version 4 (this version reads 5)\n")


def test_a_finite_md_run_halted_at_half_resumes_to_the_straight_runs_bytes(tmp_path):
    common = ["run"] + _sets("N=40", "data.grid.n=8", "seed=6", "checkpoint_every=7",
                             *_method_args(tmp_path)["finite_md"])
    full, half = tmp_path / "full.json", tmp_path / "half.json"
    assert main(common + _sets(f"output.checkpoint={full}")) == 0
    assert main(common + _sets("halt_after=20", f"output.checkpoint={half}")) == 0
    assert json.loads(half.read_text())["k"] == 20
    assert main(["resume", "--checkpoint", str(half)]) == 0
    a, b = json.loads(full.read_text()), json.loads(half.read_text())
    assert a["k"] == b["k"] == 40
    assert a["state"] == b["state"] and a["rng"] == b["rng"]


def test_a_restored_log_r_is_shifted_to_max_0_and_steps_as_set_log_r(tmp_path,
                                                                      monkeypatch):
    # a hand-edited log_r of max 1 resumes from its shifted copy; each next
    # step's one-entry write gives the bytes of set_log_r on a copy of log_r
    _, ckpt = _run_small(tmp_path, *_sets(*_method_args(tmp_path)["finite_md"]),
                         "--set", "halt_after=10")
    payload = json.loads(ckpt.read_text())
    stored = np.array(payload["state"]["log_r"]) + 1.0
    payload["state"]["log_r"] = stored.tolist()
    ckpt.write_text(json.dumps(payload))
    _, run = cli._open_checkpoint(str(ckpt), [])
    state = run.state
    assert state.log_r.max() == 0 and not np.signbit(state.log_r.max())
    assert state.log_r.tobytes() == (stored - stored.max()).tobytes()

    writes, paths = [], set()
    one_entry = type(state).set_log_r_entry

    def recorded(self, s, value, what):
        writes.append((self.log_r.copy(), s, value))
        paths.add(bool(self.log_r[s] < 0 and value <= 0))
        one_entry(self, s, value, what)

    monkeypatch.setattr(type(state), "set_log_r_entry", recorded)
    for _ in range(40):
        run.step(state)
        log_r, s, value = writes[-1]
        reference = dataclasses.replace(state, log_r=log_r.copy(), r=None)
        log_r[s] = value
        reference.set_log_r(log_r, "iterate")
        assert state.log_r.tobytes() == reference.log_r.tobytes()
        assert state.r.tobytes() == reference.r.tobytes()
    assert paths == {True, False}


def _rows_file(ckpt):
    return Path(str(ckpt) + cli.ROWS_SUFFIX)


def _kmd_halves(tmp_path, N=30, halt=10):
    """A kmd run to N (full.json) and the same run halted at halt (half.json)."""
    common = _sets(f"N={N}", "data.grid.n=8", "seed=5", "checkpoint_every=10",
                   *_method_args(tmp_path)["kmd"])
    full, half = tmp_path / "full.json", tmp_path / "half.json"
    assert main(["run"] + common + _sets(f"output.checkpoint={full}")) == 0
    assert main(["run"] + common + _sets(f"halt_after={halt}",
                                         f"output.checkpoint={half}")) == 0
    return full, half


def test_kmd_rows_file_bytes_are_linear_in_n(tmp_path, monkeypatch):
    # every history row is written once: 20 checkpoints of 10 new rows each
    written = []
    write_rows = cli._write_rows

    def counting(path, rows, append):
        written.append((rows.nbytes, append))
        return write_rows(path, rows, append)

    monkeypatch.setattr(cli, "_write_rows", counting)
    N, n = 200, 8
    _, ckpt = _run_small(tmp_path, *_sets(*_method_args(tmp_path)["kmd"]), N=N)
    assert sum(nbytes for nbytes, _ in written) == N * 2 * n * 8
    assert written == [(10 * 2 * n * 8, False)] + [(10 * 2 * n * 8, True)] * 19
    assert _rows_file(ckpt).stat().st_size == N * 2 * n * 8


def test_rows_past_the_checkpoint_count_are_ignored(tmp_path):
    # a crash between the row append and the JSON rename leaves rows past the
    # JSON's k; resume reads only the first k, and its first checkpoint writes
    # the rows file afresh
    full, half = _kmd_halves(tmp_path)
    with open(_rows_file(half), "ab") as fh:
        fh.write(np.full((3, 16), np.nan).tobytes())
    assert main(["resume", "--checkpoint", str(half)]) == 0
    a, b = json.loads(full.read_text()), json.loads(half.read_text())
    assert a["k"] == b["k"] == 30
    for key in ("state", "rng"):
        assert a[key] == b[key], key
    assert _rows_file(full).read_bytes() == _rows_file(half).read_bytes()


@pytest.mark.parametrize("command", ["resume", "eval"])
@pytest.mark.parametrize("cut", ["missing", "short", "non_finite"])
def test_a_missing_or_short_rows_file_is_a_config_error(tmp_path, capsys, command,
                                                        cut):
    _, half = _kmd_halves(tmp_path)
    rows = _rows_file(half)
    if cut == "missing":
        rows.unlink()
    elif cut == "short":
        rows.write_bytes(rows.read_bytes()[:-8])
    else:
        rows.write_bytes(rows.read_bytes()[:-8] + np.array(np.nan).tobytes())
    capsys.readouterr()
    assert main([command, "--checkpoint", str(half)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(rows) in err
    assert json.loads(half.read_text())["k"] == 10


def test_eval_uses_the_checkpoint_config(tmp_path, capsys):
    report, ckpt = _run_small(tmp_path, n=20)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 0
    last = report.read_text().strip().split("\n")[-1].split(",")
    assert capsys.readouterr().out.strip() == f"w2_to_truth={last[1]}"
    # a key outside RESUME_OVERRIDES would score another run's grid or method
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--set", "data.grid.n=12"]) == 1


def test_eval_prints_the_last_report_row_with_its_gap(tmp_path, capsys):
    report, ckpt = _run_small(tmp_path, "--set", "eval.gap_holdout=3", n=20)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 0
    _, w2, gap = report.read_text().strip().split("\n")[-1].split(",")[:3]
    assert capsys.readouterr().out == f"w2_to_truth={w2}\ngap_surrogate={gap}\n"


def test_eval_of_a_finite_md_checkpoint_prints_only_the_gap(tmp_path, capsys):
    finite = _sets(*_method_args(tmp_path)["finite_md"])
    _, ckpt = _run_small(tmp_path, *finite)
    (tmp_path / "gap").mkdir()
    report, _ = _run_small(tmp_path / "gap", *finite, "--set", "eval.gap_holdout=3")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    assert "eval.gap_holdout" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--set", "eval.gap_holdout=3"]) == 0
    _, w2, gap = report.read_text().strip().split("\n")[-1].split(",")[:3]
    assert w2 == "" and capsys.readouterr().out == f"gap_surrogate={gap}\n"


@pytest.mark.parametrize("command", ["resume", "eval"])
def test_a_corpus_checkpoint_is_a_config_error(tmp_path, capsys, command):
    _, ckpt = _run_small(tmp_path, *_sets(*_method_args(tmp_path)["finite_md"]),
                         "--set", "halt_after=10")
    payload = json.loads(ckpt.read_text())
    payload["config"]["data"]["kind"] = "corpus"
    ckpt.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "data.kind" in err


@pytest.mark.parametrize("key", ["data.grid.hi=5", "data.law.mu0=4", "method=kmd"])
def test_eval_refuses_identity_overrides(tmp_path, capsys, key):
    _, ckpt = _run_small(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--set", key]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key.split("=")[0]) in err


@pytest.mark.parametrize("clip", ["cost", "unit"])
def test_a_checkpoint_storing_clip(tmp_path, capsys, clip):
    # the stored config merges into the defaults as a config file does, so a
    # `clip` key, which configs no longer have, is refused as any unknown key
    _, half = _run_small(tmp_path, "--set", "halt_after=10")
    payload = json.loads(half.read_text())
    assert "clip" not in payload["config"]
    payload["config"]["clip"] = clip
    half.write_text(json.dumps(payload))
    before = half.read_bytes()
    capsys.readouterr()
    assert main(["resume", "--checkpoint", str(half)]) == 1
    assert capsys.readouterr().err == "config error: unknown config key 'clip'\n"
    assert half.read_bytes() == before


def test_resume_refuses_identity_overrides(tmp_path, capsys):
    _, ckpt = _run_small(tmp_path, "--set", "halt_after=10")
    capsys.readouterr()
    for key in ("N=1000", "seed=5", "data.grid.n=9", "eta_scale=2.0"):
        assert main(["resume", "--checkpoint", str(ckpt), "--set", key]) == 1
        assert repr(key.split("=")[0]) in capsys.readouterr().err
    other = tmp_path / "resumed.csv"
    assert main(["resume", "--checkpoint", str(ckpt),
                 "--set", f"output.report={other}"]) == 0
    assert other.read_text().strip().split("\n")[-1].startswith("20,")


@pytest.mark.parametrize("name", ["finite_md", "kmd", "linear_kmd"])
def test_resume_keeps_the_report_of_the_run_it_continues(tmp_path, name):
    common = _sets("N=40", "data.grid.n=8", "seed=5", "checkpoint_every=10",
                   "eval.gap_holdout=2", *_method_args(tmp_path)[name])
    full, half = tmp_path / "full.csv", tmp_path / "half.csv"
    assert main(["run"] + common + _sets(f"output.report={full}")) == 0
    assert main(["run"] + common + _sets(
        "halt_after=20", f"output.report={half}",
        f"output.checkpoint={tmp_path / 'half.json'}")) == 0
    assert len(half.read_text().strip().split("\n")) == 3
    assert main(["resume", "--checkpoint", str(tmp_path / "half.json")]) == 0
    # the config_hash column included: halt_after and output.* are not hashed
    assert _without_wall_ns(full) == _without_wall_ns(half)
    assert [row[0] for row in _without_wall_ns(full)[1:]] == ["10", "20", "30", "40"]


def _without_wall_ns(report):
    """The rows of a report, header first, each without its wall_ns field."""
    return [row[:3] + row[4:] for row in
            (line.split(",") for line in report.read_text().strip().split("\n"))]


def test_report_rows_survive_an_abort(tmp_path, monkeypatch):
    # each scored row reaches the report before its step's checkpoint, so a
    # run that aborts keeps the rows of its last checkpoint, and its resume
    # leaves the report of the uninterrupted run
    common = _sets("N=400", "data.grid.n=8", "seed=5", "checkpoint_every=50")
    full, half, ckpt = tmp_path / "full.csv", tmp_path / "half.csv", tmp_path / "c.json"
    assert main(["run"] + common + _sets(f"output.report={full}")) == 0
    step = kmd.linear_kmd_step

    def abort_at_121(state, *args):
        if state.k + 1 == 121:
            raise NumericalAbort("forced at k=121")
        return step(state, *args)

    monkeypatch.setattr(kmd, "linear_kmd_step", abort_at_121)
    assert main(["run"] + common + _sets(f"output.report={half}",
                                         f"output.checkpoint={ckpt}")) == 2
    assert json.loads(ckpt.read_text())["k"] == 100
    monkeypatch.setattr(kmd, "linear_kmd_step", step)
    assert [row[0] for row in _without_wall_ns(half)[1:]] == ["50", "100"]
    assert main(["resume", "--checkpoint", str(ckpt)]) == 0
    assert _without_wall_ns(half) == _without_wall_ns(full)
    assert len(_without_wall_ns(full)) == 1 + 8


def test_holdout_is_built_once_per_run(tmp_path, monkeypatch):
    builds = []
    build_stream = cli._build_stream

    def counting(config):
        builds.append(config["seed"])
        return build_stream(config)

    monkeypatch.setattr(cli, "_build_stream", counting)
    report, _ = _run_small(tmp_path, "--set", "eval.gap_holdout=3", N=30)
    assert builds == [1, 1 + 10_000_019]
    gaps = [row.split(",")[2] for row in report.read_text().split("\n")[1:-1]]
    assert len(gaps) == 3 and all(gaps)


def test_sinkhorn_unstable_count_is_kept(tmp_path, monkeypatch, capsys):
    # every 5-iteration solve stops unconverged; every other one is made to
    # report unstable instead
    calls = []
    sinkhorn_solve = baselines._sinkhorn_solve

    def flaky(*args, **kwargs):
        grad, sol = sinkhorn_solve(*args, **kwargs)
        calls.append(None)
        return grad, dataclasses.replace(sol, unstable=len(calls) % 2 == 1)

    monkeypatch.setattr(baselines, "_sinkhorn_solve", flaky)
    extra = ["--set", "method=sinkhorn_sgd", "--set", "baseline.inner_iters=5",
             "--set", "halt_after=10"]
    _, ckpt = _run_small(tmp_path, *extra)
    state = json.loads(ckpt.read_text())["state"]
    assert state["unstable"] == state["unconverged"] == 5
    err = capsys.readouterr().err
    assert "warning: 5 of 10 Sinkhorn inner solves were unstable" in err
    assert ("warning: 5 of 10 Sinkhorn inner solves stopped at inner_iters=5 "
            "above inner_tol=1e-09") in err
    assert main(["resume", "--checkpoint", str(ckpt)]) == 0
    state = json.loads(ckpt.read_text())["state"]
    assert state["unstable"] == state["unconverged"] == 10
    err = capsys.readouterr().err
    assert "warning: 10 of 20 Sinkhorn inner solves were unstable" in err
    assert ("warning: 10 of 20 Sinkhorn inner solves stopped at inner_iters=5 "
            "above inner_tol=1e-09") in err


@pytest.mark.parametrize("command", ["resume", "eval"])
@pytest.mark.parametrize("method, edit, message", [
    ("linear_kmd", lambda p: p["state"].pop("theta"),
     "checkpoint state lacks 'theta'"),
    ("linear_kmd", lambda p: p["state"].update(betas=[1.0]),
     "checkpoint state field 'betas' is not a field of LinearKmdState"),
    # a stream method's generator is its stream's, stored as rng
    ("linear_kmd", lambda p: p.pop("rng"), "checkpoint lacks 'rng'"),
    ("finite_md", lambda p: p.pop("rng"), "checkpoint lacks 'rng'"),
    ("finite_md", lambda p: p.pop("k"), "checkpoint lacks 'k'"),
    ("linear_kmd", lambda p: p.pop("state"), "checkpoint lacks 'state'"),
    ("linear_kmd", lambda p: p.pop("config"), "checkpoint lacks 'config'"),
    # no version-3 writer omitted a field: each is stored
    ("sinkhorn_sgd", lambda p: p["state"].pop("unconverged"),
     "checkpoint state lacks 'unconverged'"),
    # a step checks only what it changes, so a stored array comes in finite
    ("finite_md", lambda p: p["state"]["log_r"].__setitem__(0, float("nan")),
     "checkpoint state field 'log_r' holds a non-finite value"),
    ("finite_md", lambda p: p["state"].update(
        M=_encode_matrix(_decode_matrix(p["state"]["M"]) * np.nan)),
     "checkpoint state field 'M' holds a non-finite value"),
    # the method is a key of the stored config only
    ("kmd", lambda p: p.update(method="linear_kmd"),
     "unknown checkpoint record 'method'"),
    # finite_md's stepsize constants are the config's, set at setup
    ("finite_md", lambda p: p["state"].update(eta=p["state"]["eta"] * 1000),
     "checkpoint state field 'eta' must be 0.0006296062725930467, as its config "
     "sets it, got 0.6296062725930467"),
    ("finite_md", lambda p: p["state"].update(alpha=1),
     "checkpoint state field 'alpha' must be 4.1588830833596715, as its config "
     "sets it, got 1"),
    ("finite_md", lambda p: p["state"].update(beta=51200.000000000007),
     "checkpoint state field 'beta' must be 51200.0, as its config sets it, "
     "got 51200.00000000001"),
    # M_since counts steps, each a whole number in [0, k]; the sums are finite
    ("finite_md", lambda p: p["state"]["M_since"].__setitem__(1, 2.5),
     "checkpoint state field 'M_since' must hold whole numbers in [0, k=10]"),
    ("finite_md", lambda p: p["state"]["M_since"].__setitem__(0, -1.0),
     "checkpoint state field 'M_since' must hold whole numbers in [0, k=10]"),
    ("finite_md", lambda p: p["state"]["M_since"].__setitem__(2, 11),
     "checkpoint state field 'M_since' must hold whole numbers in [0, k=10]"),
    ("finite_md", lambda p: p["state"]["avg_num"].__setitem__(0, float("nan")),
     "checkpoint state field 'avg_num' holds a non-finite value"),
    ("finite_md", lambda p: p["state"].update(
        M_sum=_encode_matrix(_decode_matrix(p["state"]["M_sum"]) + np.inf)),
     "checkpoint state field 'M_sum' holds a non-finite value"),
], ids=["missing_field", "extra_field", "stream", "rng", "k", "state", "config",
        "unconverged", "nan_log_r", "nan_M", "method", "eta", "alpha", "beta",
        "M_since_fraction", "M_since_negative", "M_since_past_k", "nan_avg_num",
        "inf_M_sum"])
def test_a_checkpoint_that_does_not_fit_its_method_is_a_config_error(
        tmp_path, capsys, command, method, edit, message):
    # the stored config's method sets the run up, and the state is restored
    # against that run's cold state
    _, ckpt = _run_small(tmp_path, *_sets(*_method_args(tmp_path)[method]),
                         "--set", "halt_after=10")
    payload = json.loads(ckpt.read_text())
    edit(payload)
    ckpt.write_text(json.dumps(payload))
    before = ckpt.read_bytes()
    capsys.readouterr()
    assert main([command, "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert ckpt.read_bytes() == before


@pytest.fixture(scope="module")
def halted_checkpoints(tmp_path_factory):
    """Each SEEDED_GUARD method's checkpoint at k=10 of an N=20 run (n=8)."""
    tmp = tmp_path_factory.mktemp("halted")
    out = {}
    for name in SEEDED_GUARD:
        ckpt = tmp / f"{name}.json"
        assert main(["run"] + _sets("N=20", "data.grid.n=8", "seed=3", "halt_after=10",
                                    f"output.checkpoint={ckpt}",
                                    *_method_args(tmp)[name])) == 0
        rows = _rows_file(ckpt)
        out[name] = (json.loads(ckpt.read_text()),
                     rows.read_bytes() if rows.exists() else None)
    return out


def _misfits(value) -> list:
    """Values of a state field's kind or shape other than value's, or with a
    NaN: a string, null, a boolean, the wrong length or nesting."""
    out = ["a", None, True]
    if isinstance(value, list):
        return out + [value[:-1], value + [0.0], [value], [float("nan")] + value[1:]]
    if isinstance(value, dict):
        m = _decode_matrix(value)
        nan = m.copy()
        nan[-1, -1] = np.nan
        return out + [_encode_matrix(m[:-1]), _encode_matrix(m.ravel()),
                      m.tolist(), _encode_matrix(nan)]
    return out + [[value], float("nan")] + ([1.5] if type(value) is int else [])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_misfit_record_is_one_config_error_line(halted_checkpoints, data):
    name = data.draw(st.sampled_from(sorted(halted_checkpoints)), label="method")
    payload, rows = copy.deepcopy(halted_checkpoints[name])
    kinds = ["drop_record", "add_record", "drop_field", "add_field", "field", "k",
             "rng"] + (["rows"] if rows is not None else [])
    kind = data.draw(st.sampled_from(kinds), label="corruption")
    state = payload["state"]
    if kind == "drop_record":
        del payload[data.draw(st.sampled_from(sorted(payload)), label="record")]
    elif kind == "add_record":
        payload[data.draw(st.sampled_from(["method", "stream", "rows"]))] = 0
    elif kind == "drop_field":
        del state[data.draw(st.sampled_from(sorted(state)), label="field")]
    elif kind == "add_field":
        state[data.draw(st.sampled_from(["rows", "history", "betas", "k", "r"]))] = 0
    elif kind == "field":
        field = data.draw(st.sampled_from(sorted(state)), label="field")
        state[field] = data.draw(st.sampled_from(_misfits(state[field])), label="value")
    elif kind == "k":
        payload["k"] = data.draw(st.sampled_from([1.5, "10", None, True, -3, 21, 99]))
    elif kind == "rng":
        payload["rng"] = data.draw(st.sampled_from([{}, {"a": 1}, "x"]))
    else:
        rows = rows[:-data.draw(st.integers(1, len(rows)), label="cut")]
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "state.json"
        if "config" in payload:  # a resume that ran would rewrite this file
            payload["config"]["output"]["checkpoint"] = str(ckpt)
        ckpt.write_text(json.dumps(payload))
        if rows is not None:
            _rows_file(ckpt).write_bytes(rows)
        before = ckpt.read_bytes(), rows
        for command in ("resume", "eval"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main([command, "--checkpoint", str(ckpt)]) == 1
            assert err.getvalue().startswith("config error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert (ckpt.read_bytes(), rows and _rows_file(ckpt).read_bytes()) == before


def test_small_gamma_sinkhorn_run_warns_unconverged(tmp_path, capsys):
    _run_small(tmp_path, "--set", "method=sinkhorn_sgd",
               "--set", "cost.normalize=true", "--set", "baseline.gamma=5e-05")
    assert capsys.readouterr().err == (
        "warning: 20 of 20 Sinkhorn inner solves stopped at inner_iters=200 "
        "above inner_tol=1e-09\n")


def test_stable_sinkhorn_run_prints_no_warning(tmp_path, capsys):
    # every solve of this run converges within its 400 inner iterations
    _, ckpt = _run_small(tmp_path, "--set", "method=sinkhorn_sgd",
                         "--set", "cost.normalize=true",
                         "--set", "baseline.inner_iters=400")
    state = json.loads(ckpt.read_text())["state"]
    assert state["unstable"] == state["unconverged"] == 0
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("method", "adam"),
    ("stepsize_mode", "foo"),
    ("clip", "foo"),
    ("data.kind", "foo"),
    ("data.kind", "corpus"),
    ("baseline.stepper", "foo"),
    ("baseline.schedule", "foo"),
    ("N", "2.5"),
    ("halt_after", "-3"),
    ("halt_after", "0"),
    ("checkpoint_every", "0"),
    # every number finite, and the paper's constants in their range
    ("eta_scale", "-1"),
    ("eta_scale", "0"),
    ("eta_scale", "Infinity"),
    ("kernel.r_sq", "Infinity"),
    ("kernel.param", "-1"),
    ("kernel.family", "rbff"),
    ("cost.p", "Infinity"),
    ("cost.p", "0.5"),
    ("baseline.stepsize", "-1"),
    ("baseline.gamma", "0"),
    ("baseline.inner_tol", "-1"),
    ("baseline.inner_iters", "0"),
    ("data.law.mu0", "NaN"),
    ("data.law.sigma0_sq", "0"),
    ("data.law.rate", "NaN"),
    ("data.grid.lo", "-Infinity"),
    ("data.grid.n", "1"),
    ("data.count", "0"),
    ("eval.gap_holdout", "-1"),
    # keys the defaults lack, and a non-object for an object
    ("halt_afer", "5"),
    ("baseline.gama", "5e-5"),
    ("clip", "unit"),
    ("data.grid.size", "5"),
    ("data.grid", "5"),
])
def test_bad_config_value_is_a_config_error(tmp_path, capsys, key, value):
    report, corpus = tmp_path / "report.csv", tmp_path / "corpus.csv"
    assert main(["run", "--set", "N=4", "--set", "data.grid.n=6",
                 "--set", f"output.report={report}",
                 "--set", f"{key}={value}"]) == 1
    assert main(["gen-data", "--set", "data.count=2", "--set", f"data.path={corpus}",
                 "--set", f"{key}={value}"]) == 1
    for err in capsys.readouterr().err.strip().split("\n"):
        assert err.startswith("config error: ") and key in err
    assert not report.exists() and not corpus.exists()


@pytest.mark.parametrize("sets, rc", [
    (["eta_scale=1e308"], 1),
    # stepsize(1) is finite, stepsize(1) * beta_scale is 5.06e308
    (["eta_scale=1e305"], 1),
    (["eta_scale=1e300"], 0),
    (["kernel.r_sq=1e308"], 1),
    (["method=kmd", "kernel.r_sq=1e308"], 1),
], ids=["eta_scale_1e308", "eta_scale_1e305", "eta_scale_1e300", "r_sq_1e308",
        "kmd_r_sq_1e308"])
def test_kmd_stepsize_constants_that_overflow_are_config_errors(tmp_path, capsys,
                                                                sets, rc):
    # at the default n = 100 these overflowed to a numerical abort at k <= 3;
    # gen-data builds no stepsize, so only run is checked
    report = tmp_path / "report.csv"
    assert main(["run"] + _sets("N=50", f"output.report={report}", *sets)) == rc
    err = capsys.readouterr().err
    if rc:
        assert err.startswith("config error: eta_scale=") and err.count("\n") == 1
        assert "kernel.r_sq=" in err and "N=50" in err and not report.exists()
    else:
        assert err == "" and report.exists()


_HI_NOT_ABOVE_LO = "data.grid.hi must be a finite number > data.grid.lo, got {hi}"
_NO_GRID = ("data.grid.lo={lo}, data.grid.hi={hi} and data.grid.n=100 give no "
            "grid: grid points must be strictly increasing")


@pytest.mark.parametrize("lo, hi, message", [
    ("5", "-5", _HI_NOT_ABOVE_LO), ("0", "0", _HI_NOT_ABOVE_LO),
    ("1", "0.5", _HI_NOT_ABOVE_LO),
    # hi - lo overflows in np.linspace
    ("-1e308", "1e308", _NO_GRID),
    # too narrow a span for 100 distinct points
    ("1", "1.0000000000000002", _NO_GRID),
], ids=["5--5", "0-0", "1-0.5", "overflow", "narrow"])
def test_a_grid_with_hi_not_above_lo_names_both_keys(tmp_path, capsys, lo, hi,
                                                      message):
    report, corpus = tmp_path / "report.csv", tmp_path / "corpus.csv"
    sets = [f"data.grid.lo={lo}", f"data.grid.hi={hi}"]
    assert main(["run"] + _sets("N=4", f"output.report={report}", *sets)) == 1
    assert main(["gen-data"] + _sets("data.count=2", f"data.path={corpus}",
                                     *sets)) == 1
    message = message.format(lo=json.loads(lo), hi=json.loads(hi))
    assert capsys.readouterr().err == 2 * f"config error: {message}\n"
    assert not report.exists() and not corpus.exists()


_DEGENERATE_COST = ("cost.p={p!r}, cost.normalize={normalize}, data.grid.lo={lo}, "
                    "data.grid.hi={hi} and data.grid.n=20 give no cost: its "
                    "sup-norm {norm} must be finite and > 0")


@pytest.mark.parametrize("p, sets, message", [
    # every |x_i - x_j|^p underflows to 0; normalizing would divide by it
    (2000, ["data.grid.lo=0", "data.grid.hi=0.5"],
     _DEGENERATE_COST.format(p=2000, normalize=False, lo=0, hi=0.5, norm="0.0")),
    (2000, ["data.grid.lo=0", "data.grid.hi=0.5", "cost.normalize=true"],
     _DEGENERATE_COST.format(p=2000, normalize=True, lo=0, hi=0.5, norm="0.0")),
    # the powers of the distances above 1 overflow
    (1e300, [], _DEGENERATE_COST.format(p=1e300, normalize=False, lo=-10.0,
                                        hi=10.0, norm="inf")),
    # a finite cost whose square, in linear_kmd's constants, overflows
    (1, ["data.grid.lo=-1e200", "data.grid.hi=1e200"],
     "eta_scale=1.0, stepsize_mode='constant', kernel.family='linear', "
     "kernel.r_sq=None, N=5, cost.p=1, cost.normalize=False, "
     "data.grid.lo=-1e+200, data.grid.hi=1e+200 and data.grid.n=20 give no kmd "
     "stepsize: the cost's sup-norm 2e+200 squares past the float range; set "
     "cost.normalize=true or narrow the grid"),
], ids=["underflow", "underflow_normalized", "overflow", "square_overflow"])
def test_a_degenerate_cost_is_the_one_config_error_line(tmp_path, p, sets, message):
    # in a fresh interpreter, so a numpy RuntimeWarning would reach stderr;
    # run only, since gen-data builds no cost
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "barystream.cli", "run",
         *_sets("N=5", "data.grid.n=20", "output.report=report.csv",
                f"cost.p={p!r}", *sets)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == f"config error: {message}\n"
    assert not (tmp_path / "report.csv").exists()


def test_a_grid_with_no_gaussian_truth_is_the_one_config_error_line(tmp_path,
                                                                     capsys):
    # every z of the truth's Gaussian on this grid squares past the float
    # range, so its weights are NaN; numpy must not warn on the way there
    report = tmp_path / "report.csv"
    assert main(["run"] + _sets("N=5", "method=sinkhorn_sgd", "data.grid.lo=-1e200",
                                "data.grid.hi=1e200", "cost.p=1",
                                f"output.report={report}")) == 1
    assert capsys.readouterr().err == (
        "config error: data.grid.lo=-1e+200, data.grid.hi=1e+200, "
        "data.law.mu0=1.0 and data.law.rate=0.5 give no true barycenter on the "
        "grid: normalize: total mass is zero or non-finite\n")
    assert not report.exists()


def test_an_eval_holdout_with_no_mass_is_the_one_config_error_line(tmp_path, capsys,
                                                                   monkeypatch):
    # eval takes no step, so every draw it makes is a holdout measure's; each
    # comes out with no mass on the grid here
    ckpt = tmp_path / "state.json"
    assert main(["run"] + _sets("N=10", "halt_after=4", "data.grid.n=8",
                                f"output.checkpoint={ckpt}")) == 0

    def no_mass(stream):
        raise MeasureError("normalize: total mass is zero or non-finite")

    monkeypatch.setattr(MeasureStream, "sample", no_mass)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--set", "eval.gap_holdout=2"]) == 1
    assert capsys.readouterr().err == (
        "config error: data.law.mu0=1.0, data.law.sigma0_sq=4.0, data.law.rate=0.5, "
        "cost.p=2.0, cost.normalize=False, data.grid.lo=-10.0, data.grid.hi=10.0, "
        "data.grid.n=8 and seed=0 give no score: normalize: total mass is zero or "
        "non-finite\n")


def test_a_corpus_run_names_no_gaussian_law_key(tmp_path, capsys, monkeypatch):
    # a corpus draw cannot fail, so a score past the float range stands for
    # what the run loop's block catches; the corpus gives the grid
    corpus = tmp_path / "corpus.csv"
    assert main(["gen-data"] + _sets("data.count=3", "data.grid.n=8",
                                     f"data.path={corpus}")) == 0

    def overflow(r, holdout, C):
        raise OverflowError("the gap is past the float range")

    monkeypatch.setattr(cli.evaluation, "gap_surrogate", overflow)
    capsys.readouterr()
    report = tmp_path / "report.csv"
    assert main(["run"] + _sets("N=5", "method=linear_kmd", "data.kind=finite",
                                f"data.path={corpus}", "eval.gap_holdout=1",
                                f"output.report={report}")) == 1
    assert capsys.readouterr().err == (
        f"config error: cost.p=2.0, cost.normalize=False, data.path={str(corpus)!r} "
        "and seed=0 give no run: the gap is past the float range\n")
    assert not report.exists()


_KMD_KEYS = ("eta_scale=1.0, stepsize_mode='constant', kernel.family='rbf', "
             "kernel.r_sq=None, N=5, cost.p=2.0, cost.normalize=False, "
             "data.grid.lo=-10.0, data.grid.hi=10.0 and data.grid.n=8")


@pytest.mark.parametrize("sets, message", [
    (["method=kmd", 'kernel={"family": "rbf", "param": 0}'],
     "kernel.family='rbf', kernel.param=0 and kernel.r_sq=None give no kernel: "
     "rbf kernel parameter must be > 0"),
    (["method=kmd", 'kernel={"family": "rbf", "param": 0.001}'],
     f"{_KMD_KEYS} give no kmd stepsize: r_sq must be configured for the rbf "
     "kernel"),
    (["method=linear_kmd", 'kernel={"family": "rbf", "param": 5, "r_sq": 3}'],
     "method='linear_kmd' runs the linear kernel only, got kernel.family='rbf'"),
    (["data.kind=finite"],
     "data.kind='finite', data.path=None and data.weights=None give no corpus: "
     "corpus path missing: None"),
    (["method=finite_md", "data.kind=finite", "data.path={corpus}",
      "data.weights=[1, 2]"],
     "data.kind='finite', data.path='{corpus}' and data.weights=[1, 2] give no "
     "corpus: sampling weights must be one per measure (5), got 2"),
    (["data.kind=finite", "data.path={corpus}", "data.weights=[1, 2]"],
     "data.kind='finite', data.path='{corpus}' and data.weights=[1, 2] give no "
     "corpus: sampling weights must be one per measure (5), got 2"),
    (["data.kind=finite", "data.path={corpus}", "data.weights=[0, 0, 0, 0, 0]"],
     "data.kind='finite', data.path='{corpus}' and data.weights=[0, 0, 0, 0, 0] "
     "give no corpus: sampling weights must be non-negative with a finite "
     "positive sum, got array([0., 0., 0., 0., 0.])"),
], ids=["rbf_param_0", "rbf_no_r_sq", "linear_kmd_rbf", "no_path",
        "finite_md_weights", "stream_weights", "zero_weights"])
def test_a_value_setup_cannot_build_is_one_config_error_line(tmp_path, capsys,
                                                             sets, message):
    # on a 5-measure corpus; in process, where a numpy RuntimeWarning is an
    # error
    corpus = tmp_path / "corpus.csv"
    assert main(["gen-data"] + _sets("data.count=5", "data.grid.n=8",
                                     f"data.path={corpus}")) == 0
    report, ckpt = tmp_path / "report.csv", tmp_path / "state.json"
    capsys.readouterr()
    assert main(["run"] + _sets("N=5", "data.grid.n=8", f"output.report={report}",
                                f"output.checkpoint={ckpt}",
                                *(a.replace("{corpus}", str(corpus)) for a in sets)
                                )) == 1
    message = message.replace("{corpus}", str(corpus))
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not report.exists() and not ckpt.exists()


@pytest.mark.parametrize("content, where", [
    (b"# grid: 0.0 1.0 3\n0.5,abc,0.5\n",
     "line 2: not a row of comma-separated numbers"),
    (b"# grid: 0.0 1.0 three\n0.2,0.3,0.5\n",
     "line 1: a grid header is '# grid: lo hi n' with n an integer"),
    (b"# grid: 0.0 1.0\n0.2,0.3,0.5\n",
     "line 1: a grid header is '# grid: lo hi n' with n an integer"),
    (None, "cannot be read: Is a directory"),
    (b"# grid: 0.0 1.0 3\n0.2,0.3,0.5\n0.5,\xff0.5,0\n",
     "line 3: not UTF-8 text"),
], ids=["non_numeric", "grid_n_not_integer", "grid_two_fields", "directory",
        "not_utf8"])
def test_a_bad_corpus_file_is_one_config_error_line(tmp_path, capsys, content,
                                                    where):
    path = tmp_path / "corpus.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run"] + _sets("method=finite_md", "data.kind=finite",
                                f"data.path={path}", "N=5")) == 1
    assert capsys.readouterr().err == (
        f"config error: data.kind='finite', data.path={str(path)!r} and "
        f"data.weights=None give no corpus: corpus {path} {where}\n")


def test_gen_data_on_a_span_with_no_measure_is_the_one_config_error_line(tmp_path):
    # every z of every draw squares past the float range; in a fresh
    # interpreter, so a numpy RuntimeWarning would reach stderr
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "barystream.cli", "gen-data",
         *_sets("data.count=2", "data.path=corpus.csv", "data.grid.lo=-1e200",
                "data.grid.hi=1e200")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == (
        "config error: data.law.mu0=1.0, data.law.sigma0_sq=4.0, data.law.rate=0.5, "
        "data.grid.lo=-1e+200, data.grid.hi=1e+200, data.grid.n=100, data.count=2 "
        "and seed=0 give no corpus: normalize: total mass is zero or non-finite\n")
    assert not (tmp_path / "corpus.csv").exists()


@pytest.mark.parametrize("sets, message", [
    (["data.grid.n=abc"], "data.grid.n must be an integer >= 2, got 'abc'"),
    (["eta_scale=abc"], "eta_scale must be a finite number > 0, got 'abc'"),
    (["method=sinkhorn_sgd", "baseline.gamma=abc"],
     "baseline.gamma must be a finite number > 0, got 'abc'"),
    (["data.grid.n=8.0"], "data.grid.n must be an integer >= 2, got 8.0"),
    (["cost.normalize=1"], "cost.normalize must be a boolean, got 1"),
    (["N=true"], "N must be an integer >= 1, got True"),
    (["seed=abc"], "seed must be an integer >= 0, got 'abc'"),
    (["seed=-1"], "seed must be an integer >= 0, got -1"),
    # keys whose default is null
    (["method=kmd", "kernel.r_sq=abc"],
     "kernel.r_sq must be null or a finite number > 0, got 'abc'"),
    (["kernel.r_sq=abc"],
     "kernel.r_sq must be null or a finite number > 0, got 'abc'"),
    (["kernel.r_sq=-1"], "kernel.r_sq must be null or a finite number > 0, got -1"),
    (["method=kmd", 'kernel={"family": "rbf", "param": 0.001, "r_sq": -5}'],
     "kernel.r_sq must be null or a finite number > 0, got -5"),
    (["kernel.r_sq=true"],
     "kernel.r_sq must be null or a finite number > 0, got True"),
    (["data.path=[1]"], "data.path must be null or a string, got [1]"),
    (["data.weights=abc"],
     "data.weights must be null or an array of finite numbers, got 'abc'"),
    (['data.weights=["a","b","c"]'],
     "data.weights must be null or an array of finite numbers, "
     "got ['a', 'b', 'c']"),
    (["output.report=[1]"], "output.report must be null or a string, got [1]"),
    (["output.report=3"], "output.report must be null or a string, got 3"),
    (["output.checkpoint=7"], "output.checkpoint must be null or a string, got 7"),
], ids=["grid_n", "eta_scale", "gamma", "float_for_int", "int_for_bool",
        "bool_for_int", "seed", "negative_seed", "kmd_r_sq", "linear_r_sq",
        "negative_r_sq", "negative_rbf_r_sq", "bool_r_sq", "path", "weights",
        "weights_of_strings", "report", "report_fd", "checkpoint"])
def test_a_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, sets,
                                                     message):
    report = tmp_path / "report.csv"
    # a case of output.report sets it on its null default, not on this path
    if not any(item.startswith("output.report=") for item in sets):
        sets = [f"output.report={report}", *sets]
    assert main(["run"] + _sets("N=2", *sets)) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("weights", ["[NaN, 1, 0.5]", "[Infinity, 1, 0.5]"])
def test_non_finite_weights_fail_the_config_check(capsys, weights):
    # every number of a config is finite, the weights' entries too
    assert main(["run", "--set", "N=2", "--set", f"data.weights={weights}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: data.weights must be null or an array "
                          "of finite numbers, got [")


def _set_unchecked(config, extra):
    """extra merged into config in place, object into object, unchecked."""
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            _set_unchecked(config[key], value)
        else:
            config[key] = value


@pytest.mark.parametrize("command", ["resume", "eval"])
@pytest.mark.parametrize("stored, message", [
    ({"clip": "cost"}, "unknown config key 'clip'"),
    ({"baseline": {"gama": 5e-5}}, "unknown config key 'baseline.gama'"),
    ({"data": {"grid": {"n": "abc"}}},
     "data.grid.n must be an integer >= 2, got 'abc'"),
    ({"kernel": {"r_sq": -1}},
     "kernel.r_sq must be null or a finite number > 0, got -1"),
    ({"output": {"report": 7}}, "output.report must be null or a string, got 7"),
    ({"N": 0}, "N must be an integer >= 1, got 0"),
], ids=["clip", "nested_key", "grid_n", "r_sq", "report", "N"])
def test_a_stored_config_passes_the_defaults_schema(tmp_path, capsys, command,
                                                   stored, message):
    # the stored config merges into the defaults as a --config file does
    _, ckpt = _run_small(tmp_path, "--set", "halt_after=10")
    payload = json.loads(ckpt.read_text())
    _set_unchecked(payload["config"], stored)
    ckpt.write_text(json.dumps(payload))
    before = ckpt.read_bytes()
    capsys.readouterr()
    assert main([command, "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert ckpt.read_bytes() == before


def test_an_integer_passes_for_a_number(tmp_path):
    config = load_config(None, ["eta_scale=2", "data.grid.lo=-3"])
    assert config["eta_scale"] == 2 and config["data"]["grid"]["lo"] == -3
    path = write_config(tmp_path, baseline={"gamma": 1})
    assert load_config(path, [])["baseline"]["gamma"] == 1


@pytest.mark.parametrize("command", ["resume", "eval"])
def test_a_checkpoint_override_of_the_wrong_type_is_a_config_error(
        tmp_path, capsys, command):
    _, ckpt = _run_small(tmp_path, "--set", "halt_after=10")
    capsys.readouterr()
    assert main([command, "--checkpoint", str(ckpt),
                 "--set", "eval.gap_holdout=abc"]) == 1
    assert capsys.readouterr().err == (
        "config error: eval.gap_holdout must be an integer >= 0, got 'abc'\n")
    assert json.loads(ckpt.read_text())["k"] == 10


def test_a_config_file_is_merged_by_the_same_rule(tmp_path, capsys):
    path = write_config(tmp_path, N=4, baseline={"gama": 5e-5})
    assert main(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == "config error: unknown config key 'baseline.gama'\n"
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main(["run", "--config", str(tmp_path / "list.json")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: a config takes a JSON object, got [1, 2]\n"


def test_set_merges_an_object_as_a_config_file_does(tmp_path, monkeypatch):
    # both merge {"kind": "gaussian"} into the default data section, and both
    # runs write report.csv in their own directory, so the configs are equal
    reports = []
    for name, args in [("set", _sets('data={"kind": "gaussian"}')),
                       ("file", ["--config", write_config(
                           tmp_path, data={"kind": "gaussian"})])]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(["run", *args, *_sets("N=20", "checkpoint_every=10",
                                          "data.grid.n=8", "output.report=report.csv")
                     ]) == 0
        rows = Path("report.csv").read_text().strip().split("\n")
        reports.append([row.split(",")[:3] + row.split(",")[4:] for row in rows])
    assert reports[0] == reports[1] and len(reports[0]) == 3


@pytest.mark.parametrize("argv", [["run", "--foo"], ["eval"],
                                  ["eval", "--config", "c.json", "--checkpoint", "s"],
                                  ["certify", "--n-lo", "two"], []])
def test_a_usage_error_exits_1(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: barystream")


@pytest.mark.parametrize("value", ["-3", "0", "abc", "5", "10"])
def test_resume_rejects_a_bad_halt_after(tmp_path, capsys, value):
    # a halt_after at or below the checkpoint's k=10 would take no step
    report, ckpt = _run_small(tmp_path, "--set", "halt_after=10")
    before = ckpt.read_bytes(), report.read_bytes()
    capsys.readouterr()
    assert main(["resume", "--checkpoint", str(ckpt),
                 "--set", f"halt_after={value}"]) == 1
    assert "halt_after" in capsys.readouterr().err
    assert (ckpt.read_bytes(), report.read_bytes()) == before


def test_resume_at_or_below_k_names_halt_after_and_k(tmp_path, capsys):
    _, ckpt = _run_small(tmp_path, "--set", "halt_after=10")
    capsys.readouterr()
    assert main(["resume", "--checkpoint", str(ckpt), "--set", "halt_after=5"]) == 1
    assert capsys.readouterr().err == ("config error: halt_after=5 must be above "
                                       "the checkpoint's k=10\n")
    # eval takes no step, so it reads no halt_after
    assert main(["eval", "--checkpoint", str(ckpt), "--set", "halt_after=5"]) == 0


@pytest.mark.parametrize("extra", [[], ["--set", "halt_after=30"]])
def test_resume_of_a_checkpoint_at_N_is_a_config_error(tmp_path, capsys, extra):
    # a checkpoint at k = N has no step left, whatever halt_after says past N
    report, ckpt = _run_small(tmp_path, "--set", "method=linear_kmd")
    before = [hashlib.md5(path.read_bytes()).hexdigest() for path in (report, ckpt)]
    capsys.readouterr()
    assert main(["resume", "--checkpoint", str(ckpt), *extra]) == 1
    assert capsys.readouterr().err == ("config error: the checkpoint's k=20 is "
                                       "already N=20: resume would take no step\n")
    assert [hashlib.md5(path.read_bytes()).hexdigest()
            for path in (report, ckpt)] == before


@pytest.mark.parametrize("line", ["15,0.5", "10,x,,1,linear_kmd,1,abc",
                                  "10,nan,,1,linear_kmd,1,{hash}"])
def test_an_unparsable_report_line_is_one_config_error_line(tmp_path, capsys,
                                                            line):
    report, ckpt = _run_small(tmp_path, "--set", "halt_after=10")
    config_hash = report.read_text().split("\n")[1].split(",")[-1]
    with open(report, "a") as fh:
        fh.write(line.format(hash=config_hash) + "\n")
    before = ckpt.read_bytes(), report.read_bytes()
    capsys.readouterr()
    assert main(["resume", "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: report {report} line 3: ")
    assert err.count("\n") == 1
    assert (ckpt.read_bytes(), report.read_bytes()) == before


def test_finite_md_without_a_path_is_a_config_error(capsys):
    assert main(["run", "--set", "method=finite_md", "--set", "data.kind=finite",
                 "--set", "N=5"]) == 1
    assert "corpus path missing" in capsys.readouterr().err


def _method_args(tmp_path, n=8):
    """CLI flags of each method, at settings where its iterates move far from
    the uniform start; finite_md runs on a 4-measure corpus of grid size n
    made here."""
    corpus = tmp_path / f"corpus{n}.csv"
    if not corpus.exists():
        assert main(["gen-data", "--set", "data.count=4", "--set", f"data.grid.n={n}",
                     "--set", "seed=9", "--set", f"data.path={corpus}"]) == 0
    rbf = 'kernel={"family": "rbf", "param": 0.001, "r_sq": 25.0}'
    return {
        "finite_md": ["method=finite_md", "data.kind=finite",
                      f"data.path={corpus}", "eta_scale=50.0"],
        "kmd": ["method=kmd", rbf, "cost.normalize=true", "eta_scale=10000.0"],
        "kmd_dynamic": ["method=kmd", rbf, "stepsize_mode=dynamic",
                        "cost.normalize=true", "eta_scale=100.0"],
        "linear_kmd": ["method=linear_kmd", "cost.normalize=true",
                       "eta_scale=2000.0"],
        "kmd_linear": ["method=kmd", "cost.normalize=true", "eta_scale=2000.0"],
        "linear_kmd_corpus": ["method=linear_kmd", "cost.normalize=true",
                              "eta_scale=2000.0", "data.kind=finite",
                              f"data.path={corpus}"],
        "sinkhorn_sgd": ["method=sinkhorn_sgd", "baseline.inner_iters=30",
                         "baseline.stepsize=0.05"],
        "lp_sgd": ["method=lp_sgd", "baseline.stepsize=0.05"],
        "lp_sgd_euclidean": ["method=lp_sgd", "baseline.stepsize=0.05",
                             "baseline.stepper=euclidean"],
    }


def _sets(*items):
    return [a for item in items for a in ("--set", item)]


# r_avg and the sha256 of json.dumps(payload["state"]) followed by the bytes
# of the checkpoint's rows file (none but kmd's has one) after N=200 steps
# (n=8, seed=3), recorded from the code before the method table, the state
# codec and the shared run loop replaced the per-method chains and loops. The
# two lp_sgd entries were re-recorded when lp_subgradient moved from the HiGHS
# LP to the staircase dual: at steps where r or c has a mass below HiGHS's
# 1e-7 tolerance the LP's dual broke the subgradient inequality, and the
# staircase one does not. The three baseline hashes were re-recorded again
# when the baseline state gained its `unconverged` count; without that key
# each state hashes as before. The two kmd hashes were re-recorded when the
# history moved from base64 betas/samples matrices in the state to the rows
# file (checkpoint version 3); the rows are those matrices' bits, row by row.
# They were re-recorded once more when the state lost its "rows": 200 count
# (version 4, where the rows file's first k rows are the history): with that
# key put back after log_r, each state hashes as before. linear_kmd_corpus,
# linear_kmd drawing the finite_md corpus by its uniform law, was recorded
# before the stream became a generator and a draw, to pin the finite draws.
# The finite_md hash was re-recorded when its averages became sums (version
# 5: avg_num, M_sum and M_since in place of r_avg and M_avg); log_r, M, eta,
# alpha, beta and the rng are those of the running-mean code, bit for bit.
# The sinkhorn_sgd hash was re-recorded when Sinkhorn's half-steps began to
# run from frozen kernels, which sum in another order, and again when its
# iterations between re-freezes began to run in the scaled form (r_avg moved
# by 5.9e-16 relative), and once more when that scaled loop with absorption
# became its only loop (r_avg moved by 6.9e-16 relative); its r_avg held at
# 1e-12 each time. kmd_linear, kmd on its default linear kernel, runs theta,
# so its row is linear_kmd's
SEEDED_GUARD = {
    "finite_md": ("09aad8a4d1ad365e5067cf6a77ab65c7a94401dd0b41b7eea4ad6df356b028e0",
                  [0.04624747139258638, 0.05026358264447243, 0.11819616897917236,
                   0.18677162696367908, 0.34192672091788384, 0.1407247175625001,
                   0.06525148637768098, 0.05061822516202479]),
    "kmd": ("accc1de7c241f6247b5ae82e299ba34af98c9060d858a6ed79a643443145afef",
            [0.000625014099170272, 0.007566293439683009, 0.030258311033449746,
             0.021466973496984777, 0.901980264001689, 0.03296954423323988,
             0.0040240159472243655, 0.001109583748559312]),
    "kmd_dynamic": ("fcb00b87c245a1d166ebcbe062885847d63feb82cf8d320e18edce315bb1124b",
                    [0.005850131821332614, 0.012887437424328798, 0.05767061294161781,
                     0.1932169864964062, 0.4216303132501782, 0.23862699392516348,
                     0.05333957132442007, 0.016777952816552033]),
    "linear_kmd": ("bb53c639e35fe716187fa6bf3296bc431e0e4f65178f6da18586d04e1ec641f3",
                   [0.0025078114503235133, 0.00575328880303214, 0.019775053396683083,
                    0.14128641936335165, 0.6539741945800016, 0.15092569063696415,
                    0.020073169738235048, 0.005704372031409044]),
    "kmd_linear": ("bb53c639e35fe716187fa6bf3296bc431e0e4f65178f6da18586d04e1ec641f3",
                   [0.0025078114503235133, 0.00575328880303214, 0.019775053396683083,
                    0.14128641936335165, 0.6539741945800016, 0.15092569063696415,
                    0.020073169738235048, 0.005704372031409044]),
    "linear_kmd_corpus": (
        "ea1f9274b92747f81e62e258190fe1247896b1226d44ee4443f18241c2b29add",
        [0.0025541550733871464, 0.006473536801041738, 0.024537618967472214,
         0.18025705058184532, 0.7387571524777141, 0.03831745230460663,
         0.00679578391532853, 0.002307249878605068]),
    "sinkhorn_sgd": ("9904d6733d298ff133bba17ef8fbe252fa1b8ced1c469d8e375314a1e0c38e3b",
                     [0.026734370952663053, 0.0379598158220921, 0.07038214568318964,
                      0.16916620674537794, 0.37098155427903057, 0.2039852159570048,
                      0.08023703758014075, 0.040553652980500975]),
    "lp_sgd": ("10229d80fce79b9f0c3bd84b1115c8b2c3262433a5d48d0718064f28ac4ef608",
               [2.7805062583206718e-06, 0.0004816524295967726, 0.04119106416910067,
                0.2813559411156282, 0.47051899822278587, 0.19441190757428867,
                0.011540604034647179, 0.0004970519476943676]),
    "lp_sgd_euclidean": (
        "5648e01e601e1dd9e7b997c900de0576838189537c481a0c2002009d3fc37d22",
        [0.09947516712753446, 0.09493329044256994, 0.08576070076275073,
         0.13760356813786204, 0.22193177406232237, 0.14677309623359563,
         0.11585269525783559, 0.09766970797552908]),
}


@pytest.mark.parametrize("name", sorted(SEEDED_GUARD))
def test_seeded_checkpoint_guard(tmp_path, name):
    ckpt = tmp_path / "state.json"
    assert main(["run"] + _sets("N=200", "data.grid.n=8", "seed=3",
                                "checkpoint_every=50", f"output.checkpoint={ckpt}",
                                *_method_args(tmp_path)[name])) == 0
    payload = json.loads(ckpt.read_text())
    _, run = cli._open_checkpoint(str(ckpt), [])
    sha, r_avg = SEEDED_GUARD[name]
    np.testing.assert_allclose(run.state.r_avg, r_avg, rtol=1e-12, atol=0)
    rows = _rows_file(ckpt).read_bytes() if _rows_file(ckpt).exists() else b""
    assert hashlib.sha256(json.dumps(payload["state"]).encode()
                          + rows).hexdigest() == sha


@pytest.mark.parametrize("name", sorted(SEEDED_GUARD))
def test_checkpoint_file_holds_the_bytes_json_dump_writes(tmp_path, monkeypatch, name):
    write, written = cli._atomic_write_json, []

    def recording(path, payload):
        write(path, payload)
        written.append((Path(path).read_bytes(), payload))

    monkeypatch.setattr(cli, "_atomic_write_json", recording)
    assert main(["run"] + _sets("N=20", "data.grid.n=8", "seed=3", "checkpoint_every=10",
                                f"output.checkpoint={tmp_path / 'state.json'}",
                                *_method_args(tmp_path)[name])) == 0
    assert len(written) == 2
    for raw, payload in written:
        streamed = io.StringIO()
        json.dump(payload, streamed)
        assert raw == streamed.getvalue().encode()


@pytest.mark.parametrize("name", sorted(SEEDED_GUARD))
def test_checkpoint_state_holds_no_r(tmp_path, name):
    ckpt = tmp_path / "state.json"
    assert main(["run"] + _sets("N=5", "data.grid.n=8", "seed=3",
                                f"output.checkpoint={ckpt}",
                                *_method_args(tmp_path)[name])) == 0
    state = json.loads(ckpt.read_text())["state"]
    assert "r" not in state and "log_r" in state


def _set_up(tmp_path, name, *extra):
    """The run of method name (a _method_args key) at n=8, seed 3, cold."""
    config = load_config(None, ["data.grid.n=8", "seed=3",
                                *_method_args(tmp_path)[name], *extra])
    return cli.METHODS[config["method"]](config)


@pytest.mark.parametrize("name", sorted(SEEDED_GUARD))
def test_a_step_advances_its_state_in_place(tmp_path, name):
    run = _set_up(tmp_path, name)
    state = run.state
    for k in range(1, 4):
        assert run.step(state) is state and state.k == k


# a setting under which each method's steps overflow to a non-finite iterate
_OVERFLOW = {name: ["eta_scale=1e308"]
             for name in ("kmd", "kmd_dynamic", "kmd_linear", "linear_kmd",
                          "linear_kmd_corpus")}
_OVERFLOW.update({name: ["baseline.schedule=constant", "baseline.stepsize=1e308"]
                  for name in ("sinkhorn_sgd", "lp_sgd", "lp_sgd_euclidean")})


@pytest.mark.parametrize("name", sorted(SEEDED_GUARD))
def test_an_aborted_step_leaves_its_state_as_it_was(tmp_path, monkeypatch, name):
    monkeypatch.setattr(cli, "_kmd_config", _unchecked_kmd_config)
    run = _set_up(tmp_path, name, *_OVERFLOW.get(name, []))
    state = run.state
    if name == "finite_md":
        state.eta = np.inf
    # the encoding skips a kmd history, so its size is compared; kmd_dynamic
    # first aborts at k=3, on a history of 2 rows
    def snapshot():
        return (state.k, state.r.tobytes(), json.dumps(cli._encode_state(state)),
                getattr(getattr(state, "history", None), "size", None))

    with np.errstate(all="ignore"):  # as the run loop steps
        for _ in range(10):
            before = snapshot()
            try:
                run.step(state)
            except NumericalAbort:
                break
        else:
            pytest.fail("no step aborted")
    assert snapshot() == before


@pytest.mark.parametrize("name", ["finite_md", "kmd", "linear_kmd"])
def test_restored_r_is_the_carried_r(tmp_path, name):
    config = load_config(None, ["data.grid.n=8", "seed=3",
                                *_method_args(tmp_path)[name]])
    run = cli.METHODS[config["method"]](config)
    state = run.state
    for _ in range(7):
        state = run.step(state)
    payload = json.loads(json.dumps({"k": state.k, "state": cli._encode_state(state)}))
    rows = tmp_path / "state.json.rows"
    if name == "kmd":
        cli._write_rows(str(rows), np.hstack([state.history.betas,
                                              state.history.samples]), append=False)
    restored = cli._restore_state(cli.METHODS[name](config).state, payload,
                                  str(rows)).r
    assert restored.dtype == state.r.dtype == np.float64
    assert np.array_equal(restored.view(np.uint64), state.r.view(np.uint64))


@pytest.mark.parametrize("weights", ["[NaN, 0.5, 0.25, 0.25]",
                                     "[Infinity, 0.5, 0.25, 0.25]"])
@pytest.mark.parametrize("name", ["finite_md", "linear_kmd"])
def test_non_finite_data_weights_exit_1(tmp_path, capsys, name, weights):
    methods = _method_args(tmp_path)
    # both read the finite_md corpus: finite_md's problem, linear_kmd's stream
    args = methods[name] + [a for a in methods["finite_md"] if a.startswith("data.")]
    capsys.readouterr()
    assert main(["run"] + _sets("N=5", "data.grid.n=8", f"data.weights={weights}",
                                *args)) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("name", ["finite_md", "linear_kmd"])
def test_data_weights_are_one_law_in_every_method(tmp_path, name):
    # finite_md reads data.weights as the finite stream does: over their sum
    methods = _method_args(tmp_path)
    args = methods[name] + [a for a in methods["finite_md"] if a.startswith("data.")]
    payloads = []
    for weights in ("[1, 1, 1, 1]", "[0.25, 0.25, 0.25, 0.25]"):
        ckpt = tmp_path / "state.json"
        assert main(["run"] + _sets("N=30", "data.grid.n=8", "seed=3",
                                    f"data.weights={weights}",
                                    f"output.checkpoint={ckpt}", *args)) == 0
        payloads.append(json.loads(ckpt.read_text()))
    a, b = payloads
    assert a["config"]["data"]["weights"] != b["config"]["data"]["weights"]
    for key in ("state", "rng"):
        assert a[key] == b[key], key


@pytest.mark.parametrize("name", ["finite_md", "kmd", "linear_kmd",
                                  "sinkhorn_sgd", "lp_sgd"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_resume_at_any_step_matches_uninterrupted(name, data):
    N = data.draw(st.integers(2, 40), label="N")
    halt = data.draw(st.integers(1, N - 1), label="halt_after")
    every = data.draw(st.integers(1, N), label="checkpoint_every")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        common = _sets(f"N={N}", "data.grid.n=8", "seed=4",
                       f"checkpoint_every={every}", *_method_args(tmp)[name])
        full, half = tmp / "full.json", tmp / "half.json"
        assert main(["run"] + common + _sets(f"output.checkpoint={full}")) == 0
        assert main(["run"] + common + _sets(f"halt_after={halt}",
                                             f"output.checkpoint={half}")) == 0
        assert json.loads(half.read_text())["k"] == halt
        assert main(["resume", "--checkpoint", str(half)]) == 0
        a, b = json.loads(full.read_text()), json.loads(half.read_text())
        rows = [_rows_file(p).read_bytes() if _rows_file(p).exists() else None
                for p in (full, half)]
    assert a["k"] == b["k"] == N
    for key in ("state", "rng"):
        assert a[key] == b[key], key
    # the kmd history lives in the rows file, not in the state
    assert rows[0] == rows[1] and (rows[0] is not None) == (name == "kmd")


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SEEDED_GUARD)), n=st.integers(2, 8),
       seed=st.integers(0, 2 ** 16), steps=st.integers(1, 15))
def test_every_step_stays_on_the_simplex(name, n, seed, steps):
    with tempfile.TemporaryDirectory() as tmp:
        config = load_config(None, [f"data.grid.n={n}", f"seed={seed}",
                                    *_method_args(Path(tmp), n)[name]])
        run = cli.METHODS[config["method"]](config)
    state = run.state
    for _ in range(steps):
        state = run.step(state)
        for r in (state.r, state.r_avg):
            assert np.all(np.isfinite(r)) and np.all(r >= 0)
            assert abs(r.sum() - 1.0) <= 1e-9


# numbers up to the extremes the rules allow, for each rule's sign
_TINY_TO_HUGE = [1e-300, 1e-150, 1e-10, 0.001, 0.5, 1, 2, 25, 1e10, 1e150, 1e200,
                 1e300, 1.7e308]
_ANY_NUMBER = st.one_of(st.sampled_from(_TINY_TO_HUGE + [0, -1, -1e200, -1.7e308]),
                        st.floats(-1e308, 1e308))
_POSITIVE = st.one_of(st.sampled_from(_TINY_TO_HUGE),
                      st.floats(1e-308, 1e308, exclude_min=True))
# through -C/gamma = 0 and -C/gamma = -inf off the zero diagonal
_GAMMA = st.one_of(st.sampled_from([1e-300, 1e-150, 1e-10, 5e-5, 1e-2, 1, 1e10,
                                    1e150, 1e300]),
                   st.floats(1e-300, 1e300))
_TOL = st.one_of(st.sampled_from([0, 1e-300, 1e-9, 1, 1e300]), st.floats(0, 1e300))
_COST_P = st.one_of(st.sampled_from([1, 2, 10, 2000, 1e300, 1.7e308]),
                    st.floats(1, 1e308))


@st.composite
def _schema_valid_sets(draw):
    """--set items of a config SCHEMA accepts: a stream method at N <= 4 and
    n <= 8, with its numbers anywhere in their rules' ranges."""
    method = draw(st.sampled_from(["linear_kmd", "kmd", "sinkhorn_sgd", "lp_sgd"]))
    lo, hi = sorted([draw(_ANY_NUMBER, label="lo"), draw(_ANY_NUMBER, label="hi")])
    if lo == hi:
        hi = draw(st.sampled_from([math.nextafter(lo, math.inf), lo + 1, 1.7e308]))
    kernel = {"family": "linear", "param": 0, "r_sq": None}
    if draw(st.booleans(), label="set r_sq"):
        kernel["r_sq"] = draw(_POSITIVE, label="r_sq")
    if method == "kmd" and draw(st.booleans(), label="rbf"):
        kernel.update(family="rbf", param=draw(_POSITIVE, label="param"))
    return [f"method={method}", f"N={draw(st.integers(1, 4), label='N')}",
            f"data.grid.n={draw(st.integers(2, 8), label='n')}",
            f"data.grid.lo={lo!r}", f"data.grid.hi={hi!r}",
            f"data.law.mu0={draw(_ANY_NUMBER, label='mu0')!r}",
            f"data.law.sigma0_sq={draw(_POSITIVE, label='sigma0_sq')!r}",
            f"data.law.rate={draw(_POSITIVE, label='rate')!r}",
            f"cost.p={draw(_COST_P, label='p')!r}",
            f"cost.normalize={json.dumps(draw(st.booleans(), label='normalize'))}",
            f"kernel={json.dumps(kernel)}",
            f"eta_scale={draw(_POSITIVE, label='eta_scale')!r}",
            f"baseline.gamma={draw(_GAMMA, label='gamma')!r}",
            f"baseline.inner_iters={draw(st.integers(1, 8), label='inner_iters')}",
            f"baseline.inner_tol={draw(_TOL, label='inner_tol')!r}",
            f"baseline.schedule={draw(st.sampled_from(baselines.SCHEDULES))}",
            f"baseline.stepper={draw(st.sampled_from(baselines.STEPPERS))}",
            f"baseline.stepsize={draw(_POSITIVE, label='stepsize')!r}",
            "checkpoint_every=2"]


@settings(max_examples=60, deadline=None)
@given(sets=_schema_valid_sets())
# the cost's sup-norm is subnormal, so L is 0 and the stepsize divides by it
@example(sets=["method=linear_kmd", "N=1", "data.grid.n=2", "data.grid.lo=1e-300",
               "data.grid.hi=1.0000000000000002e-300", "cost.p=1"])
# the truth has mass on the grid, but a draw of sigma ~ 1e-300 has none
@example(sets=["method=lp_sgd", "N=2", "data.grid.n=3", "data.grid.lo=-1",
               "data.grid.hi=0", "data.law.mu0=0", "data.law.sigma0_sq=1e16",
               "data.law.rate=1e300"])
# w2_to_truth on a grid of span 1e300 overflows
@example(sets=["method=sinkhorn_sgd", "N=3", "data.grid.n=7", "data.grid.lo=0",
               "data.grid.hi=1e300", "data.law.mu0=1e150", "data.law.rate=1e-300",
               "cost.p=1", "baseline.inner_iters=5", "checkpoint_every=2"])
# a euclidean step to |v| past 2**53, where no index of the simplex
# projection's test passes and it divided by 0
@example(sets=["method=lp_sgd", "N=1", "data.grid.n=6", "data.grid.lo=1e-300",
               "data.grid.hi=1", "data.law.mu0=1e-300", "data.law.sigma0_sq=1e-300",
               "data.law.rate=1e-300", "cost.p=1", "baseline.schedule=constant",
               "baseline.stepper=euclidean", "baseline.stepsize=2.8308340514897588e+16"])
def test_every_schema_valid_run_exits_0_or_with_one_line_naming_a_key(sets):
    with tempfile.TemporaryDirectory() as tmp:
        _exits_0_or_with_one_line(
            ["run"] + _sets(*sets, f"output.report={Path(tmp) / 'r.csv'}"))


def _exits_0_or_with_one_line(argv, names_a_key=True) -> bool:
    """Whether main(argv) exits 0; otherwise it must exit 2 with one
    `numerical abort:` line or 1 with one `config error:` line, which, when
    names_a_key, names a SCHEMA key as key=value or key must. In process, so
    a numpy RuntimeWarning fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    err = err.getvalue()
    if rc == 0:
        assert "error" not in err and "abort" not in err
        return True
    assert err.count("\n") == 1 and err.endswith("\n"), err
    if rc == 2:
        assert err.startswith("numerical abort: "), err
        return False
    assert rc == 1 and err.startswith("config error: "), err
    assert not names_a_key or any(f"{key}=" in err or f"{key} must" in err
                                  for key in cli.SCHEMA), err
    return False


@st.composite
def _schema_valid_finite_md_cases(draw):
    """(gen-data sets, run sets, eval sets): a corpus of 1-4 measures that
    gen-data draws at n <= 8 with numbers anywhere in their rules' ranges,
    and a finite_md run on it, with or without data.weights, halted half of
    the time; eval takes eval.gap_holdout, the key it may override."""
    # half of the grids and costs at a desk scale, so that most runs step
    ends = st.one_of(_ANY_NUMBER, st.floats(-10.0, 10.0))
    lo, hi = sorted([draw(ends, label="lo"), draw(ends, label="hi")])
    if lo == hi:
        hi = draw(st.sampled_from([math.nextafter(lo, math.inf), lo + 1, 1.7e308]))
    count = draw(st.integers(1, 4), label="count")
    gen = [f"data.count={count}", f"data.grid.n={draw(st.integers(2, 8), label='n')}",
           f"data.grid.lo={lo!r}", f"data.grid.hi={hi!r}",
           f"data.law.mu0={draw(_ANY_NUMBER, label='mu0')!r}",
           f"data.law.sigma0_sq={draw(_POSITIVE, label='sigma0_sq')!r}",
           f"data.law.rate={draw(_POSITIVE, label='rate')!r}",
           f"seed={draw(st.integers(0, 2 ** 16), label='seed')}"]
    N = draw(st.integers(1, 6), label="N")
    run = ["method=finite_md", "data.kind=finite", f"N={N}",
           f"checkpoint_every={draw(st.integers(1, N), label='every')}",
           f"cost.p={draw(st.one_of(_COST_P, st.just(2)), label='p')!r}",
           f"cost.normalize={json.dumps(draw(st.booleans(), label='normalize'))}",
           f"eta_scale={draw(_POSITIVE, label='eta_scale')!r}"]
    if draw(st.booleans(), label="set weights"):
        weights = draw(st.lists(st.one_of(st.sampled_from([0, 1, 1e-300, 1e300]),
                                          st.floats(0, 1e308)),
                                min_size=count, max_size=count), label="weights")
        run.append(f"data.weights={json.dumps(weights)}")
    if N > 1 and draw(st.booleans(), label="halt"):
        run.append(f"halt_after={draw(st.integers(1, N - 1), label='halt_after')}")
    return gen, run, [f"eval.gap_holdout={draw(st.integers(0, 2), label='holdout')}"]


@settings(max_examples=60, deadline=None)
@given(case=_schema_valid_finite_md_cases())
# a weight of 1e308 and another of 1e308 sum past the float range
@example(case=(["data.count=2", "data.grid.n=3", "seed=1"],
               ["method=finite_md", "data.kind=finite", "N=2", "halt_after=1",
                "data.weights=[1e308, 1e308]"], ["eval.gap_holdout=1"]))
def test_every_schema_valid_finite_md_run_resume_and_eval_exit_0_or_with_one_line(case):
    gen, run, evaluate = case
    with tempfile.TemporaryDirectory() as tmp:
        corpus, ckpt = Path(tmp) / "corpus.csv", Path(tmp) / "state.json"
        if not _exits_0_or_with_one_line(
                ["gen-data"] + _sets(*gen, f"data.path={corpus}")):
            return
        # the corpus's header gives the run its grid; gen[-1] is the seed
        if not _exits_0_or_with_one_line(
                ["run"] + _sets(gen[-1], *run, f"data.path={corpus}",
                                f"output.checkpoint={ckpt}",
                                f"output.report={Path(tmp) / 'r.csv'}")):
            return
        # eval's complaint of no score to take names eval.gap_holdout >= 1
        _exits_0_or_with_one_line(["eval", "--checkpoint", str(ckpt),
                                   *_sets(*evaluate)], names_a_key=False)
        payload = json.loads(ckpt.read_text())
        if payload["k"] < payload["config"]["N"]:
            _exits_0_or_with_one_line(["resume", "--checkpoint", str(ckpt)])


# a history kernel; halt_after=1 makes a guard that stops firing fail after
# one step, not run on
_RBF_HALTED = ('kernel={"family": "rbf", "param": 0.001, "r_sq": 25.0}',
               "halt_after=1")


def test_kmd_history_past_physical_memory_is_refused(tmp_path, capsys):
    ckpt = tmp_path / "state.json"
    N = 10 ** 12
    assert main(["run"] + _sets("method=kmd", f"N={N}", *_RBF_HALTED,
                                f"output.checkpoint={ckpt}")) == 1
    err = capsys.readouterr().err
    # 2 N n float64 at the default grid size n = 100
    assert err.startswith("config error: ") and f"{2 * N * 100 * 8} bytes" in err
    assert not ckpt.exists()
    # the linear kernel's dual is theta, n^2 float64 at any N
    assert main(["run"] + _sets("method=kmd", f"N={N}", "halt_after=1",
                                f"output.checkpoint={ckpt}")) == 0
    assert "theta" in json.loads(ckpt.read_text())["state"]
    assert not _rows_file(ckpt).exists()


def test_kmd_history_peak_past_physical_memory_is_refused(monkeypatch, capsys):
    # the 2 N n float64 of the history fit, the 3x peak while it doubles does not
    need = 2 * 10 * 8 * 8
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * need}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    assert main(["run"] + _sets("method=kmd", "N=10", "data.grid.n=8",
                                *_RBF_HALTED)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{need} bytes" in err


def _readme_cli_commands():
    """The commands of the README's CLI block, continuation lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").split("\n")
             if line.strip() and not line.startswith("#")]
    return [shlex.split(line) for line in lines]


def test_the_readme_cli_block_runs(tmp_path, monkeypatch):
    commands = _readme_cli_commands()
    assert commands and all(c[0] == "barystream" for c in commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(command[1:]) == 0, " ".join(command)


def test_the_benchmark_tracer_sees_checkpoint_io(tmp_path):
    # perfbench's traced run wraps cli._atomic_write_json and cli.json.load by
    # name and reads their arguments; in a fresh interpreter, so no wrapper
    # leaks into other tests
    repo = Path(cli.__file__).parents[2]
    script = f"""
import json, sys
sys.path.insert(0, {str(repo / "perfbench")!r})
from barystream import cli
import tracer
t = tracer.Tracer()
t.install()
sets = {_sets("method=kmd", 'kernel={"family": "rbf", "param": 0.001, "r_sq": 25.0}',
              "cost.normalize=true", "data.grid.n=8", "N=40", "checkpoint_every=10",
              f"output.checkpoint={tmp_path / 'state.json'}")!r}
ckpt = {str(tmp_path / "state.json")!r}
assert cli.main(["run", *sets, "--set", "halt_after=20"]) == 0
assert cli.main(["resume", "--checkpoint", ckpt]) == 0
assert cli.main(["eval", "--checkpoint", ckpt]) == 0
print(json.dumps({{"missing": t.missing, "counters": t.counters}}))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().split("\n")[-1])
    assert seen["missing"] == {}
    counters = seen["counters"]
    assert counters["mb_written"] > 0 and counters["mb_read"] > 0
    assert counters["history_len"] == 40
