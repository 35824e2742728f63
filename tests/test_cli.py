import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barystream import baselines, cli
from barystream.cli import (
    ConfigError,
    _decode_matrix,
    _encode_matrix,
    cmd_run,
    config_hash,
    load_config,
    main,
)


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
    assert payload["k"] == 20
    assert payload["method"] == "linear_kmd"


def test_run_rejects_finite_md_on_gaussian():
    assert main(["run", "--set", "method=finite_md", "--set", "N=5"]) == 1


def test_certify_subcommand():
    assert main(["certify", "--instances", "5", "--seed", "3"]) == 0
    assert main(["certify", "--instances", "0"]) == 0


@pytest.mark.parametrize("args", [["--n-lo", "6", "--n-hi", "3"],
                                  ["--instances", "-3"],
                                  ["--n-hi", "65"],
                                  ["--n-lo", "-2", "--n-hi", "-1"]])
def test_certify_rejects_a_bad_range(args, capsys):
    assert main(["certify", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "passed" not in captured.out


def test_eval_subcommand(tmp_path, capsys):
    ckpt = tmp_path / "state.json"
    main(["run", "--set", "N=10", "--set", "data.grid.n=10",
          "--set", f"output.checkpoint={ckpt}"])
    rc = main(["eval", "--set", "data.grid.n=10", "--checkpoint", str(ckpt)])
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


def test_checkpoint_stores_matrices_as_bytes(tmp_path):
    _, ckpt = _run_small(tmp_path, "--set", "method=kmd", "--set",
                         'kernel={"family": "rbf", "param": 0.001, "r_sq": 25.0}')
    payload = json.loads(ckpt.read_text())
    assert payload["version"] == cli.CHECKPOINT_VERSION == 2
    state = payload["state"]
    assert state["betas"]["shape"] == state["samples"]["shape"] == [20, 8]
    assert isinstance(state["log_r"], list)
    assert isinstance(state["avg_num"], list)
    hist = cli._restore_state(payload).history
    assert hist.size == 20
    assert np.array_equal(hist.samples, _decode_matrix(state["samples"]))


@pytest.mark.parametrize("command", ["resume", "eval"])
def test_version_1_checkpoint_is_rejected(tmp_path, capsys, command):
    _, ckpt = _run_small(tmp_path)
    payload = json.loads(ckpt.read_text())
    payload["version"] = 1
    ckpt.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, "--checkpoint", str(ckpt)]) == 1
    assert "unsupported checkpoint version 1" in capsys.readouterr().err


def test_eval_uses_the_checkpoint_config(tmp_path, capsys):
    report, ckpt = _run_small(tmp_path, n=20)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 0
    last = report.read_text().strip().split("\n")[-1].split(",")
    assert capsys.readouterr().out.strip() == f"w2_to_truth={last[1]}"
    # flags still apply on top of the checkpoint's config
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--set", "data.grid.n=12"]) == 1


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
    calls = []
    sinkhorn_gradient = baselines.sinkhorn_gradient

    def flaky(*args, **kwargs):
        grad, _unstable = sinkhorn_gradient(*args, **kwargs)
        calls.append(None)
        return grad, len(calls) % 2 == 1

    monkeypatch.setattr(baselines, "sinkhorn_gradient", flaky)
    extra = ["--set", "method=sinkhorn_sgd", "--set", "baseline.inner_iters=5",
             "--set", "halt_after=10"]
    _, ckpt = _run_small(tmp_path, *extra)
    assert json.loads(ckpt.read_text())["state"]["unstable"] == 5
    assert ("warning: 5 of 10 Sinkhorn inner solves were unstable"
            in capsys.readouterr().err)
    assert main(["resume", "--checkpoint", str(ckpt)]) == 0
    assert json.loads(ckpt.read_text())["state"]["unstable"] == 10
    assert ("warning: 10 of 20 Sinkhorn inner solves were unstable"
            in capsys.readouterr().err)


def test_stable_sinkhorn_run_prints_no_warning(tmp_path, capsys):
    _run_small(tmp_path, "--set", "method=sinkhorn_sgd",
               "--set", "baseline.inner_iters=5")
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("method", "adam"),
    ("stepsize_mode", "foo"),
    ("clip", "foo"),
    ("data.kind", "foo"),
    ("baseline.stepper", "foo"),
    ("baseline.schedule", "foo"),
    ("N", "2.5"),
    ("halt_after", "-3"),
    ("halt_after", "0"),
    ("checkpoint_every", "0"),
])
def test_bad_config_value_is_a_config_error(tmp_path, capsys, key, value):
    report = tmp_path / "report.csv"
    assert main(["run", "--set", "N=4", "--set", "data.grid.n=6",
                 "--set", f"output.report={report}",
                 "--set", f"{key}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not report.exists()


@pytest.mark.parametrize("value", ["-3", "0", "abc"])
def test_resume_rejects_a_bad_halt_after(tmp_path, capsys, value):
    _, ckpt = _run_small(tmp_path, "--set", "halt_after=10")
    capsys.readouterr()
    assert main(["resume", "--checkpoint", str(ckpt),
                 "--set", f"halt_after={value}"]) == 1
    assert "halt_after" in capsys.readouterr().err
    assert json.loads(ckpt.read_text())["k"] == 10


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
        "sinkhorn_sgd": ["method=sinkhorn_sgd", "baseline.inner_iters=30",
                         "baseline.stepsize=0.05"],
        "lp_sgd": ["method=lp_sgd", "baseline.stepsize=0.05"],
        "lp_sgd_euclidean": ["method=lp_sgd", "baseline.stepsize=0.05",
                             "baseline.stepper=euclidean"],
    }


def _sets(*items):
    return [a for item in items for a in ("--set", item)]


# r_avg and the sha256 of json.dumps(payload["state"]) after N=200 steps
# (n=8, seed=3), recorded from the code before the method table, the state
# codec and the shared run loop replaced the per-method chains and loops. The
# two lp_sgd entries were re-recorded when lp_subgradient moved from the HiGHS
# LP to the staircase dual: at steps where r or c has a mass below HiGHS's
# 1e-7 tolerance the LP's dual broke the subgradient inequality, and the
# staircase one does not
SEEDED_GUARD = {
    "finite_md": ("fe156ed31d8d10f74f51bfb4e5ea84502246a1466df61c4ec32a3a0dff867a9e",
                  [0.04624747139258638, 0.05026358264447243, 0.11819616897917236,
                   0.18677162696367908, 0.34192672091788384, 0.1407247175625001,
                   0.06525148637768098, 0.05061822516202479]),
    "kmd": ("007022378a5568cdef6d269f7356be252d23aea4f0d6cf6222a029da6e500466",
            [0.000625014099170272, 0.007566293439683009, 0.030258311033449746,
             0.021466973496984777, 0.901980264001689, 0.03296954423323988,
             0.0040240159472243655, 0.001109583748559312]),
    "kmd_dynamic": ("cca14f5e909e3cdbf8de7909f4aeb736183f57bb82a8e956672aa51ce5cf50ab",
                    [0.005850131821332614, 0.012887437424328798, 0.05767061294161781,
                     0.1932169864964062, 0.4216303132501782, 0.23862699392516348,
                     0.05333957132442007, 0.016777952816552033]),
    "linear_kmd": ("bb53c639e35fe716187fa6bf3296bc431e0e4f65178f6da18586d04e1ec641f3",
                   [0.0025078114503235133, 0.00575328880303214, 0.019775053396683083,
                    0.14128641936335165, 0.6539741945800016, 0.15092569063696415,
                    0.020073169738235048, 0.005704372031409044]),
    "sinkhorn_sgd": ("59492a73dedb96fe483f34577ab59bf8aa535567b7741163b66036f652667a13",
                     [0.026734370952663053, 0.0379598158220921, 0.07038214568318964,
                      0.16916620674537794, 0.37098155427903057, 0.2039852159570048,
                      0.08023703758014075, 0.040553652980500975]),
    "lp_sgd": ("fb7450ef778acd6dce05fb6242d6a3dbf5f51a6b580b9392f10007ecbbe9fae0",
               [2.7805062583206718e-06, 0.0004816524295967726, 0.04119106416910067,
                0.2813559411156282, 0.47051899822278587, 0.19441190757428867,
                0.011540604034647179, 0.0004970519476943676]),
    "lp_sgd_euclidean": (
        "4112a044e1cb5832c53708e8233130adbfcb73ae5beb0d9184c1e8b51d4f7395",
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
    sha, r_avg = SEEDED_GUARD[name]
    np.testing.assert_allclose(cli._restore_state(payload).r_avg, r_avg,
                               rtol=1e-12, atol=0)
    assert hashlib.sha256(json.dumps(payload["state"]).encode()).hexdigest() == sha


@pytest.mark.parametrize("name", sorted(SEEDED_GUARD))
def test_checkpoint_state_holds_no_r(tmp_path, name):
    ckpt = tmp_path / "state.json"
    assert main(["run"] + _sets("N=5", "data.grid.n=8", "seed=3",
                                f"output.checkpoint={ckpt}",
                                *_method_args(tmp_path)[name])) == 0
    state = json.loads(ckpt.read_text())["state"]
    assert "r" not in state and "log_r" in state


@pytest.mark.parametrize("name", ["finite_md", "kmd", "linear_kmd"])
def test_restored_r_is_the_carried_r(tmp_path, name):
    config = load_config(None, ["data.grid.n=8", "seed=3",
                                *_method_args(tmp_path)[name]])
    run = cli.METHODS[config["method"]].setup(config)
    state = run.state
    for _ in range(7):
        state = run.step(state)
    payload = json.loads(json.dumps({"method": name, "k": state.k,
                                     "state": cli._encode_state(state)}))
    restored = cli._restore_state(payload).r
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
    assert a["k"] == b["k"] == N
    for key in ("state", "rng", "stream"):
        assert a.get(key) == b.get(key), key


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SEEDED_GUARD)), n=st.integers(2, 8),
       seed=st.integers(0, 2 ** 16), steps=st.integers(1, 15))
def test_every_step_stays_on_the_simplex(name, n, seed, steps):
    with tempfile.TemporaryDirectory() as tmp:
        config = load_config(None, [f"data.grid.n={n}", f"seed={seed}",
                                    *_method_args(Path(tmp), n)[name]])
        run = cli.METHODS[config["method"]].setup(config)
    state = run.state
    for _ in range(steps):
        state = run.step(state)
        for r in (state.r, state.r_avg):
            assert np.all(np.isfinite(r)) and np.all(r >= 0)
            assert abs(r.sum() - 1.0) <= 1e-9


def test_kmd_checkpoint_with_a_stream_position_resumes(tmp_path):
    # v2 checkpoints written while streams had a strict corpus mode carry
    # "pos": 0 in their stream state; resume reads past it
    common = _sets("N=30", "data.grid.n=8", "seed=5", "checkpoint_every=10",
                   *_method_args(tmp_path)["kmd"])
    full, half = tmp_path / "full.json", tmp_path / "half.json"
    assert main(["run"] + common + _sets(f"output.checkpoint={full}")) == 0
    assert main(["run"] + common + _sets("halt_after=10",
                                         f"output.checkpoint={half}")) == 0
    payload = json.loads(half.read_text())
    assert "pos" not in payload["stream"]
    payload["stream"]["pos"] = 0
    half.write_text(json.dumps(payload))
    assert main(["resume", "--checkpoint", str(half)]) == 0
    a, b = json.loads(full.read_text()), json.loads(half.read_text())
    assert a["k"] == b["k"] == 30 and b["version"] == cli.CHECKPOINT_VERSION == 2
    for key in ("state", "rng", "stream"):
        assert a.get(key) == b.get(key), key


def test_kmd_history_past_physical_memory_is_refused(tmp_path, capsys):
    ckpt = tmp_path / "state.json"
    N = 10 ** 12
    assert main(["run"] + _sets("method=kmd", f"N={N}",
                                f"output.checkpoint={ckpt}")) == 1
    err = capsys.readouterr().err
    # 2 N n float64 at the default grid size n = 100
    assert err.startswith("config error: ") and f"{2 * N * 100 * 8} bytes" in err
    assert not ckpt.exists()


def test_kmd_history_peak_past_physical_memory_is_refused(monkeypatch, capsys):
    # the 2 N n float64 of the history fit, the 3x peak while it doubles does not
    need = 2 * 10 * 8 * 8
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 2 * need}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)
    assert main(["run"] + _sets("method=kmd", "N=10", "data.grid.n=8")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{need} bytes" in err
