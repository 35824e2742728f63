import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barystream.dual_core import (
    CostMatrix,
    NumericalAbort,
    SolverError,
    logsumexp,
    squared_distance_cost,
    wasserstein_1d,
)
from barystream.kmd import (
    Kernel,
    KmdConfig,
    KmdState,
    LinearKmdState,
    _History,
    _saddle_update,
    f_eval,
    kernel_eval,
    kernel_vec,
    kmd_run,
    kmd_step,
    linear_kmd_run,
    linear_kmd_step,
)
from barystream.measures import (
    DiscreteMeasure,
    GaussianParamLaw,
    Grid1D,
    MeasureStream,
    normalize,
)

C2 = CostMatrix.from_entries([[0.0, 1.0], [1.0, 0.0]])


def rand_simplex(rng, n):
    return normalize(rng.random(n)).weights


def test_kernel_self_values():
    rng = np.random.default_rng(0)
    x = rand_simplex(rng, 6)
    assert abs(kernel_eval(Kernel.rbf(1e-3, 25.0), x, x) - 1.0) < 1e-15
    assert abs(kernel_eval(Kernel.diffusion(1e3, 25.0), x, x) - 1.0) < 1e-12
    lin = kernel_eval(Kernel.linear(), x, x)
    assert 0 < lin <= 1.0


def test_kernel_rbf_known_value():
    # two points at squared distance 1
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 0.5, 0.5])
    d2 = float(((x - y) ** 2).sum())
    k = kernel_eval(Kernel.rbf(1e-3, 25.0), x, y)
    assert abs(k - math.exp(-1e-3 * d2)) < 1e-15


def test_kernel_diffusion_orthogonal_masses():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    t = 2.0
    k = kernel_eval(Kernel.diffusion(t, 25.0), e1, e2)
    assert abs(k - math.exp(-(math.pi ** 2) / (4 * t))) < 1e-14


def test_kernel_symmetry_and_psd():
    rng = np.random.default_rng(1)
    pts = np.stack([rand_simplex(rng, 8) for _ in range(20)])
    for kern in (Kernel.rbf(0.5, 25.0), Kernel.diffusion(3.0, 25.0),
                 Kernel.linear()):
        gram = np.stack([kernel_vec(kern, p, pts) for p in pts])
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        assert np.linalg.eigvalsh(gram).min() >= -1e-8


def test_kernel_validation():
    with pytest.raises(SolverError):
        Kernel(family="poly")
    with pytest.raises(SolverError):
        Kernel.rbf(0.0, 25.0)
    with pytest.raises(SolverError):
        Kernel(family="rbf", param=1.0).resolved_r_sq(C2)


def test_linear_r_sq_computed():
    assert Kernel.linear().resolved_r_sq(C2) == 2 * 4 * 1.0


def test_f_eval_empty_history():
    state = KmdState.cold_start(4)
    np.testing.assert_array_equal(
        f_eval(state, Kernel.rbf(1.0, 25.0), np.full(4, 0.25), 1.0),
        np.zeros(4))


def test_f_eval_single_entry_rbf():
    state = KmdState.cold_start(3)
    c1 = np.array([0.2, 0.3, 0.5])
    beta1 = np.array([0.4, -2.0, 0.1])
    state.history.append(beta1, c1)
    out = f_eval(state, Kernel.rbf(2.0, 25.0), c1, 1.0)
    np.testing.assert_allclose(out, np.clip(beta1, -1.0, 1.0), atol=1e-15)


def test_f_eval_linear_matches_theta():
    rng = np.random.default_rng(2)
    state = KmdState.cold_start(5)
    theta = np.zeros((5, 5))
    for _ in range(3):
        beta = rng.normal(size=5)
        c = rand_simplex(rng, 5)
        state.history.append(beta, c)
        theta += np.outer(beta, c)
    probe = rand_simplex(rng, 5)
    np.testing.assert_allclose(
        f_eval(state, Kernel.linear(), probe, 1e9), theta @ probe, atol=1e-12)


def test_kmd_first_step_zero_diagonal():
    # cold start: f = 0, zero-diagonal cost gives g = 0, r stays uniform
    cfg = KmdConfig.for_run(Kernel.rbf(1.0, 25.0), C2, N=10)
    state = KmdState.cold_start(2)
    c = np.array([0.7, 0.3])
    s1 = kmd_step(state, cfg, c, C2)
    np.testing.assert_allclose(s1.r, [0.5, 0.5], atol=1e-15)
    # first-step beta: J_i = i, so pattern = r = (1/2, 1/2)
    eta = cfg.stepsize(1)
    np.testing.assert_allclose(
        s1.history.betas[0],
        eta * cfg.beta_scale * (np.array([0.5, 0.5]) - c), atol=1e-15)


def test_kmd_two_step_hand_trace():
    cfg = KmdConfig.for_run(Kernel.rbf(1.0, 25.0), C2, N=2)
    eta = cfg.stepsize(1)
    state = KmdState.cold_start(2)
    c1 = np.array([0.7, 0.3])
    c2 = np.array([0.2, 0.8])
    s1 = kmd_step(state, cfg, c1, C2)
    beta1 = eta * cfg.beta_scale * (np.array([0.5, 0.5]) - c1)
    np.testing.assert_allclose(s1.history.betas[0], beta1, atol=1e-15)
    r1 = s1.r  # the step advances s1 in place
    s2 = kmd_step(s1, cfg, c2, C2)
    # hand trace of step 2
    kv = math.exp(-1.0 * float(((c2 - c1) ** 2).sum()))
    f = np.clip(beta1 * kv, -cfg.clip_bound, cfg.clip_bound)
    scores = -C2.entries - f[None, :]
    J = scores.argmax(axis=1)
    g = -scores.max(axis=1)
    logits = -cfg.alpha * eta * g
    r_expected = np.exp(logits - logits.max())
    r_expected /= r_expected.sum()
    np.testing.assert_allclose(s2.r, r_expected, rtol=1e-12)
    pattern = np.bincount(J, weights=r1, minlength=2)
    np.testing.assert_allclose(s2.history.betas[1],
                               eta * cfg.beta_scale * (pattern - c2),
                               rtol=1e-12)


def degenerate_stream(c0, seed=0):
    return MeasureStream.finite([c0], [1.0], seed=seed)


def test_kmd_run_single_iteration_average():
    g = Grid1D.uniform(0, 1, 3)
    C = squared_distance_cost(g, 2)
    c0 = DiscreteMeasure(np.array([0.6, 0.3, 0.1]), g)
    r_avg, state = kmd_run(degenerate_stream(c0), Kernel.rbf(1.0, 25.0), C, N=1)
    np.testing.assert_array_equal(r_avg, state.r)


def test_kmd_run_degenerate_convergence():
    g = Grid1D.uniform(0, 1, 3)
    C = squared_distance_cost(g, 2)
    c0 = DiscreteMeasure(np.array([0.6, 0.3, 0.1]), g)
    scores = []
    for N in (100, 1000, 10000):
        r_avg, _ = kmd_run(degenerate_stream(c0), Kernel.rbf(1.0, 25.0), C, N)
        scores.append(wasserstein_1d(normalize(r_avg, g), c0, g, p=1.0))
    assert scores[2] < scores[1] < scores[0]


def test_kmd_run_reproducible():
    g = Grid1D.uniform(0, 1, 4)
    C = squared_distance_cost(g, 2)
    law = GaussianParamLaw(0.5, 0.1, 4.0)
    a, _ = kmd_run(MeasureStream.gaussian(law, g, seed=5),
                   Kernel.diffusion(10.0, 25.0), C, N=50)
    b, _ = kmd_run(MeasureStream.gaussian(law, g, seed=5),
                   Kernel.diffusion(10.0, 25.0), C, N=50)
    np.testing.assert_array_equal(a, b)


def test_online_stepsize_schedule():
    cfg = KmdConfig.for_run(Kernel.rbf(1.0, 25.0), C2, N=100, mode="dynamic")
    assert cfg.stepsize(1) / cfg.stepsize(4) == 2.0


def test_online_single_step_average():
    g = Grid1D.uniform(0, 1, 3)
    C = squared_distance_cost(g, 2)
    c0 = DiscreteMeasure(np.array([0.6, 0.3, 0.1]), g)
    r_avg, state = kmd_run(degenerate_stream(c0), Kernel.rbf(1.0, 25.0), C,
                           N=1, mode="dynamic")
    np.testing.assert_allclose(r_avg, state.r, atol=1e-15)
    # the dynamic average weighs each iterate by its stepsize
    cfg = KmdConfig.for_run(Kernel.rbf(1.0, 25.0), C, N=1, mode="dynamic")
    assert state.avg_den == cfg.stepsize(1) != 1.0


def test_online_degenerate_convergence():
    g = Grid1D.uniform(0, 1, 3)
    C = squared_distance_cost(g, 2)
    c0 = DiscreteMeasure(np.array([0.6, 0.3, 0.1]), g)
    scores = []
    for N in (100, 10000):
        r_avg, _ = kmd_run(degenerate_stream(c0), Kernel.rbf(1.0, 25.0), C, N,
                           mode="dynamic")
        scores.append(wasserstein_1d(normalize(r_avg, g), c0, g, p=1.0))
    assert scores[1] < scores[0]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       mode=st.sampled_from(["constant", "dynamic"]),
       unit_box=st.booleans(),
       lo=st.floats(-10.0, 10.0), width=st.floats(0.5, 20.0))
def test_linear_equivalence_over_steps(n, seed, mode, unit_box, lo, width):
    # the matrix form and the beta history of the linear kernel take the same
    # shared step through their own dual; both must give the same iterates
    g = Grid1D.uniform(lo, lo + width, n)
    C = squared_distance_cost(g, 2)
    law = GaussianParamLaw(lo + width / 2, (width / 4) ** 2, 8.0 / width)
    N = 50
    cfg = KmdConfig.for_run(Kernel.linear(), C, N=N, mode=mode)
    if unit_box:
        # the box at 1 is below |C|_inf = width^2 on most grids drawn here,
        # where it is active
        cfg = dataclasses.replace(cfg, clip_bound=1.0)
    s_kernel = MeasureStream.gaussian(law, g, seed=seed)
    s_matrix = MeasureStream.gaussian(law, g, seed=seed)
    ks = KmdState.cold_start(n)
    ls = LinearKmdState.cold_start(n)
    rng = np.random.default_rng(seed)
    probes = [rand_simplex(rng, n) for _ in range(5)]
    for _ in range(N):
        ks = kmd_step(ks, cfg, s_kernel.sample().weights, C)
        ls = linear_kmd_step(ls, cfg, s_matrix.sample().weights, C)
        np.testing.assert_allclose(ks.r, ls.r, rtol=1e-9, atol=1e-15)
        # the matrix map reproduces the beta-history dual on fresh probes
        for probe in probes:
            np.testing.assert_allclose(ls.dual(cfg, probe), ks.dual(cfg, probe),
                                       rtol=1e-9, atol=1e-9 * C.inf_norm)


def test_linear_theta_update_norm_bound():
    n = 6
    g = Grid1D.uniform(0, 1, n)
    C = squared_distance_cost(g, 2)
    cfg = KmdConfig.for_run(Kernel.linear(), C, N=50)
    state = LinearKmdState.cold_start(n)
    rng = np.random.default_rng(4)
    for k in range(1, 51):
        c = rand_simplex(rng, n)
        theta = state.theta.copy()  # the step updates theta in place
        new = linear_kmd_step(state, cfg, c, C)
        delta = np.linalg.norm(new.theta - theta)
        # ||outer(beta, c)||_F = ||beta|| ||c||, ||pattern - c|| <= 2
        assert delta <= cfg.stepsize(k) * cfg.beta_scale * 2 * np.linalg.norm(c) + 1e-9
        state = new


def test_beta_recursion_incremental_equals_full():
    n = 5
    g = Grid1D.uniform(0, 1, n)
    C = squared_distance_cost(g, 2)
    kern = Kernel.diffusion(5.0, 25.0)
    cfg = KmdConfig.for_run(kern, C, N=200)
    law = GaussianParamLaw(0.5, 0.04, 5.0)
    stream = MeasureStream.gaussian(law, g, seed=6)
    rng = np.random.default_rng(7)
    probe = rand_simplex(rng, n)
    state = KmdState.cold_start(n)
    incremental = np.zeros(n)
    for _ in range(200):
        state = kmd_step(state, cfg, stream.sample().weights, C)
        k_new = kernel_eval(kern, probe, state.history.samples[-1])
        incremental = incremental + state.history.betas[-1] * k_new
        full_raw = kernel_vec(kern, probe, state.history.samples) \
            @ state.history.betas
        np.testing.assert_allclose(incremental, full_raw, atol=1e-12)


def test_gradient_norm_bounds_on_run():
    n = 6
    g = Grid1D.uniform(0, 1, n)
    C = squared_distance_cost(g, 2)
    kern = Kernel.rbf(0.5, 25.0)
    cfg = KmdConfig.for_run(kern, C, N=100)
    law = GaussianParamLaw(0.5, 0.04, 5.0)
    stream = MeasureStream.gaussian(law, g, seed=8)
    state = KmdState.cold_start(n)
    for _ in range(100):
        c = stream.sample().weights
        f = f_eval(state, kern, c, cfg.clip_bound)
        assert np.abs(f).max() <= C.inf_norm + 1e-15
        gvec = -np.max(-C.entries - f[None, :], axis=1)
        assert np.abs(gvec).max() <= 2 * C.inf_norm + 1e-12
        state = kmd_step(state, cfg, c, C)
        # dual-step per-coordinate bound: |H_t| <= 2 kappa scaled by eta*beta
        beta_k = state.history.betas[-1]
        eta = cfg.stepsize(state.k)
        assert np.abs(beta_k).sum() <= eta * cfg.beta_scale * 2 + 1e-12
        assert abs(state.r.sum() - 1.0) <= 1e-12
        assert abs(state.r_avg.sum() - 1.0) <= 1e-10


def test_memory_contract_and_cap():
    g = Grid1D.uniform(0, 1, 3)
    C = squared_distance_cost(g, 2)
    c0 = DiscreteMeasure(np.array([0.6, 0.3, 0.1]), g)
    _, state = kmd_run(degenerate_stream(c0), Kernel.rbf(1.0, 25.0), C, N=40)
    assert state.history.size == 40
    assert state.history.betas.shape == (40, 3)
    assert state.history.samples.shape == (40, 3)

    _, lin = linear_kmd_run(degenerate_stream(c0), C, N=40)
    assert lin.theta.shape == (3, 3)


@pytest.mark.parametrize("N", [17, 1024, 1025])
def test_history_peak_is_within_the_memory_guard_count(N):
    # the CLI refuses a kmd run when 3 * 2 N n float64 exceed physical memory:
    # while the buffers double, the old, the zeros and the new one are all held
    n = 100
    row = np.ones(n)
    tracemalloc.start()
    try:
        history = _History(n)
        for _ in range(N):
            history.append(row, row)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 * N * n * 8


def test_run_rejects_bad_n():
    g = Grid1D.uniform(0, 1, 3)
    C = squared_distance_cost(g, 2)
    c0 = DiscreteMeasure(np.array([0.6, 0.3, 0.1]), g)
    with pytest.raises(SolverError):
        kmd_run(degenerate_stream(c0), Kernel.rbf(1.0, 25.0), C, N=0)
    with pytest.raises(SolverError):
        linear_kmd_run(degenerate_stream(c0), C, N=0)


@pytest.mark.parametrize("key", ["mode"])
def test_for_run_rejects_an_unknown_choice(key):
    with pytest.raises(SolverError, match="'foo'"):
        KmdConfig.for_run(Kernel.linear(), C2, 10, **{key: "foo"})


def _three_pass_saddle_update(log_r, r, f, C, eta_k, config, k):
    """_saddle_update's arithmetic before its one-pass form, the argmax and
    max of -C - f, then the shift, check and softmax the step took before
    `set_log_r`: (new_log_r, pattern, new_r)."""
    scores = -C.entries - f[None, :]
    J = np.argmax(scores, axis=1)
    g = -np.max(scores, axis=1)
    pattern = np.bincount(J, weights=r, minlength=C.n)
    new_log_r = log_r - eta_k * config.alpha * g
    new_log_r -= new_log_r.max()
    if not np.all(np.isfinite(new_log_r)):
        raise NumericalAbort(f"non-finite primal iterate in KMD step at k={k}")
    return new_log_r, pattern, np.exp(new_log_r - logsumexp(new_log_r))


def _one_pass_saddle_update(log_r, r, f, C, eta_k, config, k):
    """_saddle_update, then set_log_r on a state at step k - 1, as _step
    runs them: (new_log_r, pattern, new_r)."""
    new_log_r, pattern = _saddle_update(log_r, r, f, C, eta_k, config)
    state = LinearKmdState(log_r=log_r.copy(), theta=np.zeros((C.n, C.n)),
                           avg_num=np.zeros(C.n), avg_den=0.0, k=k - 1, r=r)
    state.set_log_r(new_log_r, "primal iterate in KMD step")
    return state.log_r, pattern, state.r


# small values that tie and cancel: f_j = -C_ij makes a score exactly 0
TIE_VALUES = [0.0, 0.5, 1.0, 2.0, 3.0]
F_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, -2.0, -3.0, 5e-324, -5e-324]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 7),
       eta_k=st.one_of(st.sampled_from([1e-3, 1.0, 1e308]),
                       st.floats(1e-9, 1e9)))
def test_one_pass_saddle_update_matches_three_passes(data, n, eta_k):
    entries = data.draw(st.lists(st.one_of(st.sampled_from(TIE_VALUES),
                                           st.floats(0.0, 10.0)),
                                 min_size=n * n, max_size=n * n), label="C")
    C = CostMatrix.from_entries(np.array(entries).reshape(n, n))
    f = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(F_VALUES + [np.nan, np.inf, -np.inf]),
                  st.floats(-10.0, 10.0)), min_size=n, max_size=n), label="f"))
    # a state's log_r never holds -0.0 (a step's x - y is -0.0 only for x = -0.0),
    # and only there could the sign of a zero g_i show
    log_r = np.array(data.draw(st.lists(st.floats(-50.0, 0.0).map(lambda x: x + 0.0),
                                        min_size=n, max_size=n), label="log_r"))
    r = np.exp(log_r - logsumexp(log_r))
    config = KmdConfig(kernel=Kernel.linear(), alpha=2.0 * math.log(n),
                       beta_scale=1.0, clip_bound=1.0, mode="constant",
                       eta=eta_k, L=1.0)
    outcomes = []
    for update in (_one_pass_saddle_update, _three_pass_saddle_update):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                outcomes.append(update(log_r, r, f, C, eta_k, config, 3))
        except NumericalAbort as exc:
            outcomes.append(str(exc))
    new, old = outcomes
    if isinstance(old, str):
        assert new == old == "non-finite primal iterate in KMD step at k=3"
        return
    for a, b in zip(new, old):
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
