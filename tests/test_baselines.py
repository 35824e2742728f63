import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from barystream import baselines
from barystream.baselines import (
    BaselineConfig,
    BaselineState,
    _project_simplex,
    baseline_step,
    lp_subgradient,
    run_baseline,
    sinkhorn_gradient,
)
from barystream.dual_core import (
    CostMatrix,
    SolverError,
    exact_ot,
    sinkhorn,
    squared_distance_cost,
    wasserstein_1d,
)
from barystream.measures import (
    DiscreteMeasure,
    Grid1D,
    MeasureStream,
    normalize,
    normalize_clamped,
)

C2 = CostMatrix.from_entries([[0.0, 1.0], [1.0, 0.0]])


def rand_interior_simplex(rng, n, floor=0.05):
    return normalize(rng.random(n) + floor)


def reg_cost(r, c, C, gamma):
    return sinkhorn(r, c, C, gamma, max_iter=5000, tol=1e-12).reg_value


@pytest.mark.parametrize("gamma", [1.0, 0.1])
def test_sinkhorn_gradient_finite_differences(gamma):
    rng = np.random.default_rng(0)
    n = 5
    g = Grid1D.uniform(0, 1, n)
    C = squared_distance_cost(g, 2)
    r = rand_interior_simplex(rng, n)
    c = rand_interior_simplex(rng, n)
    grad, unstable = sinkhorn_gradient(r, c, C, gamma,
                                       inner_iters=5000, inner_tol=1e-12)
    assert not unstable
    h = 1e-5
    for i in range(n - 1):
        # simplex-tangent direction e_i - e_{i+1}
        d = np.zeros(n)
        d[i], d[i + 1] = 1.0, -1.0
        rp = DiscreteMeasure(normalize(r.weights + h * d).weights, r.grid)
        rm = DiscreteMeasure(normalize(r.weights - h * d).weights, r.grid)
        fd = (reg_cost(rp, c, C, gamma) - reg_cost(rm, c, C, gamma)) / (2 * h)
        ana = grad @ d
        assert abs(fd - ana) <= 1e-4 * (1.0 + abs(ana))


def test_sinkhorn_gradient_is_centered():
    rng = np.random.default_rng(1)
    g = Grid1D.uniform(0, 1, 4)
    C = squared_distance_cost(g, 2)
    grad, _ = sinkhorn_gradient(rand_interior_simplex(rng, 4),
                                rand_interior_simplex(rng, 4), C, 0.5)
    assert abs(grad.mean()) <= 1e-12


def test_sinkhorn_gradient_identity_bound():
    # at r = c the potentials are bounded through the entropic dual
    rng = np.random.default_rng(2)
    g = Grid1D.uniform(0, 1, 5)
    C = squared_distance_cost(g, 2)
    r = rand_interior_simplex(rng, 5)
    gamma = 0.2
    grad, _ = sinkhorn_gradient(r, r, C, gamma, inner_iters=2000)
    bound = C.inf_norm - gamma * np.log(r.weights.min())
    assert np.abs(grad).max() <= bound


def test_lp_subgradient_inequality():
    # f(r') >= f(r) + <g, r' - r> for the convex map r -> L_C(r, c) = W_2^2
    rng = np.random.default_rng(3)
    g5 = Grid1D.uniform(0, 1, 5)
    interior = (g5, rand_interior_simplex(rng, 5), rand_interior_simplex(rng, 5),
                [rand_interior_simplex(rng, 5, floor=0.0).weights for _ in range(50)])
    # masses below HiGHS's 1e-7 tolerance: its LP dual broke the inequality
    # at a vertex by 1.2e-5
    g8 = Grid1D.uniform(-10, 10, 8)
    tiny = (g8, normalize_clamped([9.018e-8, 2.103e-4, 4.743e-2, 2.677e-1, 4.444e-1,
                                   2.280e-1, 1.236e-2, 4.332e-6], g8),
            normalize_clamped(np.eye(8)[4], g8), np.eye(8))
    for g, r, c, probes in (interior, tiny):
        grad = lp_subgradient(r, c, squared_distance_cost(g, 2))
        f_r = wasserstein_1d(r, c, g) ** 2
        for w in probes:
            f_rp = wasserstein_1d(DiscreteMeasure(w, g), c, g) ** 2
            assert f_rp >= f_r + grad @ (w - r.weights) - 1e-8


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), p=st.sampled_from([1.0, 2.0, 3.0]), data=st.data())
def test_lp_subgradient_matches_the_lp_dual(n, p, data):
    # with every staircase cell of mass >= 1e-3 the LP's dual is unique up to
    # a constant and HiGHS resolves it
    weights = st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)
    r = normalize(np.array(data.draw(weights)))
    c = normalize(np.array(data.draw(weights)))
    cdfs = np.concatenate([[0.0, 1.0], np.cumsum(r.weights)[:-1],
                           np.cumsum(c.weights)[:-1]])
    assume(np.diff(np.sort(cdfs)).min() >= 1e-3)
    C = squared_distance_cost(Grid1D.uniform(0, 1, n), p)
    lam = exact_ot(r, c, C).dual_lambda
    np.testing.assert_allclose(lp_subgradient(r, c, C), lam.mean() - lam,
                               rtol=0, atol=1e-9)


def test_lp_subgradient_is_centered():
    rng = np.random.default_rng(4)
    g = Grid1D.uniform(0, 1, 6)
    C = squared_distance_cost(g, 2)
    grad = lp_subgradient(rand_interior_simplex(rng, 6),
                          rand_interior_simplex(rng, 6), C)
    assert abs(grad.mean()) <= 1e-12


def test_small_gamma_gradient_agreement():
    rng = np.random.default_rng(5)
    g = Grid1D.uniform(0, 1, 5)
    C = squared_distance_cost(g, 2)
    r = rand_interior_simplex(rng, 5)
    c = rand_interior_simplex(rng, 5)
    lp = lp_subgradient(r, c, C)
    sk, unstable = sinkhorn_gradient(r, c, C, 1e-3,
                                     inner_iters=50_000, inner_tol=1e-12)
    assert not unstable
    assert np.abs(lp - sk).max() <= 0.05


def test_project_simplex():
    np.testing.assert_allclose(_project_simplex(np.array([0.2, 0.3, 0.5])),
                               [0.2, 0.3, 0.5], atol=1e-12)
    np.testing.assert_allclose(_project_simplex(np.array([5.0, 0.0])),
                               [1.0, 0.0], atol=1e-12)
    out = _project_simplex(np.array([0.1, -3.0, 2.0, 0.4]))
    assert abs(out.sum() - 1.0) <= 1e-12
    assert out.min() >= 0.0


def test_baseline_step_hand_trace_mirror():
    cfg = BaselineConfig(method="lp_sgd", schedule="constant", stepsize=0.5)
    state = BaselineState.cold_start(2)
    c = DiscreteMeasure(np.array([1.0, 0.0]))
    s1 = baseline_step(state, cfg, c, C2)
    # dual of L(r, e_0): lambda = (0, 1) up to shift; centered grad = (-.5, .5)
    logits = np.array([0.25, -0.25])
    expected = np.exp(logits) / np.exp(logits).sum()
    np.testing.assert_allclose(s1.r, expected, rtol=1e-10)
    np.testing.assert_allclose(s1.r_avg, s1.r, rtol=1e-12)
    assert s1.k == 1


@pytest.mark.parametrize("inner_iters, counted", [(1000, 0), (2, 1)])
def test_only_a_solve_stopped_at_inner_iters_counts_unconverged(
        monkeypatch, inner_iters, counted):
    # the exit residual is made to read above inner_tol: a solve whose loop
    # stopped early on its own residual still did not stop unconverged
    def residual_above_tol(*args, **kwargs):
        sol = sinkhorn(*args, **kwargs)
        return dataclasses.replace(sol, marginal_residual=1.0)

    monkeypatch.setattr(baselines, "sinkhorn", residual_above_tol)
    cfg = BaselineConfig(method="sinkhorn_sgd", gamma=0.5,
                         inner_iters=inner_iters)
    c = DiscreteMeasure(np.array([0.3, 0.7]))
    state = baseline_step(BaselineState.cold_start(2), cfg, c, C2)
    assert (state.unstable, state.unconverged) == (0, counted)


def test_baseline_step_euclidean_stays_feasible():
    cfg = BaselineConfig(method="lp_sgd", schedule="inverse_sqrt",
                         stepsize=1.0, stepper="euclidean")
    rng = np.random.default_rng(6)
    g = Grid1D.uniform(0, 1, 4)
    C = squared_distance_cost(g, 2)
    state = BaselineState.cold_start(4)
    for _ in range(30):
        c = rand_interior_simplex(rng, 4)
        state = baseline_step(state, cfg, DiscreteMeasure(c.weights, g), C)
        assert abs(state.r_euclid.sum() - 1.0) <= 1e-12
        assert state.r_euclid.min() >= 0.0
        assert abs(state.r_avg.sum() - 1.0) <= 1e-10


def test_run_baseline_deterministic():
    g = Grid1D.uniform(0, 1, 4)
    C = squared_distance_cost(g, 2)
    target = DiscreteMeasure(np.array([0.4, 0.3, 0.2, 0.1]), g)
    cfg = BaselineConfig(method="lp_sgd", stepsize=0.5)
    a, _ = run_baseline(MeasureStream.finite([target], [1.0], seed=2), C, cfg, 50)
    b, _ = run_baseline(MeasureStream.finite([target], [1.0], seed=2), C, cfg, 50)
    np.testing.assert_array_equal(a, b)


def test_run_baseline_lp_converges_to_single_target():
    g = Grid1D.uniform(0, 1, 4)
    C = squared_distance_cost(g, 2)
    target = DiscreteMeasure(np.array([0.4, 0.3, 0.2, 0.1]), g)
    stream = MeasureStream.finite([target], [1.0], seed=7)
    cfg = BaselineConfig(method="lp_sgd", stepsize=2.0)
    r_avg, _ = run_baseline(stream, C, cfg, 2000)
    est = normalize(r_avg, g)
    assert wasserstein_1d(est, target, g, p=1.0) < 0.05


def test_sinkhorn_sgd_regularization_bias():
    # large gamma blurs the target; small gamma tracks it more closely
    g = Grid1D.uniform(0, 1, 4)
    C = squared_distance_cost(g, 2)
    target = DiscreteMeasure(np.array([0.7, 0.1, 0.1, 0.1]), g)

    def final_score(gamma):
        stream = MeasureStream.finite([target], [1.0], seed=8)
        cfg = BaselineConfig(method="sinkhorn_sgd", gamma=gamma, stepsize=2.0,
                             inner_iters=500)
        r_avg, _ = run_baseline(stream, C, cfg, 150)
        return wasserstein_1d(normalize(r_avg, g), target, g, p=2.0)

    assert final_score(0.05) < final_score(1.0)


def test_config_validation():
    with pytest.raises(SolverError):
        BaselineConfig(method="adam")
    with pytest.raises(SolverError):
        BaselineConfig(method="sinkhorn_sgd", gamma=0.0)
    cfg = BaselineConfig(method="lp_sgd", schedule="inverse_sqrt", stepsize=2.0)
    assert cfg.eta(4) == 1.0
    assert BaselineConfig(method="lp_sgd", schedule="constant",
                          stepsize=0.3).eta(100) == 0.3


@pytest.mark.parametrize("key", ["schedule", "stepper"])
def test_config_rejects_an_unknown_choice(key):
    with pytest.raises(SolverError, match="'foo'"):
        BaselineConfig(method="lp_sgd", **{key: "foo"})


def test_run_baseline_rejects_bad_n():
    target = DiscreteMeasure(np.array([0.5, 0.5]))
    with pytest.raises(SolverError):
        run_baseline(MeasureStream.finite([target], [1.0], seed=0), C2,
                     BaselineConfig(method="lp_sgd"), 0)
