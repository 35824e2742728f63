import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp

from barystream import dual_core
from barystream.baselines import sinkhorn_gradient
from barystream.dual_core import (
    CostMatrix,
    SolverError,
    certify_dual_bound,
    exact_ot,
    lambda_star,
    lambda_star_argmax,
    sinkhorn,
    squared_distance_cost,
    staircase,
    staircase_dual,
    wasserstein_1d,
)
from barystream.evaluation import gap_surrogate
from barystream.finite_md import FiniteProblem, duality_gap_finite
from barystream.measures import DiscreteMeasure, Grid1D, normalize

# scipy < 1.15 computed a + log(sum(exp(a - a))); the helpers follow the
# arithmetic of later versions and match those bit for bit only.
scipy_lse_arithmetic = pytest.mark.skipif(
    tuple(int(p) for p in scipy.__version__.split(".")[:2]) < (1, 15),
    reason=f"scipy {scipy.__version__} < 1.15 uses another logsumexp arithmetic")


def rand_simplex(rng, n, floor=1e-12):
    return normalize(np.maximum(rng.random(n), floor))


C2 = CostMatrix.from_entries([[0.0, 1.0], [1.0, 0.0]])


def test_squared_distance_cost_small():
    g = Grid1D.uniform(0, 1, 2)
    np.testing.assert_array_equal(squared_distance_cost(g, 2).entries, C2.entries)
    g3 = Grid1D.uniform(0, 2, 3)
    np.testing.assert_array_equal(
        squared_distance_cost(g3, 1).entries,
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_cost_inf_norm_extremal():
    g = Grid1D.uniform(-3, 5, 17)
    C = squared_distance_cost(g, 2)
    assert C.inf_norm == (5 - (-3)) ** 2
    assert C.inf_norm == C.entries.max()
    # every constructor works the sup-norm out from its entries; none takes one
    for D in (C, C.scaled(0.3), CostMatrix.from_entries(7.0 * C.entries[::-1])):
        assert D.inf_norm == float(np.abs(D.entries).max())
    with pytest.raises(TypeError):
        CostMatrix(C.entries, inf_norm=1.0)


def test_cost_matrix_refuses_a_nan_entry():
    # a NaN entry used to build with inf_norm nan, and sinkhorn on it was
    # unstable at iteration 1; +inf is kept, for the callers that name it
    for entries in ([[np.nan, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, -np.nan]]):
        with pytest.raises(SolverError, match="^cost matrix has a NaN entry$"):
            CostMatrix.from_entries(entries)
    with pytest.raises(SolverError, match="^cost matrix must be non-negative$"):
        CostMatrix.from_entries([[0.0, -1.0], [1.0, 0.0]])
    assert CostMatrix.from_entries([[np.inf, 1.0], [1.0, 0.0]]).inf_norm == np.inf


def test_lambda_star_basic():
    np.testing.assert_array_equal(lambda_star(np.zeros(2), C2), [0.0, 0.0])
    # hand enumeration: row 0 max(2, -1), row 1 max(1, 0)
    np.testing.assert_array_equal(lambda_star(np.array([-2.0, 0.0]), C2),
                                  [2.0, 1.0])


def test_lambda_star_translation_identity():
    rng = np.random.default_rng(0)
    C = CostMatrix.from_entries(rng.random((6, 6)))
    mu = rng.normal(size=6)
    for alpha in (-3.0, 0.5, 10.0):
        np.testing.assert_allclose(lambda_star(mu + alpha, C),
                                   lambda_star(mu, C) - alpha,
                                   rtol=0, atol=1e-14)


def test_lambda_star_lipschitz():
    rng = np.random.default_rng(1)
    C = CostMatrix.from_entries(rng.random((5, 5)))
    for _ in range(50):
        mu1 = rng.normal(size=5)
        mu2 = rng.normal(size=5)
        d = np.abs(lambda_star(mu1, C) - lambda_star(mu2, C)).max()
        assert d <= np.abs(mu1 - mu2).max() + 1e-12


def test_lambda_star_bound_under_boxed_mu():
    rng = np.random.default_rng(2)
    C = CostMatrix.from_entries(rng.random((5, 5)) * 3)
    for _ in range(50):
        mu = rng.uniform(-C.inf_norm, C.inf_norm, size=5)
        assert np.abs(lambda_star(mu, C)).max() <= 2 * C.inf_norm + 1e-12


def test_lambda_star_argmax_ties_and_values():
    zero = CostMatrix.from_entries(np.zeros((3, 3)))
    assert lambda_star_argmax(np.zeros(3), zero, 1) == 0
    assert lambda_star_argmax(np.zeros(2), C2, 0) == 0
    assert lambda_star_argmax(np.array([-2.0, 0.0]), C2, 0) == 0


def test_exact_ot_identity_coupling():
    rng = np.random.default_rng(3)
    g = Grid1D.uniform(0, 1, 5)
    C = squared_distance_cost(g, 2)
    r = rand_simplex(rng, 5)
    sol = exact_ot(r, r, C)
    assert abs(sol.value) <= 1e-10
    np.testing.assert_allclose(sol.plan, np.diag(r.weights), atol=1e-9)


def test_exact_ot_forced_plan():
    r = DiscreteMeasure(np.array([1.0, 0.0]))
    c = DiscreteMeasure(np.array([0.0, 1.0]))
    sol = exact_ot(r, c, C2)
    assert abs(sol.value - 1.0) <= 1e-10
    np.testing.assert_allclose(sol.plan, [[0, 1], [0, 0]], atol=1e-9)


def brute_force_ot_3x3(r, c, C, grid_steps=24):
    """Dense search over the 3x3 transport polytope (4 free variables)."""
    best = np.inf
    r, c = r.weights, c.weights
    t = np.linspace(0, 1, grid_steps + 1)
    for a in t * min(r[0], c[0]):
        for b in t * min(r[0] - a, c[1]):
            # first row fixed: (a, b, r0-a-b); then x10 in feasible interval
            x02 = r[0] - a - b
            if x02 > c[2] + 1e-12:
                continue
            lo = max(0.0, c[0] - a - r[2])
            hi = min(r[1], c[0] - a)
            if hi < lo - 1e-12:
                continue
            for x10 in np.linspace(lo, max(lo, hi), grid_steps + 1):
                x11_max = min(r[1] - x10, c[1] - b)
                for x11 in np.linspace(0, max(0.0, x11_max), grid_steps + 1):
                    X = np.array([
                        [a, b, x02],
                        [x10, x11, r[1] - x10 - x11],
                        [c[0] - a - x10, c[1] - b - x11, 0.0],
                    ])
                    X[2, 2] = r[2] - X[2, 0] - X[2, 1]
                    if np.any(X < -1e-9):
                        continue
                    best = min(best, float((C.entries * X).sum()))
    return best


def test_exact_ot_against_brute_force():
    rng = np.random.default_rng(7)
    g = Grid1D.uniform(0, 2, 3)
    C = squared_distance_cost(g, 2)
    r = rand_simplex(rng, 3)
    c = rand_simplex(rng, 3)
    sol = exact_ot(r, c, C)
    # coarse dense search upper-bounds the optimum; dual certificate is exact
    brute = brute_force_ot_3x3(r, c, C)
    assert sol.value <= brute + 1e-3
    assert abs(sol.gap) <= 1e-8 * (1 + abs(sol.value))
    slack = -C.entries - sol.dual_lambda[:, None] - sol.dual_mu[None, :]
    assert slack.max() <= 1e-9


def test_exact_ot_strong_duality_random():
    rng = np.random.default_rng(11)
    g = Grid1D.uniform(0, 1, 8)
    C = squared_distance_cost(g, 2)
    for _ in range(20):
        r = rand_simplex(rng, 8)
        c = rand_simplex(rng, 8)
        sol = exact_ot(r, c, C)
        assert abs(sol.gap) <= 1e-8 * (1 + abs(sol.value))
        assert np.abs(sol.plan.sum(1) - r.weights).max() <= 1e-9
        assert np.abs(sol.plan.sum(0) - c.weights).max() <= 1e-9


def test_exact_ot_rejections():
    # 65 points: one past the cap, refused before any LP is built
    u = DiscreteMeasure(np.full(65, 1.0 / 65))
    with pytest.raises(SolverError, match="exact-solver cap 64"):
        exact_ot(u, u, squared_distance_cost(Grid1D.uniform(0, 1, 65), 2))
    g = Grid1D.uniform(0, 1, 2)
    r = DiscreteMeasure(np.array([1.0, 0.0]))
    bad = DiscreteMeasure.__new__(DiscreteMeasure)
    object.__setattr__(bad, "weights", np.array([0.5, 0.4]))
    object.__setattr__(bad, "grid", None)
    with pytest.raises(SolverError):
        exact_ot(r, bad, C2)


def test_wasserstein_1d_basics():
    g = Grid1D.uniform(0, 3, 4)
    r = DiscreteMeasure(np.array([0.2, 0.3, 0.1, 0.4]), g)
    assert wasserstein_1d(r, r, g) == 0.0
    d1 = DiscreteMeasure(np.array([1.0, 0, 0, 0]), g)
    d2 = DiscreteMeasure(np.array([0, 0, 0, 1.0]), g)
    assert abs(wasserstein_1d(d1, d2, g, 2) - 3.0) < 1e-12
    assert abs(wasserstein_1d(d1, d2, g, 1) - 3.0) < 1e-12


def test_wasserstein_1d_matches_exact_ot():
    rng = np.random.default_rng(5)
    g = Grid1D.uniform(-2, 2, 20)
    C = squared_distance_cost(g, 2)
    for _ in range(10):
        r = rand_simplex(rng, 20)
        c = rand_simplex(rng, 20)
        w = wasserstein_1d(r, c, g, 2)
        sol = exact_ot(r, c, C)
        assert abs(w * w - sol.value) <= 1e-8 * (1 + sol.value)


def test_sinkhorn_large_gamma_uniform_plan():
    r = DiscreteMeasure(np.array([0.5, 0.5]))
    sol = sinkhorn(r, r, C2, gamma=1e3, max_iter=500, tol=1e-12)
    np.testing.assert_allclose(sol.plan, np.full((2, 2), 0.25), atol=1e-3)


def test_sinkhorn_contracts():
    rng = np.random.default_rng(13)
    g = Grid1D.uniform(0, 1, 6)
    C = squared_distance_cost(g, 2)
    r = rand_simplex(rng, 6)
    c = rand_simplex(rng, 6)
    sol = sinkhorn(r, c, C, gamma=0.1, max_iter=5000, tol=1e-9)
    assert sol.marginal_residual <= 1e-9
    # plan factorization invariant
    log_plan = sol.u[:, None] - C.entries / 0.1 + sol.v[None, :]
    np.testing.assert_allclose(sol.plan, np.exp(log_plan), rtol=1e-9)
    # dual objective is monotone (block-coordinate ascent)
    assert np.all(np.diff(sol.dual_values) >= -1e-12)


def test_sinkhorn_small_gamma_near_exact():
    r = DiscreteMeasure(np.array([0.5, 0.5]))
    sol = sinkhorn(r, r, C2, gamma=1e-2, max_iter=2000, tol=1e-12)
    plan_cost = float((C2.entries * sol.plan).sum())
    assert abs(plan_cost - 0.0) <= 5e-2


def _sinkhorn_case(n, seed):
    grid = Grid1D.uniform(0.0, 1.0, n)
    C = squared_distance_cost(grid, 2.0)
    C = C.scaled(1.0 / C.inf_norm)
    rng = np.random.default_rng(seed)
    r = normalize(rng.random(n) + 0.01, grid)
    c = normalize(rng.random(n) + 0.01, grid)
    return r, c, C


def _sinkhorn_full_plan_loop(r, c, C, gamma, max_iter, tol):
    """Reference loop: half-steps of scipy's logsumexp, building the plan on
    every iteration to get the residual and the dual value. It stops at the
    first non-finite potential and returns the last finite iterate. Returns
    u, v, n_iter, the dual values and whether it stopped there."""
    neg_cg = -C.entries / gamma
    u = np.zeros(C.n)
    v = np.zeros(C.n)
    dual_values = []
    for it in range(1, max_iter + 1):
        u_new = np.log(r.weights) - logsumexp(neg_cg + v[None, :], axis=1)
        v_new = np.log(c.weights) - logsumexp(neg_cg + u_new[:, None], axis=0)
        if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
            return u, v, it, np.array(dual_values), True
        u, v = u_new, v_new
        plan = np.exp(u[:, None] + neg_cg + v[None, :])
        dual_values.append(gamma * (u @ r.weights + v @ c.weights - plan.sum()))
        residual = (np.abs(plan.sum(axis=1) - r.weights).sum()
                    + np.abs(plan.sum(axis=0) - c.weights).sum())
        if residual <= tol:
            break
    return u, v, it, np.array(dual_values), False


def _assert_potentials_close(sol, u, v):
    """sinkhorn's potentials against (u, v) of a loop of exact log-sum-exps:
    within POTENTIAL_TOL of max(1, |u|_inf, |v|_inf). The scaled loop's
    frozen kernels sum in another order, through exps of other arguments,
    and drop terms below e^-108 of their sum; each log-sum-exp
    moves by some ulps of the size of -C/gamma plus the potentials, and the
    iteration does not amplify that."""
    scale = max(1.0, float(np.abs(u).max()), float(np.abs(v).max()))
    for got, expected in ((sol.u, u), (sol.v, v)):
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=POTENTIAL_TOL * scale)


# with the one scaled loop, 1,500 draws of sinkhorn_problems (below) put them
# within 2.9e-14 of that scale, and a sweep over n in {5, 8, 30, 100}, six
# gamma from 1 to 5e-5, 4 seeds and 300 iterations within 3.3e-14
POTENTIAL_TOL = 1e-12


def _cancellation_atol(gamma, u, v, r, c):
    """1e-12 of gamma max(|u.r|, |v.c|): where gamma (u.r + v.c - q)
    crosses 0 it cancels, and its rounding is of that size."""
    return 1e-12 * gamma * max(abs(u @ r.weights), abs(v @ c.weights))


def _assert_matches_full_plan_loop(r, c, C, gamma, max_iter, cancellation=False):
    """sinkhorn against the reference loop: the same n_iter, potentials
    within POTENTIAL_TOL and dual values within rtol 1e-12, and with
    cancellation also within `_cancellation_atol`; returns sinkhorn's
    solution."""
    sol = sinkhorn(r, c, C, gamma, max_iter=max_iter, tol=1e-9)
    u, v, n_iter, dual_values, _ = _sinkhorn_full_plan_loop(r, c, C, gamma,
                                                            max_iter, 1e-9)
    assert sol.n_iter == n_iter and not sol.unstable
    _assert_potentials_close(sol, u, v)
    # the half-step dual values differ from the plan's only in rounding;
    # the returned iterate's own value comes from its plan
    assert len(sol.dual_values) == sol.n_iter
    atol = _cancellation_atol(gamma, u, v, r, c) if cancellation else 0.0
    np.testing.assert_allclose(sol.dual_values, dual_values, rtol=1e-12, atol=atol)
    expected = gamma * (sol.u @ r.weights + sol.v @ c.weights - sol.plan.sum())
    np.testing.assert_allclose(sol.dual_values[-1], expected, rtol=1e-12)
    return sol


@pytest.mark.parametrize("gamma, converged", [
    (1e-1, True), (1e-2, True), (1e-3, False), (5e-5, False)])
def test_sinkhorn_matches_full_plan_loop(gamma, converged):
    r, c, C = _sinkhorn_case(30, seed=5)
    sol = _assert_matches_full_plan_loop(r, c, C, gamma, 1000)
    assert (sol.n_iter < 1000) == converged


@pytest.mark.parametrize("gamma", [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 5e-5])
@pytest.mark.parametrize("n", [5, 8, 30, 100])
def test_sinkhorn_matches_full_plan_loop_over_the_sweep(n, gamma):
    # the sweep sinkhorn's docstring and POTENTIAL_TOL cite; seed 0 holds
    # the dual values to rtol 1e-12, and seeds 1-3 with the cancellation
    # atol, which n = 100, gamma = 5e-5, seed 3 needs where a dual value
    # crosses 0
    for seed in range(4):
        _assert_matches_full_plan_loop(*_sinkhorn_case(n, seed), gamma, 300,
                                       cancellation=seed > 0)


def test_sinkhorn_gradient_seeded_guard():
    # recorded from the loop that built the full plan on every iteration
    # with scipy's logsumexp; a change that moves the iterates fails here
    r, c, C = _sinkhorn_case(100, seed=2024)
    grad, unstable = sinkhorn_gradient(r, c, C, 5e-5, inner_iters=200)
    assert not unstable
    np.testing.assert_allclose(grad[::10], [
        0.0028558565976407866, 0.0004202994592852579, 3.311107742089251e-05,
        0.0025935435739968438, 0.0036006753820953014, -0.0005891626135404711,
        -0.002374323306341099, -0.002994356239400934, -3.213929794430024e-05,
        -0.0017162590828804568], rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(grad), 0.020486372090596526,
                               rtol=1e-12)


@st.composite
def lse_matrices(draw):
    """Real 2-D arrays with ties at row, column and global maxima, -inf
    entries, whole rows of -inf, and optionally +inf and NaN entries."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    a = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=rows * cols,
                               max_size=rows * cols))).reshape(rows, cols)
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for i, j in draw(st.lists(cells, max_size=rows * cols)):
        a[i, j] = draw(st.sampled_from(
            [a[i].max(), a[:, j].max(), a.max(), -np.inf]))
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=rows)):
        a[i] = -np.inf
    for i, j in draw(st.lists(cells, max_size=2)):
        a[i, j] = draw(st.sampled_from([np.inf, np.nan]))
    return a


@st.composite
def underflow_matrices(draw):
    """Real 2-D arrays with a 0 in every row and column and the other entries
    below it: many far below -746, some about the underflow cut, where exp
    gives a subnormal or exactly 0.0. Where a slice holds one 0 its result is
    the sum of those exps alone, so one lost addend shows."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    entry = st.one_of(st.floats(-1e4, 0.0), st.floats(-760.0, -700.0),
                      st.sampled_from([-746.0, np.nextafter(-746.0, 0.0),
                                       -745.14, -745.1, -708.4]))
    a = np.array(draw(st.lists(entry, min_size=rows * cols,
                               max_size=rows * cols))).reshape(rows, cols)
    a[np.arange(rows), draw(st.lists(st.integers(0, cols - 1),
                                     min_size=rows, max_size=rows))] = 0.0
    a[draw(st.lists(st.integers(0, rows - 1), min_size=cols, max_size=cols)),
      np.arange(cols)] = 0.0
    return a


def _same_bits(x, y):
    """array_equal that also matches NaN positions and every sign bit."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def test_exp_is_zero_below_the_underflow_cut():
    # the premises, on this numpy's exp, of the mask of sinkhorn's exit plan
    # (exp is 0.0, below 2**-1074, at and below UNDERFLOW_BELOW) and of its
    # kernel's cut KEEP_ABOVE = SUBNORMAL_CUT + TAU (exp is below 2**-1021 at
    # and below SUBNORMAL_CUT); the offsets leave tails that its SIMD loop
    # hands to scalar code
    for cut, bound in ((dual_core.UNDERFLOW_BELOW, 2.0 ** -1074),
                       (dual_core.SUBNORMAL_CUT, 2.0 ** -1021)):
        z = np.concatenate([np.linspace(cut - 1e4, cut, 100_003),
                            np.linspace(cut - 40.0, cut, 100_003),
                            [np.nextafter(cut, -np.inf), -1e300, -np.inf]])
        for start in range(8):
            assert np.all(np.exp(z[start:]) < bound)


@st.composite
def lean_pass_inputs(draw):
    """(a, p): a matrix of lse_matrices or underflow_matrices and a finite
    potential over its columns."""
    a = draw(st.one_of(lse_matrices(), underflow_matrices()))
    p = draw(st.lists(st.floats(-1e3, 1e3), min_size=a.shape[1],
                      max_size=a.shape[1]))
    return a, np.array(p)


# a row whose max is -inf, and one holding +inf
@example((np.array([[-np.inf, -np.inf], [np.inf, 0.0]]), np.zeros(2)))
@settings(max_examples=300, deadline=None)
@given(lean_pass_inputs())
def test_lean_pass_freezes_the_log_sum_exp_of_each_row(inputs):
    a, p = inputs
    # called outside np.errstate: a RuntimeWarning it lets out fails here
    n = a.shape[1]
    K = np.full_like(a, np.nan)
    m = dual_core._lean_pass(a, p, np.empty_like(a), K)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = a + p
        z = x - x.max(axis=1, keepdims=True)
        got = m + np.log(K.sum(axis=1))
    assert _same_bits(m, x.max(axis=1))
    finite = np.isfinite(m)
    expected = logsumexp(x[finite], axis=1)
    # the sum's rounding, and dropped terms below e^KEEP_ABOVE of the max one
    bound = 4 * 2.0 ** -52 * (np.abs(expected) + n)
    assert np.all(np.abs(got[finite] - expected) <= bound)
    assert not np.isfinite(got[~finite]).any()
    kept = z[finite] > dual_core.KEEP_ABOVE
    assert np.all(K[finite][z[finite] == 0] == 1.0)
    assert _same_bits(K[finite][kept], np.exp(z[finite][kept]))
    assert np.all(K[finite][~kept] == 0.0) and np.all(K[~finite] == 0.0)


def _sinkhorn_sha256(sol):
    """sha256 of u, v, plan, dual_values, reg_value and n_iter."""
    h = hashlib.sha256()
    for a in (sol.u, sol.v, sol.plan, sol.dual_values, np.float64(sol.reg_value)):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(np.int64(sol.n_iter).astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("gamma, max_iter, n_iter, sha", [
    pytest.param(1e-2, 1000, 401,
                 "db5f624e4477e76e14831d8569107e27f9088cf11d0027c00493bdc30ffcd63a",
                 id="1e-2"),
    pytest.param(5e-5, 200, 200,
                 "7409cdc8e3b9619115f5cbff586c1f41d24af60abdb57a40943a2b2479364168",
                 id="5e-5"),
])
def test_sinkhorn_outputs_seeded_guard(gamma, max_iter, n_iter, sha):
    # recorded when the loop began to read the residual in batches (u, v,
    # the plan and reg_value kept the bits of the one scaled loop with
    # absorption; the dual values moved): gamma=1e-2 converges, and at 5e-5,
    # where most exps underflow, it stops at max_iter
    r, c, C = _sinkhorn_case(100, seed=11)
    sol = sinkhorn(r, c, C, gamma, max_iter=max_iter, tol=1e-9)
    assert sol.n_iter == n_iter and not sol.unstable
    assert _sinkhorn_sha256(sol) == sha


@st.composite
def sinkhorn_problems(draw, overflow=False):
    """(r, c, C, gamma): n from 2 to 40, gamma from 1e-5 to 10, a grid cost
    scaled to sup-norm 1 or `CostMatrix.from_entries` of entries in [0, 1]
    with some exact zeros. With overflow, some rows and columns of the
    entries are 1e300, or 1.7e308, whose -C/gamma is -inf at gamma < 1."""
    n = draw(st.integers(2, 40), label="n")
    gamma = 10.0 ** draw(st.floats(-5.0, 1.0), label="log10 gamma")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    if draw(st.booleans(), label="grid"):
        C = squared_distance_cost(Grid1D.uniform(0.0, 1.0, n),
                                  draw(st.sampled_from([1.0, 2.0, 3.0]), label="p"))
        C = C.scaled(1.0 / C.inf_norm)
    else:
        entries = rng.random((n, n))
        entries[rng.random((n, n)) < draw(st.floats(0.0, 0.5), label="zeros")] = 0.0
        if overflow:
            huge = draw(st.sampled_from([1e300, 1.7e308]), label="huge")
            entries[rng.random(n) < 0.3] = huge
            entries[:, rng.random(n) < 0.3] = huge
        C = CostMatrix.from_entries(entries)
    r = normalize(rng.random(n) + 0.01)
    c = normalize(rng.random(n) + 0.01)
    return r, c, C, gamma


def _drifting_case():
    """A row and a column of mass 1e-19 and 1e-11, coupled to the rest
    through e^-1000 only: their potentials drift by log(1e8) an iteration
    while the residual, which they move by less than tol, converges at
    iterate 30. The v absorbed at lean pass 7, in iteration 33 and about
    608 in size (the six before it are below 450), comes after that iterate
    in its batch, which the residuals' rate ends at 32."""
    r = DiscreteMeasure(np.array([0.5, 0.5 - 1e-19, 1e-19]))
    c = DiscreteMeasure(np.array([0.6, 0.4 - 1e-11, 1e-11]))
    C = CostMatrix.from_entries(np.array([[0.0, 0.002, 1.0], [0.002, 0.0, 1.0],
                                          [1.0, 1.0, 0.0]]))
    return r, c, C, 1e-3


# after one iteration v is about 1e4 from v_ref = 0: beta overflows, and b
# leaves the band and is absorbed
@example(problem=(DiscreteMeasure(np.array([0.5, 0.5])),
                  DiscreteMeasure(np.array([0.5, 0.5])),
                  CostMatrix.from_entries(np.array([[0.0, 1.0], [0.0, 1.0]])), 1e-4),
         max_iter=2)
# an absorption among the iterations after the converged iterate, 30
@example(problem=_drifting_case(), max_iter=300)
@settings(max_examples=60, deadline=None)
@given(problem=sinkhorn_problems(), max_iter=st.integers(1, 300))
def test_sinkhorn_matches_full_plan_loop_on_any_problem(problem, max_iter):
    r, c, C, gamma = problem
    sol = sinkhorn(r, c, C, gamma, max_iter=max_iter, tol=1e-9)
    u, v, n_iter, _, _ = _sinkhorn_full_plan_loop(r, c, C, gamma, max_iter, 1e-9)
    assert not sol.unstable and sol.n_iter == n_iter
    _assert_potentials_close(sol, u, v)


def test_sinkhorn_runs_most_iterations_in_the_scaled_form(monkeypatch):
    # each absorption makes one lean pass, and the two first freezes make
    # two: a silent fall-back to re-freezing every iteration would show
    # here and not only in the benchmark
    passes = []
    lean_pass = dual_core._lean_pass

    def counted(*args):
        passes.append(None)
        return lean_pass(*args)

    monkeypatch.setattr(dual_core, "_lean_pass", counted)
    r, c, C = _sinkhorn_case(100, seed=11)
    sol = sinkhorn(r, c, C, 5e-5, max_iter=200, tol=1e-9)
    assert sol.n_iter == 200 and not sol.unstable
    assert len(passes) <= 0.05 * sol.n_iter


@settings(max_examples=100, deadline=None)
@given(problem=st.one_of(sinkhorn_problems(), sinkhorn_problems(overflow=True)),
       max_iter=st.integers(1, 50))
def test_sinkhorn_exit_has_the_bits_of_the_full_exp_and_log(problem, max_iter):
    # the plan takes exps only above the underflow cut and the entropy logs
    # only where the plan is > 0; the exit terms of the returned (u, v) are
    # those of the exp and log of every entry
    r, c, C, gamma = problem
    with np.errstate(over="ignore", invalid="ignore"):
        sol = sinkhorn(r, c, C, gamma, max_iter=max_iter)
        u, v = sol.u, sol.v
        plan = np.exp(u[:, None] + -C.entries / gamma + v[None, :])
        residual = (np.abs(plan.sum(axis=1) - r.weights).sum()
                    + np.abs(plan.sum(axis=0) - c.weights).sum())
        with np.errstate(divide="ignore"):
            ent = np.where(plan > 0, plan * np.log(plan), 0.0)
        reg_value = (C.entries * plan).sum() + gamma * ent.sum()
        dual = gamma * (u @ r.weights + v @ c.weights - plan.sum())
    assert _same_bits(sol.plan, plan)
    assert _same_bits(sol.marginal_residual, residual)
    assert _same_bits(sol.reg_value, reg_value)
    if sol.n_iter - sol.unstable > 0:
        assert _same_bits(sol.dual_values[-1], dual)


# a row, then a column, of -C/gamma near -1e300 and -1.7e308: the first
# half-step on that side puts its potential at about 1e300, and no later
# half-step moves it; the reference loop converges at 18 on the first and
# not at all on the second, whose plan drops u in the pinned column
@example(problem=(DiscreteMeasure(np.array([0.3, 0.7])),
                  DiscreteMeasure(np.array([0.4, 0.6])),
                  CostMatrix.from_entries(np.array([[0.5, 0.95], [1e300, 1e300]])),
                  1.0),
         max_iter=50)
@example(problem=(DiscreteMeasure(np.array([0.5, 0.5])),
                  DiscreteMeasure(np.array([0.65, 0.35])),
                  CostMatrix.from_entries(np.array([[1.7e308, 0.75], [1.7e308, 0.0]])),
                  1.0),
         max_iter=50)
@settings(max_examples=60, deadline=None)
@given(problem=sinkhorn_problems(overflow=True), max_iter=st.integers(1, 50))
def test_sinkhorn_exits_unstable_where_its_exact_half_steps_do(problem, max_iter):
    # the reference loop of scipy's logsumexp stops at the same iteration,
    # with the same last finite iterate
    r, c, C, gamma = problem
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = sinkhorn(r, c, C, gamma, max_iter=max_iter)
        u, v, n_iter, dual_values, unstable = _sinkhorn_full_plan_loop(
            r, c, C, gamma, max_iter, 1e-9)
    assert (sol.unstable, sol.n_iter) == (unstable, n_iter)
    assert sol.dual_values.shape == dual_values.shape
    _assert_potentials_close(sol, u, v)


def test_sinkhorn_unstable_exit_returns_the_last_finite_iterate():
    # no zero entry: -C/gamma is -inf everywhere, so the first half-step's
    # log-sum-exps are -inf and its potentials +inf
    C = CostMatrix.from_entries(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0],
                                          [3.0, 2.0, 1.0]]))
    r = DiscreteMeasure(np.array([0.2, 0.3, 0.5]))
    c = DiscreteMeasure(np.array([0.5, 0.25, 0.25]))
    with np.errstate(over="ignore", invalid="ignore"):
        sol = sinkhorn(r, c, C, gamma=1e-320)
        grad, unstable = sinkhorn_gradient(r, c, C, 1e-320)
    assert sol.unstable and sol.n_iter == 1
    assert np.array_equal(sol.u, np.zeros(3)) and np.array_equal(sol.v, np.zeros(3))
    assert sol.dual_values.shape == (0,)
    assert unstable and np.array_equal(grad, np.zeros(3))


@pytest.mark.parametrize("poisoned", [3, 4, 5, 6])
def test_sinkhorn_unstable_exit_past_the_first_iteration(monkeypatch, poisoned):
    # a kernel re-frozen with a row max of -inf, as where that row of -C/gamma
    # plus the potential is all -inf, makes the iteration that uses it
    # unstable: the solve returns the iterate before it, with the bits and
    # dual values of a solve stopped there. This solve makes 6 lean passes.
    r, c, C = _sinkhorn_case(8, seed=0)
    calls = []
    lean_pass = dual_core._lean_pass

    def poisoning(neg_cg, p, z, K):
        calls.append(None)
        m = lean_pass(neg_cg, p, z, K)
        if len(calls) == poisoned:
            m[0], K[0] = -np.inf, 0.0
        return m

    monkeypatch.setattr(dual_core, "_lean_pass", poisoning)
    sol = sinkhorn(r, c, C, 5e-5, max_iter=200)
    assert sol.unstable and sol.n_iter >= 2
    monkeypatch.undo()
    stopped = sinkhorn(r, c, C, 5e-5, max_iter=sol.n_iter - 1)
    for got, expected in ((sol.u, stopped.u), (sol.v, stopped.v),
                          (sol.plan, stopped.plan),
                          (sol.dual_values, stopped.dual_values)):
        assert _same_bits(got, expected)


def _batch_geometries(monkeypatch):
    """Set sinkhorn's batches to a fixed size from 1 to 8 in turn; yields
    each size. The converged iterate then falls first, inside and last in
    its batch."""
    for size in range(1, 9):
        monkeypatch.setattr(dual_core, "FIRST_BATCH", size)
        monkeypatch.setattr(dual_core, "_next_batch_size",
                            lambda *args, size=size: size)
        yield size
    monkeypatch.undo()


@pytest.mark.parametrize("gamma", [1.0, 1e-1])
@pytest.mark.parametrize("n", [5, 8, 30])
def test_sinkhorn_returns_the_converged_iterate_wherever_it_waits(monkeypatch, n, gamma):
    # the residuals are read at a flush, after the iterations that follow
    # the converged iterate in its batch; where it falls in the batch
    # changes no bit of what is returned and no n_iter of the reference loop
    where = set()
    for seed in range(4):
        r, c, C = _sinkhorn_case(n, seed)
        expected = _assert_matches_full_plan_loop(r, c, C, gamma, 1000)
        atol = _cancellation_atol(gamma, expected.u, expected.v, r, c)
        for size in _batch_geometries(monkeypatch):
            sol = sinkhorn(r, c, C, gamma, max_iter=1000, tol=1e-9)
            assert sol.n_iter == expected.n_iter and not sol.unstable
            for got, want in ((sol.u, expected.u), (sol.v, expected.v),
                              (sol.plan, expected.plan),
                              (sol.marginal_residual, expected.marginal_residual),
                              (sol.reg_value, expected.reg_value)):
                assert _same_bits(got, want)
            # each batch sums its dual values in one matrix-vector product
            np.testing.assert_allclose(sol.dual_values, expected.dual_values,
                                       rtol=1e-12, atol=atol)
            position = (sol.n_iter - 1) % size
            if size > 2:
                where.add("first" if position == 0
                          else "last" if position == size - 1 else "inside")
    assert where == {"first", "inside", "last"}


@pytest.mark.parametrize("rate", [0.5, 0.13, 0.9, 0.993])
@pytest.mark.parametrize("steps", [1, 3, 8])
def test_next_batch_size_ends_at_the_first_residual_within_tol(rate, steps):
    # on geometric residuals the batch ends where the residual reaches tol,
    # or at the cap
    first, tol = 0.3, 1e-9
    last = first * rate ** steps
    needed = next(k for k in itertools.count(1) if last * rate ** k <= tol)
    assert (dual_core._next_batch_size(first, last, steps, tol)
            == min(needed, dual_core.DUAL_BATCH))


@pytest.mark.parametrize("first, last, steps, tol", [
    (1e-3, 1e-3, 5, 1e-9),       # stalled
    (1e-3, 2e-3, 5, 1e-9),       # growing
    (np.nan, 1e-3, 5, 1e-9),
    (1e-3, np.nan, 5, 1e-9),
    (np.inf, 1e-3, 5, 1e-9),
    (1e-2, 1e-3, 0, 1e-9),       # one residual: no rate
    (1e-2, 1e-3, 5, 0.0),        # a tol no rate reaches
    (1e-2, 1e-10, 5, 1e-9),      # already within tol
])
def test_next_batch_size_is_the_cap_without_a_rate_below_1(first, last, steps, tol):
    assert dual_core._next_batch_size(first, last, steps, tol) == dual_core.DUAL_BATCH


def test_next_batch_size_of_a_rate_that_rounds_to_1():
    # the mean rate (last / first) ** (1 / steps) is 1.0 in float64, and
    # here log(last) == log(first): neither divides by 0
    first, last = 1.0, 1.0 - 2.0 ** -52
    assert (last / first) ** (1 / 63) == 1.0
    assert dual_core._next_batch_size(first, last, 63, 1e-9) == dual_core.DUAL_BATCH
    first, last = 1e300, np.nextafter(1e300, 0.0)
    assert math.log(last) == math.log(first)
    assert dual_core._next_batch_size(first, last, 1, 1e-9) == dual_core.DUAL_BATCH


@pytest.mark.parametrize("event", ["pin", "unstable"])
def test_sinkhorn_pin_or_unstable_exit_after_the_converged_iterate(monkeypatch, event):
    # a pin or an unstable exit among the iterations after the converged
    # iterate reads the batch first and returns that iterate as it is
    r, c, C, gamma = _drifting_case()
    expected = sinkhorn(r, c, C, gamma)
    assert expected.n_iter == 30 and not expected.unstable
    calls = []
    lean_pass = dual_core._lean_pass

    def counted(neg_cg, p, z, K):
        calls.append(None)
        m = lean_pass(neg_cg, p, z, K)
        if event == "unstable" and len(calls) == 7:
            m[0], K[0] = -np.inf, 0.0
        return m

    monkeypatch.setattr(dual_core, "_lean_pass", counted)
    # iterate 30 waits in a batch from 5 to 44, which holds iteration 33,
    # where pass 7 runs, and 34
    monkeypatch.setattr(dual_core, "_next_batch_size", lambda *args: 40)
    if event == "pin":
        # v at lean pass 7 is pinned, and nothing before it
        monkeypatch.setattr(dual_core, "PIN_AT", 500.0)
    sol = sinkhorn(r, c, C, gamma)
    # the pin stops the loop before pass 7; the poisoned pass 7 makes the
    # next row half-step's u infinite, at pass 8
    assert len(calls) == {"pin": 6, "unstable": 8}[event]
    assert sol.n_iter == 30 and not sol.unstable
    for got, want in ((sol.u, expected.u), (sol.v, expected.v),
                      (sol.plan, expected.plan), (sol.dual_values, expected.dual_values),
                      (sol.reg_value, expected.reg_value)):
        assert _same_bits(got, want)


def _dropped_mass_case():
    """HiGHS, at its default 1e-7 feasibility tolerance, drops c's mass of
    2^-23 / (2 + 2^-23): the plan's cost is 1.4999999106 against the true
    1.4999999404, with a certificate gap of 0."""
    C = CostMatrix.from_entries(0.5 * np.abs(np.subtract.outer(np.arange(7),
                                                               np.arange(7))))
    r = DiscreteMeasure(np.eye(7)[6])
    c = normalize(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 2.0 ** -23, 1.0]))
    return C, r, c


def test_exact_ot_refuses_a_plan_that_misses_its_marginals(monkeypatch):
    # a solver that ignores the tighter tolerance of the second solve gives
    # the loose plan again, and exact_ot refuses it
    C, r, c = _dropped_mass_case()
    highs, tolerances = dual_core.linprog, []

    def ignoring_the_tolerance(*args, options, **kwargs):
        tolerances.append(options.pop("primal_feasibility_tolerance", None))
        return highs(*args, options=options, **kwargs)

    monkeypatch.setattr(dual_core, "linprog", ignoring_the_tolerance)
    with pytest.raises(SolverError, match="misses its marginals by 1.19e-07"):
        exact_ot(r, c, C)
    assert tolerances == [None, dual_core.LP_RETRY_FEAS_TOL]


def test_exact_ot_keeps_a_dropped_mass_at_the_tighter_tolerance():
    C, r, c = _dropped_mass_case()
    exact = exact_ot(r, c, C)
    assert exact.value == staircase_dual(r.weights, c.weights, C)[0] == 1.4999999403953588


def test_sinkhorn_rejects():
    r = DiscreteMeasure(np.array([0.5, 0.5]))
    z = DiscreteMeasure(np.array([1.0, 0.0]))
    with pytest.raises(SolverError):
        sinkhorn(r, r, C2, gamma=0.0)
    with pytest.raises(SolverError):
        sinkhorn(r, z, C2, gamma=1.0)


def test_certify_trivial():
    r = DiscreteMeasure(np.array([0.5, 0.5]))
    ok, mu = certify_dual_bound(r, r, C2)
    assert ok
    assert np.abs(mu).max() <= C2.inf_norm + 1e-9
    assert mu.min() == 0.0


def test_certify_rejects_zero_weight():
    r = DiscreteMeasure(np.array([1.0, 0.0]))
    c = DiscreteMeasure(np.array([0.5, 0.5]))
    with pytest.raises(SolverError):
        certify_dual_bound(r, c, C2)


def test_certify_refuses_n_past_the_cap_before_the_boxed_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("boxed_dual_lp ran")

    monkeypatch.setattr(dual_core, "boxed_dual_lp", no_lp)
    u = DiscreteMeasure(np.full(65, 1.0 / 65))
    with pytest.raises(SolverError, match="exact-solver cap"):
        certify_dual_bound(u, u, squared_distance_cost(Grid1D.uniform(0, 1, 65), 2))


def test_certify_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        g = Grid1D.uniform(0, 1, n)
        C = squared_distance_cost(g, 2)
        r = rand_simplex(rng, n)
        c = rand_simplex(rng, n)
        ok, mu = certify_dual_bound(r, c, C)
        assert ok
        assert mu.min() >= -1e-12


def _w1d_cases():
    """Seeded wasserstein_1d inputs on random grids with p in {1, 1.5, 2, 3}:
    random weights, zero-mass entries, small integer counts (tied CDF
    breakpoints) and r == c, in turn."""
    rng = np.random.default_rng(2026)
    for k in range(400):
        n = int(rng.integers(2, 41))
        grid = Grid1D(np.sort(rng.uniform(-5.0, 5.0, n)), -5.0, 5.0)
        p = (1.0, 1.5, 2.0, 3.0)[int(rng.integers(4))]
        raw = [rng.random(n) + 0.01,
               rng.random(n) * (rng.random(n) < 0.5),
               rng.integers(0, 4, n).astype(float)][k % 3]
        raw[int(rng.integers(n))] += 1.0
        r = normalize(raw, grid)
        c = r if k % 4 == 3 else normalize(rng.permutation(raw), grid)
        yield r, c, grid, p


def test_wasserstein_1d_outputs_are_bit_identical_to_the_quantile_loop():
    # sha256 of the float64 outputs, recorded from wasserstein_1d before its
    # quantile cells were factored out into dual_core.staircase
    h = hashlib.sha256()
    for r, c, grid, p in _w1d_cases():
        h.update(np.float64(wasserstein_1d(r, c, grid, p)).tobytes())
    assert h.hexdigest() == (
        "646305e07bf154f888f2f84bea487a348dca2f89df217328c8d83968eac9c812")


def test_grid_cost_mark():
    C = squared_distance_cost(Grid1D.uniform(0, 1, 4), 1.0)
    assert C.grid_monge and C.scaled(0.5).grid_monge
    assert C.scaled(0.5).inf_norm == 0.5
    assert not CostMatrix.from_entries(C.entries).grid_monge


@st.composite
def shifted_vectors(draw):
    """x - x.max() of a real vector of length 1-199 at a scale of 1e-3 to
    300, with ties at the max and -inf entries: a log_r as `set_log_r`
    leaves it, or with -inf entries, as none is."""
    n = draw(st.integers(1, 199))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal(n) * draw(st.floats(1e-3, 300.0))
    x[draw(st.lists(st.integers(0, n - 1), max_size=n))] = x.max()
    x -= x.max()
    below = np.flatnonzero(x < 0)
    if below.size:
        x[draw(st.lists(st.sampled_from(below), max_size=below.size))] = -np.inf
    return x


class _Softmax(dual_core.CarriedSoftmax):
    """A bare carrier of log_r and r at step k."""

    def __init__(self, log_r, k=4):
        self.log_r, self.k, self.r = log_r, k, None
        self.__post_init__()


@scipy_lse_arithmetic
@settings(max_examples=500, deadline=None)
@given(shifted_vectors())
def test_shifted_softmax_is_exp_of_x_minus_logsumexp(x):
    assert x.max() == 0 and not np.signbit(x.max())
    expected = np.exp(x - logsumexp(x))
    assert _same_bits(np.exp(x - dual_core.logsumexp(x)), expected)
    assert _same_bits(dual_core._shifted_softmax(x), expected)


@scipy_lse_arithmetic
@settings(max_examples=300, deadline=None)
@given(shifted_vectors(), st.floats(-1e3, 1e3))
def test_set_log_r_writes_the_shifted_x_and_its_softmax(x, offset):
    # a finite x: the shift, and the rebuild of a restored state, agree with it
    x = x[np.isfinite(x)] + offset
    shifted = x - x.max()
    state = _Softmax(np.zeros(x.size))
    state.set_log_r(x, "iterate")
    assert _same_bits(state.log_r, shifted)
    assert _same_bits(state.r, np.exp(shifted - logsumexp(shifted)))
    assert _same_bits(_Softmax(state.log_r.copy()).r, state.r)


@settings(max_examples=200, deadline=None)
@given(shifted_vectors(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_set_log_r_refuses_a_non_finite_x_and_writes_nothing(x, bad, data):
    x = x.copy()
    x[data.draw(st.integers(0, x.size - 1))] = bad
    state = _Softmax(np.log(np.arange(1.0, 4.0)))
    before = state.log_r.tobytes(), state.r.tobytes()
    # only an infinite max (+inf, or -inf everywhere) makes the shift's
    # inf - inf, which the steps' callers run under np.errstate; the softmax
    # itself never sees a non-finite x
    with (pytest.raises(dual_core.NumericalAbort,
                        match="^non-finite iterate in a test at k=5$"),
          np.errstate(invalid="ignore" if np.isinf(x.max()) else "raise")):
        state.set_log_r(x, "iterate in a test")
    assert (state.log_r.tobytes(), state.r.tobytes()) == before


def test_construction_shifts_log_r_to_max_0_in_place():
    log_r = np.log(np.arange(1.0, 4.0)) + 1.0
    state = _Softmax(log_r)
    assert state.log_r is log_r and log_r.max() == 0 and not np.signbit(log_r.max())
    assert _same_bits(log_r, np.log(np.arange(1.0, 4.0)) + 1.0 - (np.log(3.0) + 1.0))
    # a log_r of max 0 keeps every bit
    again = log_r.copy()
    assert _same_bits(_Softmax(again).log_r, log_r)


# new values for an entry: at, just above and below 0, and non-finite; -0.0 is
# left out because md_step never writes it (log_r[s] - d is -0.0 only for a
# log_r[s] of -0.0, which no state holds)
ENTRY_VALUES = [0.0, 5e-324, -5e-324, 1.0, -1.0, -800.0, np.inf, -np.inf, np.nan]


@settings(max_examples=500, deadline=None)
@given(shifted_vectors(), st.data())
def test_set_log_r_entry_gives_the_bytes_of_set_log_r_on_a_copy(x, data):
    # a state's log_r is finite with max exactly 0; s at the max half the time
    x = x[np.isfinite(x)]
    at_max = np.flatnonzero(x == 0)
    s = data.draw(st.one_of(st.sampled_from(at_max), st.integers(0, x.size - 1)),
                  label="s")
    value = data.draw(st.one_of(st.sampled_from(ENTRY_VALUES),
                                st.floats(-1e3, 1e3).map(lambda v: v + 0.0),
                                st.floats(-1.0, 0.0).map(lambda d: x[s] + d + 0.0)),
                      label="value")
    copy = x.copy()
    copy[s] = value
    reference, state = _Softmax(x.copy()), _Softmax(x.copy())
    before = state.log_r.tobytes(), state.r.tobytes()
    outcomes = []
    # only an infinite max of the copy (a +inf value, or -inf everywhere)
    # makes set_log_r's inf - inf, as in its own property
    with np.errstate(invalid="ignore" if np.isinf(copy.max()) else "raise"):
        for write in (lambda: reference.set_log_r(copy, "iterate"),
                      lambda: state.set_log_r_entry(s, value, "iterate")):
            try:
                write()
                outcomes.append(None)
            except dual_core.NumericalAbort as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if outcomes[0] is not None:
        assert outcomes[0] == "non-finite iterate at k=5" and not np.isfinite(value)
        assert (state.log_r.tobytes(), state.r.tobytes()) == before
        return
    assert _same_bits(state.log_r, reference.log_r)
    assert _same_bits(state.r, reference.r)


def test_set_log_r_entry_of_a_one_entry_log_r_to_minus_inf_aborts():
    # the copy is -inf everywhere, so its max is infinite and the shift's
    # -inf - -inf is NaN, under the np.errstate the steps' callers hold
    state = _Softmax(np.array([0.0]))
    before = state.log_r.tobytes(), state.r.tobytes()
    with (pytest.raises(dual_core.NumericalAbort,
                        match="^non-finite iterate at k=5$"),
          np.errstate(invalid="ignore")):
        state.set_log_r_entry(0, -np.inf, "iterate")
    assert (state.log_r.tobytes(), state.r.tobytes()) == before


@st.composite
def grid_costs(draw):
    """|x_i - x_j|^p, p in {1, 2}, on a random sorted grid in [-3, 3] of 2-30
    points, scaled half of the time."""
    n = draw(st.integers(2, 30))
    steps = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=n - 1,
                                   max_size=n - 1)))
    lo = draw(st.floats(-3.0, 0.0))
    points = lo + (3.0 - lo) * np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()
    grid = Grid1D(points, points[0], points[-1])
    C = squared_distance_cost(grid, draw(st.sampled_from([1.0, 2.0])))
    if draw(st.booleans()):
        C = C.scaled(draw(st.floats(0.1, 4.0)))
    return C


@st.composite
def simplex_weights(draw, n):
    """Random weights, weights with zero-mass entries, or dyadic weights k/2^m,
    whose CDF breakpoints tie with those of other dyadic weights. A non-zero
    entry is at least 0.01 / (n + 1): HiGHS, the oracle here, works to a
    primal feasibility tolerance of 1e-7 and can drop masses below it."""
    kind = draw(st.sampled_from(["random", "zero_mass", "dyadic"]))
    if kind == "dyadic":
        total = 2 ** draw(st.integers(1, 5))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1,
                                    max_size=n - 1)))
        return np.diff([0, *cuts, total]) / total
    entry = st.floats(0.01, 1.0)
    if kind == "zero_mass":
        entry = st.one_of(st.just(0.0), entry)
    raw = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    raw[draw(st.integers(0, n - 1))] += 1.0
    return raw / raw.sum()


def _generic_weights(seed, n):
    """Strictly positive weights whose CDF shares no breakpoint with the drawn
    ones (almost surely): the boxed dual's row maximizer is then unique."""
    return normalize(np.random.default_rng(seed).random(n) + 0.01).weights


# HiGHS's primal and dual feasibility tolerance
HIGHS_TOL = 1e-7


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_staircase_dual_matches_the_lp(data):
    C = data.draw(grid_costs(), label="C")
    n = C.n
    r = data.draw(simplex_weights(n), label="r")
    c = r if data.draw(st.booleans(), label="r == c") else data.draw(
        simplex_weights(n), label="c")
    value, lam, mu = staircase_dual(r, c, C)
    # HiGHS meets its primal and dual constraints to HIGHS_TOL, on the scale
    # of the cost entries, so an LP value is good to about HIGHS_TOL * |C|_inf
    lp_tol = HIGHS_TOL * C.inf_norm
    exact = exact_ot(DiscreteMeasure(r), DiscreteMeasure(c), C)
    assert abs(value - exact.value) <= lp_tol
    i, j, widths = staircase(r, c)
    assert abs(value - widths @ C.entries[i, j]) <= 1e-12 * (1 + value)
    assert (-C.entries - lam[:, None] - mu[None, :]).max() <= 1e-9
    assert np.abs(mu).max() <= C.inf_norm + 1e-9

    # the evaluators agree with their LP path on the unmarked copy of C
    lp_cost = CostMatrix.from_entries(C.entries)
    holdout = [c] + data.draw(st.lists(simplex_weights(n), max_size=2),
                              label="more holdout")
    weights = np.full(len(holdout), 1.0 / len(holdout))
    M = np.array([data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
                  for _ in holdout]) * C.inf_norm
    gaps = [duality_gap_finite(r, M, FiniteProblem(np.array(holdout), weights, cost))
            for cost in (C, lp_cost)]
    assert abs(gaps[0] - gaps[1]) <= lp_tol
    r_generic = _generic_weights(data.draw(st.integers(0, 2 ** 32 - 1)), n)
    surrogates = [gap_surrogate(r_generic, holdout, cost) for cost in (C, lp_cost)]
    assert abs(surrogates[0] - surrogates[1]) <= lp_tol
    # at r itself, zero-mass or tied, the maximizer is not unique and the LP
    # may take another one; any of them gives a non-negative bound
    assert gap_surrogate(r, holdout, C) >= -1e-9
    assert abs(gap_surrogate(c, [c], C)) <= 1e-9



def test_exact_ot_solves_a_loose_plan_again_at_a_tighter_tolerance():
    # found by test_staircase_dual_matches_the_lp's strategies: HiGHS's first
    # plan misses these marginals by 1.56e-7 in L1, and exact_ot refused it
    n = 26
    points = 3.0 * np.concatenate([[0.0], np.cumsum(np.ones(n - 1))]) / (n - 1)
    C = squared_distance_cost(Grid1D(points, points[0], points[-1]), 1.0)
    mass = np.r_[0, 11:n]
    r = np.zeros(n)
    r[mass] = 1.0 / 16
    raw = np.zeros(n)
    raw[mass] = 1.0
    raw[-1] = 0.99999
    c = raw / raw.sum()
    exact = exact_ot(DiscreteMeasure(r), DiscreteMeasure(c), C)
    assert (np.abs(exact.plan.sum(axis=1) - r).sum()
            + np.abs(exact.plan.sum(axis=0) - c).sum()) <= dual_core.FEAS_TOL
    assert abs(exact.value - staircase_dual(r, c, C)[0]) <= 1e-12


def test_staircase_keeps_the_last_cell_past_a_cumsum_that_overshoots_1():
    # found by test_staircase_dual_matches_the_lp's strategies: c's cumsum
    # ends 1.3e-15 past 1, and the last cell, of mass 0.0044, was dropped, so
    # gap_surrogate(c, [c], C) read 0.11
    n = 28
    points = 3.0 * np.concatenate([[0.0], np.cumsum(np.ones(n - 1))]) / (n - 1)
    C = squared_distance_cost(Grid1D(points, points[0], points[-1]), 1.0)
    raw = np.full(n, 0.01)
    raw[0] = 2.0
    c = raw / raw.sum()
    assert np.cumsum(c)[-1] > 1 + 1e-15
    i, j, widths = staircase(c, c)
    assert i[-1] == j[-1] == n - 1 and abs(widths.sum() - 1) <= 1e-14
    assert gap_surrogate(c, [c], C) == 0.0
    assert wasserstein_1d(DiscreteMeasure(c), DiscreteMeasure(c), Grid1D(
        points, points[0], points[-1])) == 0.0


def _gap_cases():
    """Seeded inputs of both gap evaluators: a grid cost (p in {1, 2}, scaled
    or not) or the same entries as an unmarked `from_entries` cost in turn,
    problem weights with zeros, and r and measures with zero-mass entries."""
    rng = np.random.default_rng(2027)
    for k in range(300):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        grid = Grid1D(np.sort(rng.uniform(-3.0, 3.0, n)), -3.0, 3.0)
        C = squared_distance_cost(grid, (1.0, 2.0)[int(rng.integers(2))])
        if rng.random() < 0.5:
            C = C.scaled(rng.uniform(0.1, 4.0))
        if k % 2:
            C = CostMatrix.from_entries(C.entries)
        mass = (rng.random((m + 1, n)) + 0.01) * (rng.random((m + 1, n)) < 0.7)
        mass[np.arange(m + 1), rng.integers(0, n, m + 1)] += 1.0
        mass /= mass.sum(axis=1, keepdims=True)
        weights = rng.random(m) * (rng.random(m) < 0.7)
        weights[int(rng.integers(m))] += 1.0
        M = rng.uniform(-1.0, 1.0, (m, n)) * C.inf_norm
        yield mass[0], FiniteProblem(mass[1:], weights / weights.sum(), C), M


def test_gap_outputs_are_bit_identical_to_the_two_gap_loops():
    # sha256 of the float64 gaps, recorded from duality_gap_finite and
    # gap_surrogate when each held a gap loop of its own
    h = hashlib.sha256()
    for r, problem, M in _gap_cases():
        gaps = (duality_gap_finite(r, M, problem),
                gap_surrogate(r, list(problem.measures), problem.C))
        for gap in gaps:
            assert type(gap) is float  # the report writes repr(gap)
            h.update(np.float64(gap).tobytes())
    assert h.hexdigest() == (
        "0a88a655b0521380a778c08344ed2cdf69ffa8a57a4451f064c450c6b9157f99")
