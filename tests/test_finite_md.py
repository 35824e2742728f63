import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from barystream import dual_core, finite_md
from barystream.dual_core import (
    CostMatrix,
    SolverError,
    lambda_star,
    lambda_star_argmax,
    squared_distance_cost,
    wasserstein_1d,
)
from barystream.finite_md import (
    FiniteProblem,
    FiniteSaddleState,
    duality_gap_finite,
    md_step,
    oracle_g,
    oracle_h,
    run_finite,
)
from barystream.measures import DiscreteMeasure, Grid1D, normalize

C2 = CostMatrix.from_entries([[0.0, 1.0], [1.0, 0.0]])


def toy_problem():
    measures = [DiscreteMeasure(np.array([1.0, 0.0]))]
    return FiniteProblem.from_measures(measures, C2)


@st.composite
def lse_vectors(draw):
    """Real vectors of length 1-128 with ties at the max and -inf entries."""
    n = draw(st.integers(1, 128))
    x = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    ties = draw(st.lists(st.integers(0, n - 1), max_size=n))
    x[ties] = x.max()
    neg_inf = draw(st.lists(st.integers(0, n - 1), max_size=n))
    x[neg_inf] = -np.inf
    if draw(st.booleans()):
        x[:] = -np.inf
    return x


@pytest.mark.skipif(
    tuple(int(p) for p in scipy.__version__.split(".")[:2]) < (1, 15),
    reason=f"scipy {scipy.__version__} < 1.15 uses another logsumexp arithmetic")
@settings(max_examples=300, deadline=None)
@given(lse_vectors())
def test_logsumexp_matches_scipy(x):
    np.testing.assert_allclose(finite_md.logsumexp(x), logsumexp(x),
                               rtol=1e-15, atol=0)


def test_logsumexp_edge_cases():
    inf, nan = np.inf, np.nan
    assert finite_md.logsumexp(np.array([-inf, -inf])) == -inf
    assert finite_md.logsumexp(np.array([inf, 1.0])) == inf
    assert finite_md.logsumexp(np.array([inf, -inf])) == inf
    assert np.isnan(finite_md.logsumexp(np.array([nan, 1.0])))
    assert np.isnan(finite_md.logsumexp(np.array([nan, inf])))


def test_oracle_g_values():
    M = np.zeros((1, 2))
    _, g = oracle_g(M, 0, 0, C2)
    assert g == -2 * max(0.0, -1.0) == 0.0
    M = np.array([[-3.0, -3.0]])
    _, g = oracle_g(M, 0, 0, C2)
    assert g == -2 * max(3.0, 2.0) == -6.0


def test_oracle_g_unbiased_by_enumeration():
    rng = np.random.default_rng(0)
    for n in (2, 5, 10):
        C = CostMatrix.from_entries(rng.random((n, n)))
        M = rng.uniform(-1, 1, size=(3, n))
        for t in range(3):
            # E_s[g_s e_s] with the 1/n sampling probability folded into g
            full = np.zeros(n)
            for s in range(n):
                _, g = oracle_g(M, t, s, C)
                full[s] += g / n
            np.testing.assert_allclose(full, -lambda_star(M[t], C), atol=1e-12)


def test_oracle_h_forced_draw():
    c_t = np.array([1.0, 0.0])
    h = oracle_h(np.zeros((1, 2)), 0, 0, c_t, C2)
    np.testing.assert_array_equal(h, [0.0, 0.0])  # J=0 and c_t = e_0 cancel


def test_oracle_h_norm_bound():
    rng = np.random.default_rng(1)
    n = 8
    C = CostMatrix.from_entries(rng.random((n, n)))
    for _ in range(100):
        M = rng.uniform(-2, 2, size=(2, n))
        c_t = normalize(rng.random(n)).weights
        q = int(rng.integers(n))
        h = oracle_h(M, 0, q, c_t, C)
        assert np.linalg.norm(h) <= 2.0 + 1e-12


def test_oracle_h_expectation_by_enumeration():
    rng = np.random.default_rng(2)
    n = 7
    C = CostMatrix.from_entries(rng.random((n, n)))
    M = rng.uniform(-1, 1, size=(1, n))
    c_t = normalize(rng.random(n)).weights
    r = normalize(rng.random(n)).weights
    expected = c_t.copy()
    for i in range(n):
        expected[lambda_star_argmax(M[0], C, i)] -= r[i]
    got = np.zeros(n)
    for q in range(n):
        got += r[q] * oracle_h(M, 0, q, c_t, C)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_oracle_h_expectation_monte_carlo():
    rng = np.random.default_rng(3)
    n = 50
    C = CostMatrix.from_entries(rng.random((n, n)))
    M = rng.uniform(-1, 1, size=(1, n))
    c_t = normalize(rng.random(n)).weights
    r = normalize(rng.random(n)).weights
    J = np.array([lambda_star_argmax(M[0], C, i) for i in range(n)])
    expected = c_t - np.bincount(J, weights=r, minlength=n)
    draws = 100_000
    qs = rng.choice(n, size=draws, p=r)
    acc = c_t[None, :] - np.eye(n)[J[qs]]
    mean = acc.mean(axis=0)
    # per-coordinate 3 sigma of a +-1 Bernoulli-type average
    sigma = 3.0 / math.sqrt(draws)
    assert np.abs(mean - expected).max() <= sigma


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_finite_problem_rejects_non_finite_weights(bad):
    measures = [DiscreteMeasure(np.array([1.0, 0.0])),
                DiscreteMeasure(np.array([0.0, 1.0]))]
    with pytest.raises(SolverError, match="m-simplex"):
        FiniteProblem.from_measures(measures, C2, [bad, 1.0])
    with pytest.raises(SolverError, match="m-simplex"):
        FiniteProblem.from_measures(measures, C2, [bad, 0.0])


@pytest.mark.parametrize("measures", [
    np.full((2, 3), 1 / 3),   # n = 3 against C2's 2
    np.array([0.5, 0.5]),     # one measure as a vector
    np.full((2, 2, 2), 0.25),
], ids=["wider", "vector", "three_axes"])
def test_finite_problem_refuses_measures_that_do_not_match_c(measures):
    with pytest.raises(SolverError, match="measures must be m x n matching C"):
        FiniteProblem(measures, np.full(len(measures), 1 / len(measures)), C2)


def test_md_step_hand_trace():
    problem = toy_problem()
    state = FiniteSaddleState.cold_start(problem, N=4)

    class FixedRng:
        def choice(self, n, p=None):
            return 0

        def integers(self, n):
            return 1

        def random(self):
            # t: index 0 of the one-measure law; q: index 0 of r = (0.5, 0.5)
            return 0.25

    s0 = state
    s1 = md_step(s0, problem, FixedRng())
    # hand execution: t=0, s=1, q=0; M=0 so g_1 = -2*max(-1-0, 0-0) = 0
    # J_0 = argmax(-C_00, -C_01) = 0, h = c_0 - e_0 = 0
    np.testing.assert_allclose(s1.r, [0.5, 0.5], atol=1e-15)
    np.testing.assert_array_equal(s1.M, np.zeros((1, 2)))
    np.testing.assert_allclose(s1.r_avg, [0.5, 0.5], atol=1e-15)
    assert s1.k == 1


def test_md_step_hand_trace_nontrivial():
    # force a nonzero g by seeding M away from zero
    measures = [DiscreteMeasure(np.array([0.0, 1.0]))]
    problem = FiniteProblem.from_measures(measures, C2)
    state = FiniteSaddleState.cold_start(problem, N=4)
    state.M = np.array([[-0.5, 0.25]])

    class FixedRng:
        def choice(self, n, p=None):
            return 0

        def integers(self, n):
            return 0

        def random(self):
            # t: index 0 of the one-measure law; q: index 0 of r = (0.5, 0.5)
            return 0.25

    s1 = md_step(state, problem, FixedRng())
    # g_0 = -2*max(0+0.5, -1-0.25) = -1; r_0 *= exp(alpha*eta)
    g0 = -2 * max(0.5, -1.25)
    logits = np.array([-state.alpha * state.eta * g0, 0.0])
    expected_r = np.exp(logits - logsumexp(logits))
    np.testing.assert_allclose(s1.r, expected_r, rtol=1e-12)
    # J_0 = argmax(0.5, -1.25) = 0, h = c_0 - e_0 = (-1, 1)
    expected_row = np.clip(np.array([-0.5, 0.25])
                           - state.beta * state.eta * np.array([-1.0, 1.0]),
                           -1.0, 1.0)
    np.testing.assert_allclose(s1.M[0], expected_row, rtol=1e-12)


def test_md_step_aborts_on_a_non_finite_iterate():
    problem = toy_problem()
    state = FiniteSaddleState.cold_start(problem, 10)
    state.eta = math.inf  # inf * 0 leaves NaN in log_r at the first step
    assert finite_md.NumericalAbort is dual_core.NumericalAbort
    with (pytest.raises(finite_md.NumericalAbort, match="non-finite iterate at k=1"),
          pytest.warns(RuntimeWarning, match="invalid value encountered")):
        md_step(state, problem, np.random.Generator(np.random.PCG64(0)))


def _snapshot(state):
    return (state.k, state.log_r.tobytes(), state.r.tobytes(), state.M.tobytes(),
            state.r_avg.tobytes(), state.M_avg.tobytes())


# (field, value) putting a NaN or an infinity into log_r or into row t: alpha
# scales log_r[s]'s step and beta row t's; M at half the box makes g_s > 0,
# so an infinite alpha gives log_r[s] = -/+inf and h's entries of both signs
# give an infinite beta +/-inf entries in the row
@pytest.mark.parametrize("field, value, aborts", [
    ("alpha", math.nan, True), ("alpha", math.inf, True), ("alpha", -math.inf, True),
    ("beta", math.nan, True), ("beta", math.inf, False), ("beta", -math.inf, False),
], ids=["log_r_nan", "log_r_-inf", "log_r_+inf", "row_nan", "row_inf", "row_-inf"])
def test_a_non_finite_log_r_or_row_aborts_and_changes_nothing(field, value, aborts):
    grid = Grid1D.uniform(0.0, 1.0, 4)
    problem = FiniteProblem.from_measures(
        [normalize(np.array([1.0, 2.0, 3.0, 4.0]), grid)],
        squared_distance_cost(grid, 2.0))
    state = FiniteSaddleState.cold_start(problem, 10)
    state.M[:] = 0.5 * problem.box_bound
    setattr(state, field, value)
    before = _snapshot(state)
    rng = np.random.Generator(np.random.PCG64(0))
    with np.errstate(invalid="ignore"):  # inf - inf, as the run loop steps
        if not aborts:
            # an infinite entry of row t is clipped into the box, as any is
            md_step(state, problem, rng)
            assert (np.abs(state.M[0]) == problem.box_bound).all()
            assert state.k == 1 and np.isfinite(state.log_r).all()
            return
        with pytest.raises(finite_md.NumericalAbort, match="^non-finite iterate at k=1"):
            md_step(state, problem, rng)
    assert _snapshot(state) == before


def test_run_finite_leaves_the_generator_where_per_call_draws_do_after_an_abort(
        monkeypatch):
    # step 301 aborts after its draws, past one block of raw words; the
    # caller's generator ends where md_step on the generator itself leaves it
    grid = Grid1D.uniform(0.0, 1.0, 4)
    problem = FiniteProblem.from_measures(
        [normalize(np.array([1.0, 2.0, 3.0, 4.0]), grid),
         normalize(np.array([4.0, 1.0, 1.0, 2.0]), grid)],
        squared_distance_cost(grid, 2.0))
    step = finite_md.md_step

    def aborting(state, problem, rng):
        if state.k == 300:
            state.alpha = math.nan
        return step(state, problem, rng)

    monkeypatch.setattr(finite_md, "md_step", aborting)
    ends = []
    for blocks in (False, True):
        state = FiniteSaddleState.cold_start(problem, 1000)
        rng = np.random.Generator(np.random.PCG64(17))
        with pytest.raises(finite_md.NumericalAbort, match="^non-finite iterate at k=301"):
            if blocks:
                run_finite(problem, 1000, 0, state=state, rng=rng)
            else:
                dual_core.drive(state, lambda s: aborting(s, problem, rng), 1000)
        ends.append((rng.bit_generator.state, _snapshot(state)))
    assert ends[0] == ends[1]


def test_a_cost_with_an_infinite_entry_is_refused():
    C = CostMatrix.from_entries([[0.0, math.inf], [1.0, 0.0]])
    with pytest.raises(SolverError, match="the cost must be finite"):
        FiniteProblem.from_measures([DiscreteMeasure(np.array([0.5, 0.5]))], C)


def test_box_and_simplex_preserved():
    rng = np.random.default_rng(5)
    g = Grid1D.uniform(0, 1, 4)
    C = squared_distance_cost(g, 2)
    measures = [normalize(rng.random(4), g) for _ in range(3)]
    problem = FiniteProblem.from_measures(measures, C)
    state = FiniteSaddleState.cold_start(problem, N=200)
    step_rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(200):
        state = md_step(state, problem, step_rng)
        assert abs(state.r.sum() - 1.0) <= 1e-12
        assert abs(state.r_avg.sum() - 1.0) <= 1e-10
        assert np.abs(state.M).max() <= problem.box_bound
        _, g_val = oracle_g(state.M, 0, int(step_rng.integers(4)), C)
        assert abs(g_val) <= 2 * 4 * C.inf_norm + 1e-12


def test_running_average_is_arithmetic_mean():
    problem = toy_problem()
    state = FiniteSaddleState.cold_start(problem, N=50)
    # before any step: r_avg is r, M_avg zeros
    assert state.r_avg is state.r and not state.M_avg.any()
    rng = np.random.Generator(np.random.PCG64(1))
    iterates, Ms = [], []
    for _ in range(50):
        state = md_step(state, problem, rng)
        iterates.append(state.r)
        Ms.append(state.M.copy())
    np.testing.assert_allclose(state.r_avg, np.mean(iterates, axis=0),
                               atol=1e-10)
    np.testing.assert_allclose(state.M_avg, np.mean(Ms, axis=0), atol=1e-10)


def test_run_finite_single_step_and_determinism():
    problem = toy_problem()
    r_avg, M_avg, _ = run_finite(problem, N=1, seed=3)
    state = FiniteSaddleState.cold_start(problem, N=1)
    rng = np.random.Generator(np.random.PCG64(3))
    expected = md_step(state, problem, rng)
    np.testing.assert_array_equal(r_avg, expected.r)
    a = run_finite(problem, N=100, seed=9)
    b = run_finite(problem, N=100, seed=9)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2].k == 100 and np.array_equal(a[2].r_avg, a[0])


def test_run_finite_rejects_bad_n():
    problem = toy_problem()
    for N in (0, -3):
        with pytest.raises(SolverError):
            run_finite(problem, N=N, seed=1)
    state = FiniteSaddleState.cold_start(problem, N=10)
    with pytest.raises(SolverError):
        run_finite(problem, N=0, seed=1, state=state)


def test_run_finite_seeded_trajectory_guard():
    # r_avg and M_avg recorded at N=200 from the scipy-logsumexp code on the
    # first criterion-06 family; a change that moves the trajectory fails here.
    grid = Grid1D.uniform(0.0, 1.0, 5)
    C = squared_distance_cost(grid, 2.0)
    rng = np.random.default_rng(500)
    measures = [normalize(rng.random(5) + 0.05, grid) for _ in range(5)]
    problem = FiniteProblem.from_measures(measures, C)
    r_avg, M_avg, _ = run_finite(problem, N=200, seed=500)
    np.testing.assert_allclose(r_avg, [
        0.20324118528092508, 0.20321147734449252, 0.20283393786952608,
        0.19774619403362245, 0.19296720547143423], rtol=1e-12)
    np.testing.assert_allclose(M_avg, [
        [-0.05407469765493459, -0.03590269770827084, 0.013770629425738605,
         0.01886330949520034, 0.05734345644226621],
        [-0.12494686924743963, 0.011051284327477214, -0.05477872287547462,
         0.07495155037433335, 0.09372275742110345],
        [0.05484745644776069, -0.013104462809563506, -0.03879769841519182,
         0.019283835149381395, -0.02222913037238631],
        [-0.1167153602870042, -0.021347930357813804, -0.04273060158272189,
         0.1131322510657925, 0.06766164116174754],
        [-0.1250547761817307, -0.05146093179829046, 0.033566788423243274,
         0.05650986769837775, 0.08643905185840069]], rtol=1e-12)


def test_run_finite_single_measure_converges():
    g = Grid1D.uniform(0, 1, 3)
    C = squared_distance_cost(g, 2)
    target = DiscreteMeasure(np.array([0.6, 0.3, 0.1]), g)
    problem = FiniteProblem.from_measures([target], C)
    r_avg, M_avg, _ = run_finite(problem, N=100_000, seed=4)
    est = normalize(r_avg, g)
    assert wasserstein_1d(est, target, g, p=1.0) < 0.1


def test_duality_gap_nonnegative_and_saddle():
    problem = toy_problem()
    rng = np.random.default_rng(8)
    for _ in range(10):
        r = normalize(rng.random(2)).weights
        M = rng.uniform(-1, 1, size=(1, 2))
        assert duality_gap_finite(r, M, problem) >= -1e-10
    # hand saddle: r* = c_1 = (1,0); mu = (0,1) gives lambda* = (0,-1),
    # F(r*, M*) = 0 and both partial optima are 0
    gap = duality_gap_finite(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]),
                             problem)
    assert abs(gap) <= 1e-8


def test_duality_gap_cold_start_value():
    problem = toy_problem()
    r = np.array([0.5, 0.5])
    M = np.zeros((1, 2))
    gap = duality_gap_finite(r, M, problem)
    # max part: boxed dual LP at r=(1/2,1/2) vs c=(1,0); min part: with M=0
    # lambda* = 0 so min over the simplex is 0.
    # LP by hand: maximize -<lambda, r> - mu_0 with lambda_i >= -C_ij - mu_j;
    # optimum mu = (-1, 0), lambda = (1, 0) -> value 1/2.
    assert abs(gap - 0.5) <= 1e-8


def test_gap_decreases_with_iterations():
    rng = np.random.default_rng(12)
    g = Grid1D.uniform(0, 1, 5)
    C = squared_distance_cost(g, 2)
    measures = [normalize(rng.random(5), g) for _ in range(5)]
    problem = FiniteProblem.from_measures(measures, C)
    gaps = {}
    for N in (200, 3200):
        r_avg, M_avg, _ = run_finite(problem, N=N, seed=21)
        gaps[N] = duality_gap_finite(r_avg, M_avg, problem)
    assert gaps[3200] < gaps[200]


def _running_mean_run(problem, N, seed, eta_scale):
    """md_step's trajectory with the averages kept as running means, as before
    they were sums: each mean scaled by (k-1)/k, then x/k added."""
    state = FiniteSaddleState.cold_start(problem, N)
    state.eta *= eta_scale
    rng = np.random.Generator(np.random.PCG64(seed))
    r_avg, M_avg = np.full(problem.n, 1.0 / problem.n), np.zeros_like(state.M)
    for k in range(1, N + 1):
        md_step(state, problem, rng)
        r_avg *= (k - 1) / k
        r_avg += state.r / k
        M_avg *= (k - 1) / k
        M_avg += state.M / k
    return r_avg, M_avg, state


@pytest.mark.parametrize("case", range(6))
def test_averages_kept_as_sums_match_the_running_means(case):
    # within 1e-12 relative for r_avg and the gap, and 1e-12 |C|_inf for M_avg,
    # whose entries cross 0; the sums change only the averages' rounding
    rng = np.random.default_rng(600 + case)
    n, m = [(5, 5), (3, 1), (8, 7), (5, 12)][case % 4]
    grid = Grid1D.uniform(0.0, 1.0, n)
    C = squared_distance_cost(grid, 2.0)
    weights = rng.random(m)
    problem = FiniteProblem.from_measures(
        [normalize(rng.random(n) + 0.05, grid) for _ in range(m)], C,
        weights / weights.sum())
    eta_scale = [1.0, 50.0, 1000.0][case % 3]
    r_ref, M_ref, ref = _running_mean_run(problem, 2000, case, eta_scale)
    state = FiniteSaddleState.cold_start(problem, 2000)
    state.eta *= eta_scale
    r_avg, M_avg, state = run_finite(problem, 2000, case, state=state)
    for a, b in ((state.log_r, ref.log_r), (state.r, ref.r), (state.M, ref.M)):
        assert a.tobytes() == b.tobytes()
    np.testing.assert_allclose(r_avg, r_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(M_avg, M_ref, rtol=0, atol=1e-12 * C.inf_norm)
    np.testing.assert_allclose(duality_gap_finite(r_avg, M_avg, problem),
                               duality_gap_finite(r_ref, M_ref, problem),
                               rtol=1e-12, atol=0)


def test_the_sums_settle_each_row_when_it_is_rewritten():
    grid = Grid1D.uniform(0.0, 1.0, 4)
    rng = np.random.default_rng(3)
    problem = FiniteProblem.from_measures(
        [normalize(rng.random(4) + 0.05, grid) for _ in range(3)],
        squared_distance_cost(grid, 2.0))
    state = FiniteSaddleState.cold_start(problem, 50)
    step_rng = np.random.Generator(np.random.PCG64(5))
    Ms = []
    for k in range(1, 51):
        md_step(state, problem, step_rng)
        Ms.append(state.M.copy())
        # M_sum[t] holds row t of steps 1..M_since[t], a whole number < k
        assert (state.M_since < k).all()
        assert (state.M_since == np.floor(state.M_since)).all()
        for t in range(3):
            settled = [M[t] for M in Ms[:int(state.M_since[t])]]
            np.testing.assert_allclose(state.M_sum[t], np.sum(settled, axis=0)
                                       if settled else 0.0, rtol=1e-13, atol=1e-15)
