"""Cost matrices, Kantorovich duality, and exact small-scale OT solvers.

The transport cost is L_C(r, c) = min <C, X> over plans X with marginals
(r, c). Its dual in potentials (lambda, mu) with -C_ij - lambda_i - mu_j <= 0
is max -<lambda, r> - <mu, c>; eliminating lambda gives the row-wise map
lambda*_i(mu) = max_j(-C_ij - mu_j). On a grid Monge cost the exact value
and an optimal dual come from the staircase (quantile) coupling of the two
CDFs; any other exact solve goes through an LP and is capped at small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from barystream.measures import DiscreteMeasure, Grid1D

EXACT_SOLVER_CAP = 64
FEAS_TOL = 1e-9


class SolverError(RuntimeError):
    """An exact LP solve failed or was rejected (cap, infeasible marginals)."""


def drive(state, step, N: int, callback=None):
    """Apply step(state) -> state until state.k reaches N; return the last state.

    The one run loop of every method. callback(state), when given, runs after
    each step. N < 1 raises before the first step.
    """
    if N < 1:
        raise SolverError(f"N must be >= 1, got {N}")
    while state.k < N:
        state = step(state)
        if callback is not None:
            callback(state)
    return state


@dataclass
class AveragedIterate:
    """r and r_avg of a stream-method state: the softmax of log_r, and the
    running sum avg_num of iterates over its total weight avg_den (r before
    any step).

    r is carried from step to step: a step passes the softmax it computed for
    its running average. A state built without r (a cold start, a checkpoint
    restore) computes it from log_r here, with the same expression, so the
    carried and the rebuilt r agree bit for bit. Checkpoints do not store it.
    """

    r: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        if self.r is None:
            self.r = np.exp(self.log_r - logsumexp(self.log_r))

    @property
    def r_avg(self) -> np.ndarray:
        if self.avg_den == 0:
            return self.r
        return self.avg_num / self.avg_den


@dataclass(frozen=True)
class CostMatrix:
    """Non-negative n x n cost matrix with cached sup-norm.

    grid_monge marks |x_i - x_j|^p (p >= 1, times a factor >= 0) on a strictly
    increasing grid. Such a matrix is Monge, so the staircase coupling of two
    CDFs is optimal for it and `boxed_dual` reads its duals off the staircase.
    Only `squared_distance_cost` sets the mark and `scaled` keeps it.
    """

    entries: np.ndarray
    inf_norm: float
    grid_monge: bool = False

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise SolverError("cost matrix must be square")
        if np.any(e < 0):
            raise SolverError("cost matrix must be non-negative")

    @classmethod
    def from_entries(cls, entries) -> "CostMatrix":
        e = np.asarray(entries, dtype=float)
        return cls(e, float(np.abs(e).max()))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def scaled(self, factor: float) -> "CostMatrix":
        e = self.entries * factor
        return CostMatrix(e, float(np.abs(e).max()), self.grid_monge)


def squared_distance_cost(grid: Grid1D, p: float = 2.0) -> CostMatrix:
    """C_ij = |x_i - x_j|^p for grid locations x, marked as a grid Monge cost."""
    if p < 1:
        raise SolverError("cost exponent p must be >= 1")
    x = grid.points
    e = np.abs(x[:, None] - x[None, :]) ** p
    return CostMatrix(e, float(np.abs(e).max()), grid_monge=True)


def lambda_star(mu, C: CostMatrix) -> np.ndarray:
    """Row-wise partial maximization lambda*_i = max_j(-C_ij - mu_j)."""
    mu = np.asarray(mu, dtype=float)
    return np.max(-C.entries - mu[None, :], axis=1)


def lambda_star_argmax(mu, C: CostMatrix, row: int) -> int:
    """Smallest index attaining max_j(-C_{row,j} - mu_j)."""
    return int(np.argmax(-C.entries[row] - np.asarray(mu, dtype=float)))


@dataclass(frozen=True)
class OtSolution:
    """Primal-dual certificate for an exact OT solve."""

    value: float
    plan: np.ndarray
    dual_lambda: np.ndarray
    dual_mu: np.ndarray
    gap: float


def exact_ot(r: DiscreteMeasure, c: DiscreteMeasure, C: CostMatrix) -> OtSolution:
    """Solve the n x n transportation LP with a primal-dual certificate.

    The dual is returned in the sign convention of the potentials above:
    feasibility reads -C_ij - lambda_i - mu_j <= 0 and the dual value is
    -<lambda, r> - <mu, c>.
    """
    n = C.n
    if r.n != n or c.n != n:
        raise SolverError("exact_ot: dimension mismatch")
    if n > EXACT_SOLVER_CAP:
        raise SolverError(f"exact_ot: n={n} exceeds the exact-solver cap "
                          f"{EXACT_SOLVER_CAP}; use sinkhorn")
    if abs(r.weights.sum() - c.weights.sum()) > FEAS_TOL:
        raise SolverError("exact_ot: marginal sums differ")

    # row-sum and column-sum equality constraints on the flattened plan
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n:(i + 1) * n] = 1.0
        a_eq[n + i, i::n] = 1.0
    b_eq = np.concatenate([r.weights, c.weights])
    res = linprog(C.entries.ravel(), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:
        # presolve can misreport infeasibility when marginals carry entries
        # far below its feasibility tolerance; retry without it
        res = linprog(C.entries.ravel(), A_eq=a_eq, b_eq=b_eq,
                      bounds=(0, None), method="highs",
                      options={"presolve": False})
    if not res.success:
        raise SolverError(f"exact_ot: LP failed: {res.message}")
    plan = res.x.reshape(n, n)
    # HiGHS equality marginals y satisfy y_i + y_{n+j} <= C_ij, value = y.b
    lam = -res.eqlin.marginals[:n]
    mu = -res.eqlin.marginals[n:]
    value = float(res.fun)
    dual_value = float(-(lam @ r.weights) - (mu @ c.weights))
    return OtSolution(value=value, plan=plan, dual_lambda=lam, dual_mu=mu,
                      gap=value - dual_value)


def staircase(r_weights: np.ndarray, c_weights: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The north-west-corner (quantile) coupling of two weight vectors.

    Returns its cells (idx_r[k], idx_c[k]) and their masses widths[k], in
    order of quantile level: the cell of each interval between consecutive
    breakpoints of either step CDF. Both indices are non-decreasing, so the
    cells form a staircase from the first to the last index with mass.
    """
    cdf_r = np.cumsum(r_weights)
    cdf_c = np.cumsum(c_weights)
    # all quantile breakpoints of either step CDF
    q = np.union1d(cdf_r, cdf_c)
    q = q[(q > 0) & (q <= 1 + 1e-15)]
    levels = np.concatenate([[0.0], q])
    widths = np.diff(levels)
    # quantile at level just above levels[k]: first index with cdf >= level
    mid = 0.5 * (levels[:-1] + levels[1:])
    # rounding can leave the last cumsum entry a hair below 1
    idx_r = np.minimum(np.searchsorted(cdf_r, mid, side="left"), cdf_r.size - 1)
    idx_c = np.minimum(np.searchsorted(cdf_c, mid, side="left"), cdf_c.size - 1)
    return idx_r, idx_c, widths


def wasserstein_1d(r: DiscreteMeasure, c: DiscreteMeasure, grid: Grid1D,
                   p: float = 2.0) -> float:
    """Exact 1-D p-Wasserstein distance via the quantile coupling.

    Both measures live on the same sorted grid, so the optimal coupling is
    monotone: integrate |F_r^{-1}(q) - F_c^{-1}(q)|^p over quantile levels q.
    """
    if p < 1:
        raise SolverError("wasserstein_1d: p must be >= 1")
    idx_r, idx_c, widths = staircase(r.weights, c.weights)
    xi = grid.points[idx_r]
    xj = grid.points[idx_c]
    return float(np.sum(widths * np.abs(xi - xj) ** p) ** (1.0 / p))


def staircase_dual(r_weights: np.ndarray, c_weights: np.ndarray,
                   C: CostMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact OT value and an optimal dual (value, lambda, mu) for a grid Monge
    cost, from the staircase; r and c must carry the same mass.

    Complementary slackness puts lambda_i + mu_j = -C_ij on every staircase
    cell. Consecutive cells share a column (lambda steps by the difference of
    the two rows' costs there), share a row (lambda stays) or, where both
    CDFs step at one level, share neither. There the duals of the two parts
    may take any offset between those the connecting cells (i', j) and
    (i, j') give; both are feasible for a Monge C, and their midpoint is
    taken, which keeps lambda constant when r == c on a symmetric C. One
    formula covers all three steps.

    The rest are c-transforms: mu on the columns with mass from lambda on
    the staircase rows, lambda on every row from those columns alone, then
    mu on every column from lambda. Leaving the zero-mass columns out of
    lambda is the largest mu there, which makes lambda_star(mu) smallest and
    so the bound gap_surrogate builds from it tightest. mu is a c-transform,
    so its range is at most |C|_inf: shifted to min mu = 0 it lies in the
    box [0, |C|_inf]. O(n^2) for the c-transforms.
    """
    i, j, _ = staircase(r_weights, c_weights)
    e = C.entries
    step = 0.5 * ((e[i[:-1], j[:-1]] - e[i[1:], j[:-1]])
                  + (e[i[:-1], j[1:]] - e[i[1:], j[1:]]))
    lam = np.full(C.n, np.inf)  # an inf potential drops out of a c-transform
    lam[i] = np.concatenate([[0.0], np.cumsum(step)])
    mu = np.max(-e - lam[:, None], axis=0)
    mu[np.asarray(c_weights) == 0] = np.inf
    lam = lambda_star(mu, C)
    mu = np.max(-e - lam[:, None], axis=0)
    mu -= mu.min()
    lam = lambda_star(mu, C)
    return float(-(lam @ r_weights) - (mu @ c_weights)), lam, mu


def logsumexp(x: np.ndarray) -> np.float64:
    """log(sum(exp(x))) of a real 1-D array, without scipy's per-call overhead.

    Follows the arithmetic of scipy 1.17's `scipy.special.logsumexp` step for
    step, so results agree with it bit for bit: take the max a and the count m
    of entries equal to it, sum exp(x - a) over the other entries to get s,
    divide s by m when s != 0, and return log1p(s) + log(m) + a. When the max
    is not finite (an all -inf input, a +inf or a NaN entry) it returns
    log(sum(exp(x))) as scipy does, so -inf, +inf and NaN come out as there.
    scipy < 1.15 computed a + log(sum(exp(x - a))) and is not matched bit for
    bit.
    """
    a = x.max()
    if not math.isfinite(a):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.log(np.exp(x).sum())
    at_max = x == a
    e = np.exp(x - a)
    e[at_max] = 0.0
    s = e.sum()
    m = np.count_nonzero(at_max)
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a


def logsumexp_axis(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """`logsumexp` of a real array reduced along `axis` (all axes for None).

    The same arithmetic as the 1-D version, per slice, with the same
    reductions scipy 1.17 makes, so results agree with
    `scipy.special.logsumexp(a, axis=axis)` bit for bit. No fallback is
    needed here: since the entries at the max are zeroed after the exp, a
    slice with max -inf, +inf or NaN comes out -inf, +inf or NaN, as scipy's
    log(sum(exp(a))) gives. The 1-D version is kept for vectors: it costs a
    quarter of this one there.
    """
    axes = tuple(range(a.ndim)) if axis is None else (axis,)
    a_max = a.max(axis=axes, keepdims=True)
    at_max = a == a_max
    with np.errstate(divide="ignore", invalid="ignore"):  # non-finite maxima
        e = np.exp(a - a_max)
        e[at_max] = 0.0
        s = e.sum(axis=axes, keepdims=True)
        m = at_max.sum(axis=axes, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max).squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class SinkhornSolution:
    """Converged (or last finite) state of the entropic scaling iteration."""

    u: np.ndarray
    v: np.ndarray
    plan: np.ndarray
    reg_value: float
    marginal_residual: float
    dual_values: np.ndarray
    n_iter: int
    unstable: bool


def sinkhorn(r: DiscreteMeasure, c: DiscreteMeasure, C: CostMatrix,
             gamma: float, max_iter: int = 1000, tol: float = 1e-9) -> SinkhornSolution:
    """Entropy-regularized OT by alternating scaling, fully in log domain.

    The plan is diag(e^u) e^{-C/gamma} diag(e^v); the dual objective of the
    regularized problem is tracked per iteration (block-coordinate ascent,
    so it is monotone non-decreasing). The loop never forms the plan: after
    the v half-step the column sums of an iterate are exp(v + col_lse), and
    its row sums are exp(u + row_lse), where row_lse is what the next u
    half-step computes anyway. So the marginal residual and the dual value
    gamma (u.r + v.c - sum of plan) of each iterate are read one half-step
    late, in O(n), and differ from the plan's own sums only in rounding
    (measured below 2e-15 in the residual at n=100); when the residual is
    within `tol` that iterate is returned. The plan, `marginal_residual`,
    `reg_value` and the last dual value are computed once, at exit, from the
    returned (u, v). If a potential goes non-finite the last finite iterate
    is returned with the `unstable` flag set.
    """
    if gamma <= 0:
        raise SolverError("sinkhorn: gamma must be positive")
    if np.any(r.weights <= 0) or np.any(c.weights <= 0):
        raise SolverError("sinkhorn: marginals must be strictly positive")
    log_r = np.log(r.weights)
    log_c = np.log(c.weights)
    neg_cg = -C.entries / gamma
    u = np.zeros(C.n)
    v = np.zeros(C.n)
    col_lse = None
    dual_values = []
    unstable = False
    it = 0
    for it in range(1, max_iter + 1):
        row_lse = logsumexp_axis(neg_cg + v[None, :], axis=1)
        if it > 1:
            # marginals of the previous iterate (u, v)
            row_sums = np.exp(u + row_lse)
            residual = (np.abs(row_sums - r.weights).sum()
                        + np.abs(np.exp(v + col_lse) - c.weights).sum())
            if residual <= tol:
                it -= 1
                break
        u_new = log_r - row_lse
        col_lse_new = logsumexp_axis(neg_cg + u_new[:, None], axis=0)
        v_new = log_c - col_lse_new
        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
            unstable = True
            break
        if it > 1:
            dual_values.append(
                gamma * (u @ r.weights + v @ c.weights - row_sums.sum()))
        u, v, col_lse = u_new, v_new, col_lse_new
    plan = np.exp(u[:, None] + neg_cg + v[None, :])
    if it - unstable > 0:
        # the returned iterate's own dual value, from its plan
        dual_values.append(gamma * (u @ r.weights + v @ c.weights - plan.sum()))
    residual = (np.abs(plan.sum(axis=1) - r.weights).sum()
                + np.abs(plan.sum(axis=0) - c.weights).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(plan > 0, plan * np.log(plan), 0.0)
    reg_value = float((C.entries * plan).sum() + gamma * ent.sum())
    return SinkhornSolution(u=u, v=v, plan=plan, reg_value=reg_value,
                            marginal_residual=float(residual),
                            dual_values=np.asarray(dual_values),
                            n_iter=it, unstable=unstable)


def boxed_dual_lp(r_weights: np.ndarray, c_weights: np.ndarray, C: CostMatrix,
                  box: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximize -<lambda, r> - <mu, c> s.t. -C_ij - lambda_i - mu_j <= 0
    and |mu_j| <= box. Returns (value, lambda, mu)."""
    n = C.n
    # variables x = (lambda, mu); minimize <lambda, r> + <mu, c>
    cost = np.concatenate([r_weights, c_weights])
    a_ub = np.zeros((n * n, 2 * n))
    rows = np.repeat(np.arange(n), n)
    cols = np.tile(np.arange(n), n)
    a_ub[np.arange(n * n), rows] = -1.0
    a_ub[np.arange(n * n), n + cols] = -1.0
    b_ub = C.entries.ravel()
    bounds = [(None, None)] * n + [(-box, box)] * n
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise SolverError(f"boxed dual LP failed: {res.message}")
    lam = res.x[:n]
    mu = res.x[n:]
    return float(-res.fun), lam, mu


def boxed_dual(r_weights: np.ndarray, c_weights: np.ndarray,
               C: CostMatrix) -> tuple[float, np.ndarray, np.ndarray]:
    """An optimum (value, lambda, mu) of the dual boxed at |mu|_inf <= |C|_inf:
    `staircase_dual` on a grid Monge cost, where the box is lossless, else
    `boxed_dual_lp`, capped at n <= EXACT_SOLVER_CAP."""
    if C.grid_monge:
        return staircase_dual(r_weights, c_weights, C)
    if C.n > EXACT_SOLVER_CAP:
        raise SolverError(f"boxed dual: n={C.n} exceeds the exact-solver cap "
                          f"{EXACT_SOLVER_CAP} of a cost that is not a grid cost")
    return boxed_dual_lp(r_weights, c_weights, C, C.inf_norm)


def saddle_gap(r, measures, weights, C: CostMatrix, M=None) -> float:
    """max_M' F(r, M') - min_r' F(r', M) for the finite saddle objective
    F(r, M) = sum_t w_t [ -<lambda*(M_t), r> - <M_t, c_t> ]: one boxed dual OT
    problem per row of weight > 0 (`boxed_dual`), and the smallest coordinate
    of the averaged -lambda*. M=None takes each row's boxed dual maximizer at
    r, which makes the gap the primal suboptimality of r."""
    r = np.asarray(r, dtype=float)
    max_part = 0.0
    neg_lam = np.zeros(C.n)
    cross = 0.0
    for t, (c, w) in enumerate(zip(measures, weights)):
        if w == 0:
            continue
        value, _, mu = boxed_dual(r, c, C)
        mu = mu if M is None else M[t]
        max_part += w * value
        neg_lam += w * (-lambda_star(mu, C))
        cross += w * float(mu @ c)
    return float(max_part - (float(neg_lam.min()) - cross))


def certify_dual_bound(r: DiscreteMeasure, c: DiscreteMeasure, C: CostMatrix,
                       tol: float = 1e-7) -> tuple[bool, np.ndarray]:
    """Check that boxing the dual variable at the cost sup-norm is lossless.

    Solves the dual LP with the extra constraint |mu|_inf <= |C|_inf and
    compares its optimum to the unrestricted exact value. The witness mu is
    shifted so that min_i mu_i = 0 (the shift moves into lambda and leaves
    the dual value unchanged). `exact_ot` runs first, so n past the cap is
    refused before the boxed LP builds its n^2 x 2n constraint matrix.
    """
    if np.any(r.weights <= 0) or np.any(c.weights <= 0):
        raise SolverError("certify_dual_bound: marginals must be strictly positive")
    exact = exact_ot(r, c, C)
    boxed_value, _lam, mu = boxed_dual_lp(r.weights, c.weights, C, C.inf_norm)
    ok = abs(boxed_value - exact.value) <= tol * (1.0 + abs(exact.value))
    return ok, mu - mu.min()
