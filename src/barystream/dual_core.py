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

from barystream.measures import DiscreteMeasure, Grid1D

EXACT_SOLVER_CAP = 64
FEAS_TOL = 1e-9
# HiGHS's primal feasibility tolerance for a plan that missed FEAS_TOL at 1e-7
LP_RETRY_FEAS_TOL = 1e-10
# exp of every float64 below this is exactly 0.0 (the cut is at -745.1332)
UNDERFLOW_BELOW = -746.0
# exp of every float64 at or below this is below 2**-1021: subnormal or 0.0
SUBNORMAL_CUT = math.log(2.0 ** -1022)


class SolverError(RuntimeError):
    """An exact LP solve failed or was rejected (cap, infeasible marginals)."""


class NumericalAbort(RuntimeError):
    """A non-finite intermediate value appeared during a step."""


def linprog(*args, **kwargs):
    """scipy's HiGHS `linprog`, imported at the first call: only `certify` and
    costs off the grid solve an LP, and importing scipy.optimize costs most of
    the package's import time."""
    from scipy.optimize import linprog as highs
    return highs(*args, **kwargs)


def drive(state, step, N: int, callback=None):
    """Apply step(state) until state.k reaches N; return the last state.

    The one run loop of every method. Each step advances the state in place
    and returns it, or raises and leaves it as it was. callback(state), when
    given, runs after each step. N < 1 raises before the first step.
    """
    if N < 1:
        raise SolverError(f"N must be >= 1, got {N}")
    while state.k < N:
        state = step(state)
        if callback is not None:
            callback(state)
    return state


@dataclass
class CarriedSoftmax:
    """r, the softmax of a state's log_r, carried from step to step.

    A step passes the softmax it computed for its running average. A state
    built without r (a cold start, a checkpoint restore) computes it from
    log_r here as exp(log_r - logsumexp(log_r)). Every step writes both
    fields through `set_log_r`, the one writer of either, whose log_r has
    max exactly 0; its r has the bits of that expression there, so the
    carried and the rebuilt r agree. Checkpoints do not store r.
    """

    r: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        if self.r is None:
            self.r = np.exp(self.log_r - logsumexp(self.log_r))

    def set_log_r(self, x: np.ndarray, what: str) -> None:
        """Make x, shifted in place by its max, the state's log_r, and its
        softmax (`_shifted_softmax`) the state's r.

        x's entries are all finite exactly when the shifted x's min is:
        subtracting a NaN or +inf max makes every entry or that entry NaN,
        min and max propagate NaN, and a -inf entry or one whose shift
        overflows stays -inf. A non-finite x raises NumericalAbort naming
        `what` and step k + 1 and leaves the state as it was; x may be
        shifted.
        """
        x -= x.max()
        if not math.isfinite(x.min()):
            raise NumericalAbort(f"non-finite {what} at k={self.k + 1}")
        self.log_r, self.r = x, _shifted_softmax(x)


def _shifted_softmax(x: np.ndarray) -> np.ndarray:
    """exp(x - logsumexp(x)) of an x whose max is exactly 0 (+0.0) and which
    holds no NaN or +inf, bit for bit, -inf entries included.

    This is `logsumexp`'s arithmetic with a = 0 and no second max or
    subtract: the entries at the max are those equal to 0, their exps are
    zeroed, s is the sum of the others and m their count, and
    log1p(s / m) + log(m) is the same number, since x - 0.0 and + 0.0 change
    no bit of such an x or of a sum >= 0. When m = 1, s / m and + log(m)
    change no bit either, so they are skipped. On such an x nothing
    overflows, divides by 0 or is invalid, so it emits no warning.
    """
    at_max = x == 0
    e = np.exp(x)
    e[at_max] = 0.0
    s = e.sum()
    m = np.count_nonzero(at_max)
    lse = np.log1p(s) if m == 1 else np.log1p(s / m) + np.log(m)
    return np.exp(x - lse)


@dataclass
class AveragedIterate(CarriedSoftmax):
    """r_avg of a stream-method state: the running sum avg_num of iterates over
    its total weight avg_den (r before any step)."""

    @property
    def r_avg(self) -> np.ndarray:
        if self.avg_den == 0:
            return self.r
        return self.avg_num / self.avg_den


@dataclass(frozen=True)
class CostMatrix:
    """Non-negative n x n cost matrix with its sup-norm, computed here.

    grid_monge marks |x_i - x_j|^p (p >= 1, times a factor >= 0) on a strictly
    increasing grid. Such a matrix is Monge, so the staircase coupling of two
    CDFs is optimal for it and `boxed_dual` reads its duals off the staircase.
    Only `squared_distance_cost` sets the mark and `scaled` keeps it.
    """

    entries: np.ndarray
    grid_monge: bool = False
    inf_norm: float = field(init=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise SolverError("cost matrix must be square")
        if np.any(e < 0):
            raise SolverError("cost matrix must be non-negative")
        object.__setattr__(self, "inf_norm", float(np.abs(e).max()))

    @classmethod
    def from_entries(cls, entries) -> "CostMatrix":
        return cls(entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def scaled(self, factor: float) -> "CostMatrix":
        return CostMatrix(self.entries * factor, self.grid_monge)


def squared_distance_cost(grid: Grid1D, p: float = 2.0) -> CostMatrix:
    """C_ij = |x_i - x_j|^p for grid locations x, marked as a grid Monge cost."""
    if p < 1:
        raise SolverError("cost exponent p must be >= 1")
    x = grid.points
    return CostMatrix(np.abs(x[:, None] - x[None, :]) ** p, grid_monge=True)


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
    -<lambda, r> - <mu, c>. HiGHS works to a primal feasibility tolerance of
    1e-7 and can drop a mass below it while its gap reads 0, so a plan whose
    marginals miss r and c by more than FEAS_TOL in L1 is solved once more
    at a primal feasibility tolerance of LP_RETRY_FEAS_TOL, and refused if it
    still misses. A plan that meets FEAS_TOL at the first solve is kept.
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

    def solve(**options):
        res = linprog(C.entries.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs", options=options)
        if not res.success:
            raise SolverError(f"exact_ot: LP failed: {res.message}")
        plan = res.x.reshape(n, n)
        residual = (np.abs(plan.sum(axis=1) - r.weights).sum()
                    + np.abs(plan.sum(axis=0) - c.weights).sum())
        return res, plan, residual

    options = {}
    try:
        res, plan, residual = solve()
    except SolverError:
        # presolve can misreport infeasibility when marginals carry entries
        # far below its feasibility tolerance; retry without it
        options = {"presolve": False}
        res, plan, residual = solve(**options)
    if residual > FEAS_TOL:
        res, plan, residual = solve(**options,
                                    primal_feasibility_tolerance=LP_RETRY_FEAS_TOL)
    if residual > FEAS_TOL:
        raise SolverError(f"exact_ot: the plan misses its marginals by {residual:.3g}"
                          f" in L1, past {FEAS_TOL:g}")
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
    # all quantile breakpoints of either step CDF, the last one included
    # wherever rounding leaves it: a cumsum of n weights can end some n ulps
    # past 1, and a cut there would drop the last cell's whole mass
    q = np.union1d(cdf_r, cdf_c)
    q = q[q > 0]
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

    The exp is taken only where z = a - max > UNDERFLOW_BELOW and a is not
    at the max, on a zeroed buffer. That is exact: every float64 below
    -745.14 has exp exactly 0.0, and the entries at the max are zeroed
    anyway, so the sums see the same addends in the same order as from a
    full exp, -inf, +inf and NaN slices included (their z is NaN or -inf,
    which the mask leaves at 0.0). numpy's exp is several times slower on
    arguments that underflow than on others, and at Sinkhorn's small gamma
    most of them do; where few do, the mask costs a few microseconds.
    """
    axes = tuple(range(a.ndim)) if axis is None else (axis,)
    a_max = a.max(axis=axes, keepdims=True)
    at_max = a == a_max
    with np.errstate(divide="ignore", invalid="ignore"):  # non-finite maxima
        z = a - a_max
        live = z > UNDERFLOW_BELOW
        live &= ~at_max
        e = np.zeros_like(z)
        np.exp(z, out=e, where=live)
        s = e.sum(axis=axes, keepdims=True)
        m = at_max.sum(axis=axes, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max).squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


def _half_step_lse(neg_cg: np.ndarray, p: np.ndarray, axis: int,
                   z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """`logsumexp_axis(neg_cg + p, axis)` of a 2-D `neg_cg`, in the buffers
    `z` and `e` (each shaped and laid out as `neg_cg`), without the exps
    whose result is subnormal.

    z = neg_cg + p is shifted by its max in place, so the entries at the max
    are the zeros of z (a - a_max == 0 exactly when a == a_max, for a finite
    max). The exp is taken into `e` where SUBNORMAL_CUT < z < 0. Each skipped
    addend is below 2**-1021, so a slice's result moves by at most
    n * 2**-1021 plus one rounding, and only where its other exps all lie
    below about 1e-292; every other slice gets the bits of `logsumexp_axis`.
    When every slice has one max, m = 1 and s / m and + log(m) change no
    bit, so one count replaces the per-slice sums. A slice with a non-finite
    max goes to `logsumexp_axis` unchanged.
    """
    np.add(neg_cg, p, out=z)
    z_max = z.max(axis=axis, keepdims=True)
    if not np.isfinite(z_max).all():
        return logsumexp_axis(z, axis)
    z -= z_max
    at_max = z == 0
    live = z > SUBNORMAL_CUT
    live ^= at_max  # at_max lies inside live
    e.fill(0.0)
    np.exp(z, out=e, where=live)
    s = e.sum(axis=axis, keepdims=True)
    if np.count_nonzero(at_max) == z_max.size:
        out = np.log1p(s) + z_max
    else:
        m = at_max.sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + z_max
    return out.squeeze(axis=axis)


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
    is returned with the `unstable` flag set. A grid cost cannot reach that
    exit: its zero diagonal puts a finite term in every row and column of
    -C/gamma plus a finite potential, so every log-sum-exp stays finite. A
    cost with no zero entry reaches it once -C/gamma overflows to -inf.

    Each half-step is `_half_step_lse`, in two n x n buffers allocated once
    per solve. Its n^2 passes: add the potential to -C/gamma, take the max,
    subtract it in place, compare with 0 (the max) and with the cut, one
    `^=` for the live mask, zero the exp buffer, the masked exp, and the sum.
    It gives the bits of `logsumexp_axis(-C/gamma + potential, axis)` except
    that it skips the exps whose result is subnormal (z <= SUBNORMAL_CUT =
    -708.40), which numpy's exp takes about a hundred times longer to make
    than a normal result. Each skipped addend is below 2**-1021, so a
    log-sum-exp moves by at most n * 2**-1021 plus one rounding, and only on
    a slice whose other exps all lie below about 1e-292
    (BENCH_sinkhorn_halfstep.json).
    """
    if gamma <= 0:
        raise SolverError("sinkhorn: gamma must be positive")
    if np.any(r.weights <= 0) or np.any(c.weights <= 0):
        raise SolverError("sinkhorn: marginals must be strictly positive")
    log_r = np.log(r.weights)
    log_c = np.log(c.weights)
    neg_cg = -C.entries / gamma
    z, e = np.empty_like(neg_cg), np.empty_like(neg_cg)
    u = np.zeros(C.n)
    v = np.zeros(C.n)
    col_lse = None
    dual_values = []
    unstable = False
    it = 0
    for it in range(1, max_iter + 1):
        row_lse = _half_step_lse(neg_cg, v[None, :], 1, z, e)
        if it > 1:
            # marginals of the previous iterate (u, v)
            row_sums = np.exp(u + row_lse)
            residual = (np.abs(row_sums - r.weights).sum()
                        + np.abs(np.exp(v + col_lse) - c.weights).sum())
            if residual <= tol:
                it -= 1
                break
        u_new = log_r - row_lse
        col_lse_new = _half_step_lse(neg_cg, u_new[:, None], 0, z, e)
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
