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
# how far a sinkhorn potential may drift from the one its half-step's kernel
# was frozen at, and the shifted exponent at or below which the kernel is 0
TAU = 200.0
KEEP_ABOVE = SUBNORMAL_CUT + TAU
# float64 spacing is 512 at and above 2**61, so adding a log-scaling in
# [-TAU, TAU] to a sinkhorn potential this large leaves it as it is
PIN_AT = 2.0 ** 61


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

    A step passes the softmax it computed for its running average. Every
    state's log_r has max exactly 0: construction shifts log_r in place by
    its max, which changes no bit of a log_r whose max is already 0 (x - 0.0
    is x), and every step writes both fields through `set_log_r` or
    `set_log_r_entry`, the only writers of either. A state built without r
    (a cold start, a checkpoint restore) computes it here with the writers'
    `_shifted_softmax`, whose premises hold: the shift leaves a max of
    +0.0, and cold starts and restores hold only finite entries. So the
    carried and the rebuilt r agree. Checkpoints do not store r.
    """

    r: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        self.log_r -= self.log_r.max()
        if self.r is None:
            self.r = _shifted_softmax(self.log_r)

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
        x -= np.maximum.reduce(x)
        if not math.isfinite(np.minimum.reduce(x)):
            raise NumericalAbort(f"non-finite {what} at k={self.k + 1}")
        self.log_r, self.r = x, _shifted_softmax(x)

    def set_log_r_entry(self, s: int, value: float, what: str) -> None:
        """`set_log_r` of a copy of log_r with entry s set to value, writing
        log_r in place when that keeps its max at 0.

        When log_r[s] < 0 and value <= 0, an entry other than s holds the
        max, 0, before and after, so the shift by the max changes no bit and
        only value needs checking: a non-finite value raises NumericalAbort
        as `set_log_r` does, before anything is written. Otherwise (s holds
        the max, or value is > 0 or NaN) the copy goes through `set_log_r`.
        """
        log_r = self.log_r
        if log_r[s] < 0 and value <= 0:
            if not math.isfinite(value):
                raise NumericalAbort(f"non-finite {what} at k={self.k + 1}")
            log_r[s] = value
            self.r = _shifted_softmax(log_r)
        else:
            x = log_r.copy()
            x[s] = value
            self.set_log_r(x, what)


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
    s = np.add.reduce(e)
    m = np.count_nonzero(at_max)
    lse = np.log1p(s) if m == 1 else np.log1p(s / m) + np.log(m)
    return np.exp(x - lse)


@dataclass
class AveragedIterate(CarriedSoftmax):
    """r_avg of a state: the running sum avg_num of iterates over its total
    weight avg_den (r before any step)."""

    @property
    def r_avg(self) -> np.ndarray:
        if self.avg_den == 0:
            return self.r
        return self.avg_num / self.avg_den


@dataclass(frozen=True)
class CostMatrix:
    """Non-negative n x n cost matrix with its sup-norm, computed here. A NaN
    entry is refused; a +inf entry is not.

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
        # +inf passes: FiniteProblem and the CLI refuse it with their own words
        if not (e >= 0).all():
            raise SolverError("cost matrix has a NaN entry" if np.isnan(e).any()
                              else "cost matrix must be non-negative")
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

    No step calls it; every r comes from `_shifted_softmax`. It stays as the
    target of perfbench's `finite_md.softmax` span (through `finite_md`'s
    import) and as a test reference, and goes in the benchmark change that
    repoints that span (ROADMAP item 2), with that import, its two tests and
    the test references, which switch to `scipy.special.logsumexp`.
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


def _lean_pass(neg_cg: np.ndarray, p: np.ndarray, z: np.ndarray,
               K: np.ndarray) -> np.ndarray:
    """Freeze one of `sinkhorn`'s kernels at the other side's potential p;
    returns m, the row maxima of neg_cg + p.

    K = exp(z) where z = neg_cg + p - m lies above KEEP_ABOVE, and 0 at or
    below it; z is a work buffer of neg_cg's shape. K is 1 at each row max, so
    m + log(K.sum(axis=1)) is the row log-sum-exp of neg_cg + p up to the
    dropped terms, each below e^KEEP_ABOVE of the max term. A row whose max
    is not finite (all -inf, or holding +inf or NaN) has K 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(neg_cg, p, out=z)
        m = z.max(axis=1)
        z -= m[:, None]
    K.fill(0.0)
    np.exp(z, out=K, where=z > KEEP_ABOVE)
    return m


@dataclass(frozen=True)
class SinkhornSolution:
    """Converged (or last finite) state of the entropic scaling iteration.

    lean_passes counts the `_lean_pass` calls of the solve: the two first
    freezes, one per absorption, and those of iterations run past the
    returned iterate. iterations_run counts every iteration the loop
    computed: n_iter, those of runs cut short at a band exit, and those run
    past the returned iterate."""

    u: np.ndarray
    v: np.ndarray
    plan: np.ndarray
    reg_value: float
    marginal_residual: float
    n_iter: int
    unstable: bool
    lean_passes: int
    iterations_run: int


# the most iterates whose residuals wait to be read together, and how many
# the first such batch holds
RESIDUAL_BATCH = 64
FIRST_BATCH = 4


def _next_batch_size(first: float, last: float, steps: int, tol: float) -> int:
    """How many iterates `sinkhorn`'s next batch holds, when the marginal
    residual went from `first` to `last` over the last `steps` iterations.

    At that mean linear rate the residual reaches `tol` after
    log(tol / last) / log(rate) more iterations; their count is the size,
    at least 1 and at most RESIDUAL_BATCH. Without a rate below 1 (no step,
    a residual not above `tol`, stalled or growing, a NaN or inf, or a rate
    so close to 1 that log(last) - log(first) rounds to 0) it is
    RESIDUAL_BATCH.
    """
    if not (steps >= 1 and 0 < tol < last < first < math.inf):
        return RESIDUAL_BATCH
    log_rate = (math.log(last) - math.log(first)) / steps
    if not log_rate < 0:
        return RESIDUAL_BATCH
    k = (math.log(tol) - math.log(last)) / log_rate
    return RESIDUAL_BATCH if k >= RESIDUAL_BATCH else max(1, math.ceil(k))


def _run_length(stretch: int, clean: int) -> int:
    """How many iterations `sinkhorn`'s next speculative run computes, when
    the last stretch of clean iterations (no absorption) between two
    absorbing ones held `stretch`, and `clean` have run since the last
    absorbing one: the rest of a stretch as long. Below 1 no run is made."""
    return stretch - clean


def _scaled_run(K_row: np.ndarray, K_col: np.ndarray, alpha: np.ndarray,
                beta: np.ndarray, b: np.ndarray, w: int) -> tuple[np.ndarray, int]:
    """w of `sinkhorn`'s scaled iterations from b, with no band test.

    Returns ab, a fresh (2w, n) buffer holding a_1, b_1, ..., a_w, b_w, and
    the number of iterations before the first row of ab outside the band
    [e^-TAU, e^TAU] (w when every row is in it). One min and one max over
    the whole buffer test it, so NaN, 0 and inf fail as in the per-side
    test.
    """
    ab = np.empty((2 * w, b.size))
    for j in range(0, 2 * w, 2):
        np.divide(alpha, K_row.dot(b), out=ab[j])
        b = np.divide(beta, K_col.dot(ab[j]), out=ab[j + 1])
    flat = ab.reshape(-1)
    lo, hi = math.exp(-TAU), math.exp(TAU)
    if np.minimum.reduce(flat) >= lo and np.maximum.reduce(flat) <= hi:
        return ab, w
    in_band = ((ab >= lo) & (ab <= hi)).all(axis=1)
    return ab, int(np.argmin(in_band)) // 2


def sinkhorn(r: DiscreteMeasure, c: DiscreteMeasure, C: CostMatrix,
             gamma: float, max_iter: int = 1000, tol: float = 1e-9) -> SinkhornSolution:
    """Entropy-regularized OT by Cuturi's scaling iteration (NIPS 2013) in
    the stabilized form of Schmitzer (SIAM J. Sci. Comput. 2019, Alg. 2),
    which README's Baselines paragraph describes.

    Each potential is a reference plus the log of a scaling, u = u_ref +
    log a and v = v_ref + log b, and a half-step is one matrix-vector
    product with the kernel `_lean_pass` froze at the other side's
    reference. Every scaling an iterate holds lies in the band
    [e^-TAU, e^TAU]. A new one outside it (NaN, 0 and inf included) is
    absorbed: its reference becomes the potential, and the kernel frozen at
    it is frozen again. u has no reference before the first row half-step,
    which therefore absorbs. In the band every kept product K_ij b_j is
    above e^(KEEP_ABOVE - TAU) = 2**-1022, so none is subnormal, and the
    dropped terms of a sum are below n e^-108.4 of it; s and t stay in
    [e^-TAU, n e^TAU] wherever the kernel's row max is finite. Between
    absorptions the iterations go in speculative runs (`_scaled_run`) with
    one band test a run; the iterates kept have the bits of a band test on
    every iteration.

    An absorbed potential at or above PIN_AT in size is pinned, since no
    scaling in the band can move it in float64: it moves into a fixed
    offset and the other side's kernel, and its reference stays 0 and its
    scaling 1. From then on the residual comes from the plan of (u, v).

    Otherwise the marginal residual of an iterate is its row part,
    sum r |a / a_new - 1|, known one half-step late. Iterates wait in a
    batch (FIRST_BATCH, then `_next_batch_size`) whose residuals one
    matrix-vector product reads. The first iterate within `tol` is
    returned with its own n_iter; the iterations run after it change
    nothing returned. u and v agree with a loop of scipy's logsumexp
    half-steps to 3.3e-14 of max(1, |u|_inf, |v|_inf), with the same
    n_iter.

    Exits: converged, at the first iterate within `tol`; `max_iter`, at the
    last iterate; `unstable`, when an absorbed potential or a re-frozen
    kernel's row max is not finite (a row or column of -C/gamma plus a
    potential all -inf, which a grid cost's zero diagonal rules out): the
    last finite iterate, with the flag set. A pin and the last two exits
    read the waiting batch first, so an earlier iterate within `tol` comes
    first. The plan, `marginal_residual` and `reg_value` are computed once,
    from the returned (u, v), with the exp taken only where
    u - C/gamma + v is not below UNDERFLOW_BELOW and the log only where the
    plan is > 0: the bits of the exp and log of every entry.
    """
    if not gamma > 0:
        raise SolverError("sinkhorn: gamma must be positive")
    if max_iter < 1:
        raise SolverError(f"sinkhorn: max_iter must be >= 1, got {max_iter}")
    r_w, c_w = r.weights, c.weights
    if np.any(r_w <= 0) or np.any(c_w <= 0):
        raise SolverError("sinkhorn: marginals must be strictly positive")
    log_r = np.log(r_w)
    log_c = np.log(c_w)
    neg_cg = -C.entries / gamma
    neg_cg_t = np.ascontiguousarray(neg_cg.T)
    z = np.empty_like(neg_cg)
    K_row, K_col = np.empty_like(neg_cg), np.empty_like(neg_cg)
    lo, hi = math.exp(-TAU), math.exp(TAU)
    minimum, maximum = np.minimum.reduce, np.maximum.reduce
    ones = np.ones(C.n)
    u_ref = v_ref = np.zeros(C.n)
    a = b = ones
    # iterates (u_ref, a, v_ref, b, x) waiting to be read: x is the raw next
    # row scaling, or the residual of the plan once a potential is pinned
    batch = []
    size, res_last = FIRST_BATCH, None
    # the first iterate within tol, as (n_iter, u_ref, a, v_ref, b)
    done = None
    # the offsets of pinned potentials, and their masks (None while none is)
    U, V = np.zeros(C.n), np.zeros(C.n)
    u_pin = v_pin = None

    def flush_batch():
        """Read the residual of each iterate waiting in the batch, with one
        matrix-vector product for the whole batch. The first one within tol
        is `done`; when there is none, the residuals set the size of the
        next batch."""
        nonlocal done, size, res_last
        if not batch:
            return
        _, a_s, _, _, x_s = zip(*batch)
        if u_pin is None and v_pin is None:
            # the row sums of each (a, b) over r
            res = np.abs(np.array(a_s) / np.array(x_s) - 1.0) @ r_w
        else:
            res = np.array(x_s)
        within = np.nonzero(res <= tol)[0]
        if within.size:
            k = int(within[0])
            done = (it - len(batch) + k, *batch[k][:4])
        else:
            first = res[0] if res_last is None else res_last
            size = _next_batch_size(first, res[-1], len(res) - (res_last is None), tol)
            res_last = res[-1]
        batch.clear()

    def pin(p_new, pinned, offset, cost):
        """Pin each finite entry of the absorbed potential p_new at or above
        PIN_AT: move it into `offset` and into its column of `cost`, the
        other side's layout of -C/gamma, and set it to 0. Returns the mask
        of pinned entries, None while there is none. The residuals of the
        waiting iterates are read first; if one is within tol, nothing is
        pinned."""
        mag = np.abs(p_new)
        new = (mag >= PIN_AT) & (mag < np.inf)
        if new.any():
            flush_batch()
            if done is None:
                offset[new] = p_new[new]
                cost[:, new] += p_new[new]
                p_new[new] = 0.0
                pinned = new if pinned is None else pinned | new
        return pinned

    def potentials():
        """(u, v) of the iterate (u_ref, a, v_ref, b)."""
        u, v = u_ref + np.log(a), v_ref + np.log(b)
        if u_pin is not None:
            u[u_pin] = U[u_pin]
        if v_pin is not None:
            v[v_pin] = V[v_pin]
        return u, v

    def plan_of(u, v):
        """The plan of (u, v) and its marginal residual. The exp is taken
        only where u + (-C/gamma) + v is not below the underflow cut: the
        bits of the full exp."""
        np.divide(C.entries, -gamma, out=z)
        np.add(z, u[:, None], out=z)
        np.add(z, v, out=z)
        plan = np.zeros_like(z)
        np.exp(z, out=plan, where=~(z <= UNDERFLOW_BELOW))
        return plan, (np.abs(plan.sum(axis=1) - r_w).sum()
                      + np.abs(plan.sum(axis=0) - c_w).sum())

    unstable = False
    it = wasted = 0
    # clean iterations (no absorption) in the last stretch between two
    # absorbing ones, and since the last absorbing one
    stretch = clean = 0
    # every overflow, 0 and NaN is caught by the band test or the unstable exit
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m_row = _lean_pass(neg_cg, v_ref, z, K_row)
        lean_passes = 1
        alpha = np.full(C.n, np.nan)  # u has no reference: the first a absorbs
        while it < max_iter:
            if len(batch) >= size:
                flush_batch()
                if done is not None:
                    break
            if clean and u_pin is None and v_pin is None:
                w = min(_run_length(stretch, clean), size - len(batch), max_iter - it)
                if w > 0:
                    ab, kept = _scaled_run(K_row, K_col, alpha, beta, b, w)
                    for j in range(0, 2 * kept, 2):
                        batch.append((u_ref, a, v_ref, b, ab[j]))
                        a, b = ab[j], ab[j + 1]
                    it += kept
                    clean += kept
                    wasted += w - kept
                    if kept == w:
                        continue
                    # the next iteration leaves the band: it runs below
            it += 1
            absorbed = False
            s = K_row.dot(b)
            a_new = alpha / s
            if it > 1:
                if u_pin is None and v_pin is None:
                    batch.append((u_ref, a, v_ref, b, a_new))
                else:
                    batch.append((u_ref, a, v_ref, b, plan_of(*potentials())[1]))
            if u_pin is not None:
                a_new[u_pin] = 1.0
            if not (minimum(a_new) >= lo and maximum(a_new) <= hi):
                u_new = log_r - m_row - np.log(s)
                if u_pin is not None:
                    u_new[u_pin] = 0.0
                m_col = _lean_pass(neg_cg_t, u_new, z, K_col)
                lean_passes += 1
                # below PIN_AT in size: finite, and nothing to pin
                if not (maximum(np.abs(u_new)) < PIN_AT and np.isfinite(m_col).all()):
                    if not (np.isfinite(u_new).all() and np.isfinite(m_col).all()):
                        unstable = True
                        break
                    # K_col, frozen at u_new, is the same after the fold
                    u_pin = pin(u_new, u_pin, U, neg_cg_t)
                    if done is not None:
                        break
                u_ref, a_new, alpha = u_new, ones, s
                beta = np.exp(log_c - m_col - v_ref)
                absorbed = True
            t = K_col.dot(a_new)
            b_new = beta / t
            if v_pin is not None:
                b_new[v_pin] = 1.0
            if not (minimum(b_new) >= lo and maximum(b_new) <= hi):
                v_new = log_c - m_col - np.log(t)
                if v_pin is not None:
                    v_new[v_pin] = 0.0
                if not maximum(np.abs(v_new)) < PIN_AT:
                    v_pin = pin(v_new, v_pin, V, neg_cg)
                    if done is not None:
                        break
                v_ref, b_new, beta = v_new, ones, t
                m_row = _lean_pass(neg_cg, v_ref, z, K_row)
                lean_passes += 1
                alpha = np.exp(log_r - m_row - u_ref)
                absorbed = True
            a, b = a_new, b_new
            if not absorbed:
                clean += 1
            elif clean:
                stretch, clean = clean, 0
        if done is None:
            # the max_iter or the unstable exit: an iterate within tol that
            # waits in the batch comes first
            flush_batch()
    iterations_run = it + wasted
    if done is not None:
        it, u_ref, a, v_ref, b = done
        unstable = False
    u, v = potentials()
    plan, residual = plan_of(u, v)
    # log only where the plan is > 0: the bits of the full log
    positive = plan > 0
    ent = np.zeros_like(plan)
    np.log(plan, out=ent, where=positive)
    np.multiply(ent, plan, out=ent, where=positive)
    reg_value = float((C.entries * plan).sum() + gamma * ent.sum())
    return SinkhornSolution(u=u, v=v, plan=plan, reg_value=reg_value,
                            marginal_residual=float(residual), n_iter=it,
                            unstable=unstable, lean_passes=lean_passes,
                            iterations_run=iterations_run)


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
