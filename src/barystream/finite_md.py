"""Stochastic mirror descent on the finite-support saddle-point problem.

The dual function over a finite family {c_1..c_m} is an m x n matrix M
boxed at |M|_inf <= |C|_inf. One iteration samples a measure index t, a
uniform coordinate s and a coordinate q from the law r, applies the sparse
unbiased oracles, an entropic step on r and a boxed Euclidean step on row
M_(t), then updates the running averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from barystream.dual_core import (
    CarriedSoftmax,
    CostMatrix,
    NumericalAbort,
    SolverError,
    drive,
    logsumexp,  # unused here; perfbench's finite_md.softmax span wraps it by name
    saddle_gap,
)
from barystream.measures import DiscreteMeasure, draw_index, sampling_cdf


@dataclass(frozen=True)
class FiniteProblem:
    """A finite law over m measures plus the shared cost matrix."""

    measures: np.ndarray          # m x n, rows on the simplex
    weights: np.ndarray           # law of the measure index, on the m-simplex
    C: CostMatrix
    weights_cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        meas = np.asarray(self.measures, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "measures", meas)
        object.__setattr__(self, "weights", w)
        if meas.ndim != 2 or meas.shape[1] != self.C.n:
            raise SolverError("FiniteProblem: measures must be m x n matching C")
        # md_step's one-min check of the clipped row needs a finite box
        if not math.isfinite(self.C.inf_norm):
            raise SolverError("FiniteProblem: the cost must be finite, got "
                              f"sup-norm {self.C.inf_norm!r}")
        # a NaN fails no comparison, so finiteness is checked on its own
        if (w.shape != (meas.shape[0],) or not np.isfinite(w).all()
                or np.any(w < 0) or abs(w.sum() - 1) > 1e-12):
            raise SolverError("FiniteProblem: weights must lie on the m-simplex, "
                              f"got {w!r}")
        object.__setattr__(self, "weights_cdf", sampling_cdf(w))

    @classmethod
    def from_measures(cls, measures: list[DiscreteMeasure], C: CostMatrix,
                      weights=None) -> "FiniteProblem":
        m = len(measures)
        if weights is None:
            weights = np.full(m, 1.0 / m)
        return cls(np.stack([x.weights for x in measures]), np.asarray(weights), C)

    @property
    def m(self) -> int:
        return self.measures.shape[0]

    @property
    def n(self) -> int:
        return self.C.n

    @property
    def box_bound(self) -> float:
        return self.C.inf_norm


@dataclass
class FiniteSaddleState(CarriedSoftmax):
    """Iterate of the finite-support saddle-point mirror descent.

    r is kept in log-domain (exponential-weights updates only shift logs),
    read back through a softmax; M lives directly in the l_inf box. Running
    averages of both r and M are maintained for gap evaluation.
    """

    # set by cold_start (and the run's eta_scale), never assigned by a step,
    # so a restored state must carry the values its setup gives them
    SETUP_FIELDS = ("eta", "alpha", "beta")

    log_r: np.ndarray
    M: np.ndarray
    r_avg: np.ndarray
    M_avg: np.ndarray
    k: int
    eta: float
    alpha: float
    beta: float

    @classmethod
    def cold_start(cls, problem: FiniteProblem, N: int) -> "FiniteSaddleState":
        """The start state of an N-step run; eta is the N-step stepsize."""
        if N < 1:
            raise SolverError(f"N must be >= 1, got {N}")
        n, m = problem.n, problem.m
        c_inf = problem.C.inf_norm
        alpha = 2.0 * math.log(n)
        beta = 4.0 * m * n * c_inf
        eta = 2.0 / (c_inf * math.sqrt(8 * n * n * math.log(n) + 16 * m * n)
                     * math.sqrt(5.0 * N))
        return cls(log_r=np.zeros(n), M=np.zeros((m, n)),
                   r_avg=np.full(n, 1.0 / n), M_avg=np.zeros((m, n)),
                   k=0, eta=eta, alpha=alpha, beta=beta)


def oracle_g(M: np.ndarray, t: int, s: int, C: CostMatrix) -> tuple[int, float]:
    """Sparse primal oracle: coordinate s carries -n * max_j(-C_sj - M_tj),
    computed as n * min_j(C_sj + M_tj): (-a) - b is -(a + b) in IEEE
    arithmetic, so the two differ only in the sign of a zero result."""
    return s, float(C.n * (C.entries[s] + M[t]).min())


def oracle_h(M: np.ndarray, t: int, q: int, c_t: np.ndarray,
             C: CostMatrix) -> np.ndarray:
    """Dual oracle for row t: c_t minus the basis vector at the argmax index
    of -C_qj - M_tj (`lambda_star_argmax`), found as the argmin of C_qj + M_tj,
    which is the same first index of a tie."""
    h = c_t.copy()
    h[(C.entries[q] + M[t]).argmin()] -= 1.0
    return h


def md_step(state: FiniteSaddleState, problem: FiniteProblem,
            rng: np.random.Generator) -> FiniteSaddleState:
    """One sampled saddle-point mirror-descent iteration: advances state in
    place and returns it; a step that raises NumericalAbort changes nothing.

    Draws t from problem.weights, s uniformly and q from state.r, in that
    order, with the same indices and generator stream as rng.choice and
    rng.integers. Only row t of M moves, so only it is clipped to the box and
    checked; `set_log_r` shifts and checks log_r and takes the one softmax
    per step that gives the new r, which the next step reuses.

    The row check reads one min: the box bound is finite (FiniteProblem
    refuses a cost with a non-finite entry), so after the clip every entry
    is finite or NaN, and min propagates NaN. The sign of a zero g_s from
    `oracle_g` leaves log_r[s] alone, since x - 0.0 and x - (-0.0) differ
    only for x = -0.0, and no step leaves -0.0 in log_r: x - y is -0.0 only
    for x = -0.0, and the shift by the max gives +0.0 at the max.
    """
    n = problem.n
    C = problem.C
    t = draw_index(problem.weights_cdf, rng)
    s = int(rng.integers(n))
    q = draw_index(sampling_cdf(state.r), rng)

    _, g_s = oracle_g(state.M, t, s, C)
    h = oracle_h(state.M, t, q, problem.measures[t], C)

    eta = state.eta
    log_r = state.log_r.copy()
    log_r[s] -= state.alpha * eta * g_s
    row = state.M[t] - state.beta * eta * h
    bound = problem.box_bound
    np.maximum(row, -bound, out=row)
    np.minimum(row, bound, out=row)
    if not math.isfinite(row.min()):
        raise NumericalAbort(f"non-finite iterate at k={state.k + 1}: "
                             f"row {t} of M")
    state.set_log_r(log_r, "iterate")
    # each mean scaled in place, then x/k added: IEEE addition commutes
    state.k = k = state.k + 1
    state.M[t] = row
    state.r_avg *= (k - 1) / k
    state.r_avg += state.r / k
    state.M_avg *= (k - 1) / k
    state.M_avg += state.M / k
    return state


def run_finite(problem: FiniteProblem, N: int, seed: int,
               state: FiniteSaddleState | None = None,
               rng: np.random.Generator | None = None
               ) -> tuple[np.ndarray, np.ndarray, FiniteSaddleState]:
    """Run N total iterations from a cold start, or resume a given state and
    generator, which advance in place.

    Returns (r_avg, M_avg, state), state the last iterate.
    """
    if state is None:
        state = FiniteSaddleState.cold_start(problem, N)
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    state = drive(state, lambda s: md_step(s, problem, rng), N)
    return state.r_avg, state.M_avg, state


def duality_gap_finite(r: np.ndarray, M: np.ndarray,
                       problem: FiniteProblem) -> float:
    """Exact duality gap of (r, M) for the finite saddle objective.

    The objective and its gap are `saddle_gap`'s, whose box is
    problem.box_bound. A cost that is not a grid cost goes through one LP per
    row (`boxed_dual`) and is capped at n <= EXACT_SOLVER_CAP.
    """
    return saddle_gap(r, problem.measures, problem.weights, problem.C, M)
