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
    CostMatrix,
    SolverError,
    drive,
    lambda_star_argmax,
    logsumexp,
    saddle_gap,
)
from barystream.measures import DiscreteMeasure, draw_index, sampling_cdf


class NumericalAbort(RuntimeError):
    """A non-finite intermediate value appeared during a step."""


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
class FiniteSaddleState:
    """Iterate of the finite-support saddle-point mirror descent.

    r is kept in log-domain (exponential-weights updates only shift logs),
    read back through a softmax; M lives directly in the l_inf box. Running
    averages of both r and M are maintained for gap evaluation.

    The softmax r of log_r is carried: md_step passes the one it computed for
    the running average, and a state built without it (a cold start, a
    checkpoint restore) computes it here with the same expression, so both
    agree bit for bit. Checkpoints do not store it. Steps replace log_r and r
    together; assigning log_r alone leaves r stale.
    """

    log_r: np.ndarray
    M: np.ndarray
    r_avg: np.ndarray
    M_avg: np.ndarray
    k: int
    eta: float
    alpha: float
    beta: float
    r: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.r is None:
            self.r = np.exp(self.log_r - logsumexp(self.log_r))

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
    """Sparse primal oracle: coordinate s carries -n * max_j(-C_sj - M_tj)."""
    n = C.n
    return s, float(-n * (-C.entries[s] - M[t]).max())


def oracle_h(M: np.ndarray, t: int, q: int, c_t: np.ndarray,
             C: CostMatrix) -> np.ndarray:
    """Dual oracle for row t: c_t minus the basis vector at the argmax index."""
    j = lambda_star_argmax(M[t], C, q)
    h = c_t.copy()
    h[j] -= 1.0
    return h


def md_step(state: FiniteSaddleState, problem: FiniteProblem,
            rng: np.random.Generator) -> FiniteSaddleState:
    """One sampled saddle-point mirror-descent iteration; state is not changed.

    Draws t from problem.weights, s uniformly and q from state.r, in that
    order, with the same indices and generator stream as rng.choice and
    rng.integers. Every step clips all of M to the box and checks log_r and M
    for non-finite entries; one softmax per step gives the new r, which the
    next step reuses.
    """
    n = problem.n
    t = draw_index(problem.weights_cdf, rng)
    s = int(rng.integers(n))
    q = draw_index(sampling_cdf(state.r), rng)

    _, g_s = oracle_g(state.M, t, s, problem.C)
    h = oracle_h(state.M, t, q, problem.measures[t], problem.C)

    log_r = state.log_r.copy()
    log_r[s] -= state.alpha * state.eta * g_s
    log_r -= log_r.max()  # keep the representation bounded; softmax unchanged
    M = state.M.copy()
    M[t] -= state.beta * state.eta * h
    bound = problem.box_bound
    np.maximum(M, -bound, out=M)
    np.minimum(M, bound, out=M)
    if not (np.isfinite(log_r).all() and np.isfinite(M).all()):
        raise NumericalAbort(f"non-finite iterate at k={state.k + 1}: "
                             f"log_r={log_r!r}")
    k = state.k + 1
    r = np.exp(log_r - logsumexp(log_r))
    r_avg = r / k
    r_avg += (k - 1) / k * state.r_avg
    M_avg = M / k
    M_avg += (k - 1) / k * state.M_avg
    return FiniteSaddleState(log_r, M, r_avg, M_avg, k, state.eta, state.alpha,
                             state.beta, r)


def run_finite(problem: FiniteProblem, N: int, seed: int,
               state: FiniteSaddleState | None = None,
               rng: np.random.Generator | None = None,
               gap_every: int = 0) -> tuple[np.ndarray, np.ndarray, list]:
    """Run N total iterations from a cold start (or resume a given state).

    Returns (r_avg, M_avg, trace) where trace holds (k, gap) pairs when
    gap_every > 0 (see duality_gap_finite for the cap on costs off the grid).
    """
    if state is None:
        state = FiniteSaddleState.cold_start(problem, N)
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    trace = []

    def record_gap(s: FiniteSaddleState) -> None:
        if gap_every and s.k % gap_every == 0:
            trace.append((s.k, duality_gap_finite(s.r_avg, s.M_avg, problem)))

    state = drive(state, lambda s: md_step(s, problem, rng), N, record_gap)
    return state.r_avg, state.M_avg, trace


def duality_gap_finite(r: np.ndarray, M: np.ndarray,
                       problem: FiniteProblem) -> float:
    """Exact duality gap of (r, M) for the finite saddle objective.

    The objective and its gap are `saddle_gap`'s, whose box is
    problem.box_bound. A cost that is not a grid cost goes through one LP per
    row (`boxed_dual`) and is capped at n <= EXACT_SOLVER_CAP.
    """
    return saddle_gap(r, problem.measures, problem.weights, problem.C, M)
