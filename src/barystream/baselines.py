"""Comparison methods: SGD with entropic (Sinkhorn) gradients, and mirror
descent with exact dual subgradients of the unregularized transport cost.

Both return descent directions for r -> distance(r, c); dual potentials are
only defined up to an additive constant, so gradients are mean-centered
(the simplex constraint absorbs constants). The exact duals are
`boxed_dual`'s: the staircase on grid costs, at any n and exact to rounding
at any mass, and the HiGHS LP (n <= EXACT_SOLVER_CAP) on any other cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from barystream.dual_core import (
    AveragedIterate,
    CostMatrix,
    NumericalAbort,
    SinkhornSolution,
    SolverError,
    boxed_dual,
    drive,
    sinkhorn,
)
from barystream.measures import DiscreteMeasure, MeasureStream, normalize_clamped

SCHEDULES = ("constant", "inverse_sqrt")
STEPPERS = ("mirror", "euclidean")


@dataclass(frozen=True)
class BaselineConfig:
    """Method and stepsize schedule for a baseline run."""

    method: str                     # "sinkhorn_sgd" | "lp_sgd"
    gamma: float = 1e-2             # entropic regularization (sinkhorn_sgd)
    inner_iters: int = 200
    inner_tol: float = 1e-9
    schedule: str = "inverse_sqrt"  # "constant" | "inverse_sqrt"
    stepsize: float = 1.0
    stepper: str = "mirror"         # "mirror" | "euclidean"

    def __post_init__(self):
        if self.method not in ("sinkhorn_sgd", "lp_sgd"):
            raise SolverError(f"unknown baseline method {self.method!r}")
        if self.method == "sinkhorn_sgd" and not self.gamma > 0:
            raise SolverError("sinkhorn_sgd requires gamma > 0")
        if self.inner_iters < 1:
            raise SolverError(f"inner_iters must be >= 1, got {self.inner_iters}")
        if self.schedule not in SCHEDULES:
            raise SolverError(f"unknown stepsize schedule {self.schedule!r}")
        if self.stepper not in STEPPERS:
            raise SolverError(f"unknown stepper {self.stepper!r}")

    def eta(self, k: int) -> float:
        if self.schedule == "constant":
            return self.stepsize
        return self.stepsize / math.sqrt(k)


def sinkhorn_gradient(r: DiscreteMeasure, c: DiscreteMeasure, C: CostMatrix,
                      gamma: float, inner_iters: int = 200,
                      inner_tol: float = 1e-9) -> tuple[np.ndarray, bool]:
    """Gradient in r of the entropy-regularized transport cost.

    The optimal row potential of the regularized dual is gamma * u up to an
    additive constant; mean-centering fixes the gauge. Returns the centered
    gradient and an instability flag (NaN stop inside the scaling loop).
    """
    grad, sol = _sinkhorn_solve(r, c, C, gamma, inner_iters, inner_tol)
    return grad, sol.unstable


def _sinkhorn_solve(r: DiscreteMeasure, c: DiscreteMeasure, C: CostMatrix,
                    gamma: float, inner_iters: int,
                    inner_tol: float) -> tuple[np.ndarray, SinkhornSolution]:
    """`sinkhorn_gradient`'s gradient and the inner solve it came from."""
    sol = sinkhorn(r, c, C, gamma, max_iter=inner_iters, tol=inner_tol)
    grad = gamma * sol.u
    return grad - grad.mean(), sol


def lp_subgradient(r: DiscreteMeasure, c: DiscreteMeasure,
                   C: CostMatrix) -> np.ndarray:
    """Exact subgradient of r -> L_C(r, c) from an optimal dual of `boxed_dual`.

    Every feasible dual bounds L_C(r', c) >= -<lambda, r'> - <mu, c>, with
    equality at r for an optimal one, so -lambda is a subgradient in r; it is
    mean-centered before being returned.
    """
    _, lam, _ = boxed_dual(r.weights, c.weights, C)
    return lam.mean() - lam


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    The first sorted index always passes the test u_1 - (u_1 - 1) > 0, but
    in floats only while |u_1| < 2**53. Where no index passes, a finite v is
    projected shifted to max 0, which has the same projection and where the
    first index passes; a v with a NaN or an inf projects to NaN, without
    the division by 0.
    """
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.max(np.where(u - css / idx > 0, idx, 0))
    if rho == 0:
        if not np.isfinite(v).all():
            return np.full_like(v, np.nan)
        return _project_simplex(v - u[0])
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass
class BaselineState(AveragedIterate):
    """Mutable iterate for a baseline stochastic-approximation run."""

    log_r: np.ndarray
    r_euclid: np.ndarray
    avg_num: np.ndarray
    k: int
    unstable: int = 0               # Sinkhorn inner solves that stopped unstable
    unconverged: int = 0            # stable ones stopped at the cap above inner_tol

    @property
    def avg_den(self) -> int:
        return self.k               # every iterate enters avg_num with weight 1

    @classmethod
    def cold_start(cls, n: int) -> "BaselineState":
        return cls(log_r=np.zeros(n), r_euclid=np.full(n, 1.0 / n),
                   avg_num=np.zeros(n), k=0)


def baseline_step(state: BaselineState, config: BaselineConfig,
                  c: DiscreteMeasure, C: CostMatrix) -> BaselineState:
    """Sampled gradient step on r for one incoming measure: advances state in
    place and returns it; a non-finite new iterate raises NumericalAbort and
    changes nothing."""
    k = state.k + 1
    eta = config.eta(k)
    if config.stepper == "euclidean":
        r_cur = state.r_euclid
    else:
        r_cur = state.r
    r_meas = normalize_clamped(r_cur)
    unstable, unconverged = state.unstable, state.unconverged
    if config.method == "sinkhorn_sgd":
        grad, sol = _sinkhorn_solve(r_meas, c, C, config.gamma,
                                    config.inner_iters, config.inner_tol)
        unstable += sol.unstable
        # ran to the cap and the returned iterate is still above inner_tol
        unconverged += (not sol.unstable and sol.n_iter == config.inner_iters
                        and sol.marginal_residual > config.inner_tol)
    else:
        grad = lp_subgradient(r_meas, c, C)
    if config.stepper == "euclidean":
        r_new = _project_simplex(state.r_euclid - eta * grad)
        if not np.isfinite(r_new).all():
            raise NumericalAbort(f"non-finite euclidean iterate in "
                                 f"{config.method} step at k={k}")
        state.r_euclid = r_new
    else:
        state.set_log_r(state.log_r - eta * grad,
                        f"mirror iterate in {config.method} step")
        r_new = state.r
    state.k = k
    state.avg_num += r_new
    state.unstable, state.unconverged = unstable, unconverged
    return state


def run_baseline(stream: MeasureStream, C: CostMatrix, config: BaselineConfig,
                 N: int) -> tuple[np.ndarray, BaselineState]:
    """Stochastic-approximation loop over N stream samples from a cold start."""
    state = drive(BaselineState.cold_start(C.n),
                  lambda s: baseline_step(s, config, stream.sample(), C), N)
    return state.r_avg, state
