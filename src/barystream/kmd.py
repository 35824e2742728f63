"""Kernel Mirror Descent for streaming barycenter estimation.

The dual function is searched in the n-fold product of an RKHS. `cold_start`
picks its form: per-sample coefficient vectors beta^(k) for rbf and diffusion
(an evaluation costs O(k n) at step k), exactly one n x n matrix theta for the
linear kernel (O(n^2)). Both offer one dual interface, dual(config, c) and
add(beta, c), and take the same step through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from barystream.dual_core import (
    AveragedIterate,
    CostMatrix,
    SolverError,
    drive,
)
from barystream.measures import MeasureStream

STEPSIZE_MODES = ("constant", "dynamic")
KERNEL_FAMILIES = ("linear", "rbf", "diffusion")


@dataclass(frozen=True)
class Kernel:
    """Kernel family descriptor with its constants.

    r_sq is the squared radius of the dual function ball. r_sq must be
    configured for rbf/diffusion (it has no closed form); for the linear
    family it defaults to 2 n^2 |C|_inf^2 once the cost matrix is known.
    sup_x k(x, x) over the simplex is 1 for all three families.
    """

    family: str                 # "rbf" | "diffusion" | "linear"
    param: float = 0.0
    r_sq: float | None = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise SolverError(f"unknown kernel family {self.family!r}")
        if self.family in ("rbf", "diffusion") and self.param <= 0:
            raise SolverError(f"{self.family} kernel parameter must be > 0")

    @classmethod
    def rbf(cls, s: float, r_sq: float) -> "Kernel":
        return cls(family="rbf", param=s, r_sq=r_sq)

    @classmethod
    def diffusion(cls, t: float, r_sq: float) -> "Kernel":
        return cls(family="diffusion", param=t, r_sq=r_sq)

    @classmethod
    def linear(cls, r_sq: float | None = None) -> "Kernel":
        return cls(family="linear", r_sq=r_sq)

    def resolved_r_sq(self, C: CostMatrix) -> float:
        if self.r_sq is not None:
            return self.r_sq
        if self.family == "linear":
            return 2.0 * C.n ** 2 * C.inf_norm ** 2
        raise SolverError(f"r_sq must be configured for the {self.family} kernel")


def kernel_eval(kernel: Kernel, x, y) -> float:
    """k(x, y) for two simplex points."""
    return float(kernel_vec(kernel, np.asarray(x, float),
                            np.asarray(y, float)[None, :])[0])


def kernel_vec(kernel: Kernel, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """k(x, ys[i]) for a stack of points, vectorized over i."""
    if kernel.family == "rbf":
        d = ys - x[None, :]
        return np.exp(-kernel.param * np.einsum("ij,ij->i", d, d))
    if kernel.family == "diffusion":
        inner = np.sqrt(ys) @ np.sqrt(x)
        # floating-point overshoot past 1 would leave arccos undefined
        ang = np.arccos(np.clip(inner, 0.0, 1.0))
        return np.exp(-ang * ang / kernel.param)
    return ys @ x  # linear


@dataclass(frozen=True)
class KmdConfig:
    """Fixed per-run quantities: kernel, prox weights and stepsize rule."""

    kernel: Kernel
    alpha: float                # primal prox weight, 2 log n
    beta_scale: float           # dual prox weight, 2 n R^2
    clip_bound: float
    mode: str                   # "constant" | "dynamic"
    eta: float                  # constant-mode stepsize (already scaled)
    L: float                    # gradient-scale constant for dynamic mode
    eta_scale: float = 1.0

    def stepsize(self, k: int) -> float:
        if self.mode == "constant":
            return self.eta
        return self.eta_scale * math.sqrt(3.0) / (self.L * math.sqrt(k))

    @classmethod
    def for_run(cls, kernel: Kernel, C: CostMatrix, N: int,
                mode: str = "constant", eta_scale: float = 1.0) -> "KmdConfig":
        """The config of an N-step run; eta is the N-step constant stepsize.
        The dual is boxed at |C|_inf, which `certify_dual_bound` shows is
        lossless."""
        if N < 1:
            raise SolverError(f"N must be >= 1, got {N}")
        if mode not in STEPSIZE_MODES:
            raise SolverError(f"unknown stepsize mode {mode!r}")
        n = C.n
        r_sq = kernel.resolved_r_sq(C)
        L = math.sqrt(8.0 * math.log(n) * C.inf_norm ** 2
                      + 8.0 * n * n * r_sq)
        eta = eta_scale * 2.0 / (L * math.sqrt(5.0 * N))
        return cls(kernel=kernel, alpha=2.0 * math.log(n),
                   beta_scale=2.0 * n * r_sq, clip_bound=C.inf_norm,
                   mode=mode, eta=eta, L=L, eta_scale=eta_scale)


class _History:
    """Growing storage for beta coefficients and their samples."""

    def __init__(self, n: int, cap: int | None = None):
        self.size = 0
        cap = cap or 16
        self._betas = np.zeros((cap, n))
        self._samples = np.zeros((cap, n))

    @classmethod
    def from_arrays(cls, betas: np.ndarray, samples: np.ndarray) -> "_History":
        """A history of these k rows, in a buffer of max(16, k) rows."""
        k, n = betas.shape
        hist = cls(n, cap=max(16, k))
        hist._betas[:k] = betas
        hist._samples[:k] = samples
        hist.size = k
        return hist

    def append(self, beta: np.ndarray, sample: np.ndarray) -> None:
        if self.size == self._betas.shape[0]:
            self._betas = np.concatenate([self._betas, np.zeros_like(self._betas)])
            self._samples = np.concatenate(
                [self._samples, np.zeros_like(self._samples)])
        self._betas[self.size] = beta
        self._samples[self.size] = sample
        self.size += 1

    @property
    def betas(self) -> np.ndarray:
        return self._betas[:self.size]

    @property
    def samples(self) -> np.ndarray:
        return self._samples[:self.size]


@dataclass
class KmdState(AveragedIterate):
    """Iterate of Kernel Mirror Descent: primal point plus dual history."""

    log_r: np.ndarray
    history: _History
    avg_num: np.ndarray          # stepsize-weighted (or plain) sum of iterates
    avg_den: float
    k: int

    @classmethod
    def cold_start(cls, n: int) -> "KmdState":
        return cls(log_r=np.zeros(n), history=_History(n),
                   avg_num=np.zeros(n), avg_den=0.0, k=0)

    def dual(self, config: KmdConfig, c: np.ndarray) -> np.ndarray:
        return f_eval(self, config.kernel, c, config.clip_bound)

    def add(self, beta: np.ndarray, c: np.ndarray) -> None:
        self.history.append(beta, c)


def f_eval(state: KmdState, kernel: Kernel, c: np.ndarray,
           clip_bound: float) -> np.ndarray:
    """Dual function value at c: clipped sum of beta^(i) k(c, c^(i))."""
    kvec = kernel_vec(kernel, np.asarray(c, float), state.history.samples)
    return _box(kvec @ state.history.betas, clip_bound)


def _box(f: np.ndarray, bound: float) -> np.ndarray:
    """f clipped to [-bound, bound] in place: np.clip's bits for bound > 0,
    without the Python layers np.clip adds to each call."""
    np.maximum(f, -bound, out=f)
    return np.minimum(f, bound, out=f)


def _saddle_update(log_r: np.ndarray, r: np.ndarray, f: np.ndarray,
                   C: CostMatrix, eta_k: float, config: KmdConfig):
    """Shared per-step algebra: argmin indices, primal gradient, updates.

    r is the softmax of log_r, which the state carries. Returns (new_log_r,
    pattern), new_log_r not yet shifted or checked (the state's `set_log_r`
    does both), where pattern = sum_i r_i e_{J_i} is the part of
    beta^(k) / (eta_k * beta_scale) = pattern - c that does not depend on the
    sample; the caller folds in its sample c.

    J_i = argmin_j (C_ij + f_j) and g_i is that minimum: two n x n passes
    (the sum and its argmin) where -C - f, its argmax and its max took four,
    with the same bits, since (-a) - b is -(a + b) in IEEE arithmetic and
    both take the first index of a tie. They differ only in the sign of a
    zero g_i, which leaves new_log_r alone while log_r holds no -0.0, and a
    step never puts one there.
    """
    scores = C.entries + f
    J = np.argmin(scores, axis=1)
    g = scores[np.arange(C.n), J]
    pattern = np.bincount(J, weights=r, minlength=C.n)
    return log_r - eta_k * config.alpha * g, pattern


def _step(state, config: KmdConfig, c_sample: np.ndarray, C: CostMatrix):
    """One KMD iteration on either dual: state.dual(config, c) evaluates it on the
    sample, state.add(beta, c) folds the step's history entry into it. Advances
    state in place and returns it; set_log_r aborts before any change."""
    k = state.k + 1
    eta_k = config.stepsize(k)
    c = np.asarray(c_sample, dtype=float)
    new_log_r, pattern = _saddle_update(state.log_r, state.r,
                                        state.dual(config, c), C, eta_k, config)
    state.set_log_r(new_log_r, "primal iterate in KMD step")
    state.add(eta_k * config.beta_scale * (pattern - c), c)
    weight = eta_k if config.mode == "dynamic" else 1.0
    state.avg_num += weight * state.r
    state.avg_den += weight
    state.k = k
    return state


def kmd_step(state: KmdState, config: KmdConfig, c_sample: np.ndarray,
             C: CostMatrix) -> KmdState:
    """One KMD iteration: evaluate the dual on the sample, step both sides;
    advances state in place and returns it."""
    return _step(state, config, c_sample, C)


@dataclass
class LinearKmdState(AveragedIterate):
    """Linear-kernel iterate: the dual function is the matrix map c -> theta c."""

    log_r: np.ndarray
    theta: np.ndarray
    avg_num: np.ndarray
    avg_den: float
    k: int

    @classmethod
    def cold_start(cls, n: int) -> "LinearKmdState":
        return cls(log_r=np.zeros(n), theta=np.zeros((n, n)),
                   avg_num=np.zeros(n), avg_den=0.0, k=0)

    def dual(self, config: KmdConfig, c: np.ndarray) -> np.ndarray:
        return _box(self.theta @ c, config.clip_bound)

    def add(self, beta: np.ndarray, c: np.ndarray) -> None:
        """The history entry (beta, c) of a linear kernel: theta += beta c^T."""
        self.theta += beta[:, None] * c


def linear_kmd_step(state: LinearKmdState, config: KmdConfig,
                    c_sample: np.ndarray, C: CostMatrix) -> LinearKmdState:
    """kmd_step specialized to the linear kernel: O(n^2) time and memory;
    advances state in place and returns it."""
    return _step(state, config, c_sample, C)


def cold_start(kernel: Kernel, n: int):
    """kernel's cold dual and its step: theta and linear_kmd_step for the linear
    kernel, the beta history and kmd_step for rbf and diffusion, each looked up
    on this module at every call, so one replaced here (by a tracer) runs."""
    if kernel.family == "linear":
        return LinearKmdState.cold_start(n), lambda *args: linear_kmd_step(*args)
    return KmdState.cold_start(n), lambda *args: kmd_step(*args)


def kmd_run(stream: MeasureStream, kernel: Kernel, C: CostMatrix, N: int,
            eta_scale: float = 1.0, mode: str = "constant"
            ) -> tuple[np.ndarray, KmdState | LinearKmdState]:
    """Run N KMD iterations from kernel's cold start; returns (r_avg, state).

    mode "constant" takes the fixed stepsize of an N-step run and the plain
    average; "dynamic" is the online (infinite-horizon) variant: eta_k ~
    1/sqrt(k) and the stepsize-weighted average.
    """
    config = KmdConfig.for_run(kernel, C, N, mode=mode, eta_scale=eta_scale)
    state, step = cold_start(kernel, C.n)
    state = drive(state, lambda s: step(s, config, stream.sample().weights, C), N)
    return state.r_avg, state
