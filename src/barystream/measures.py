"""Discrete probability measures on a shared 1-D grid, and streams of them.

All measures in a run live on one common n-point support. Streams are
seeded and bit-reproducible; every produced measure satisfies the simplex
invariant (non-negative weights summing to one within 1e-12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SIMPLEX_TOL = 1e-12
WEIGHT_FLOOR = 1e-12


class MeasureError(ValueError):
    """Invalid measure data (negative mass, zero total, bad shape)."""


@dataclass(frozen=True)
class Grid1D:
    """Ordered support locations on a segment [lo, hi]."""

    points: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise MeasureError("grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise MeasureError("grid points must be strictly increasing")
        if self.lo > pts[0] or pts[-1] > self.hi:
            raise MeasureError("grid points must lie within [lo, hi]")

    @property
    def n(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int) -> "Grid1D":
        """Uniform grid including both endpoints."""
        return cls(np.linspace(lo, hi, n), lo, hi)

    def __eq__(self, other):
        return (
            isinstance(other, Grid1D)
            and self.lo == other.lo
            and self.hi == other.hi
            and np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True)
class DiscreteMeasure:
    """A point of the n-simplex together with its (optional) support grid."""

    weights: np.ndarray
    grid: Grid1D | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise MeasureError("weights must be a vector")
        if np.any(w < 0):
            raise MeasureError("negative weight")
        if abs(w.sum() - 1.0) > SIMPLEX_TOL:
            raise MeasureError(f"weights sum to {w.sum()!r}, not 1")
        if self.grid is not None and self.grid.n != w.size:
            raise MeasureError("weights length does not match grid size")

    @property
    def n(self) -> int:
        return self.weights.size

    def mean(self) -> float:
        if self.grid is None:
            raise MeasureError("measure has no grid")
        return float(self.weights @ self.grid.points)

    def sd(self) -> float:
        if self.grid is None:
            raise MeasureError("measure has no grid")
        m = self.mean()
        return math.sqrt(float(self.weights @ (self.grid.points - m) ** 2))


def sampling_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF of the index law p that `draw_index` reads: p's cumsum, scaled
    to end at 1, as `Generator.choice` builds it."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_index(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn from the law whose `sampling_cdf` is cdf.

    The same arithmetic and the same single uniform as
    `rng.choice(len(p), p=p)`, so the index and the generator's next state
    match it; the CDF is built once by the caller, not per draw, and p is not
    re-validated here.
    """
    return int(cdf.searchsorted(rng.random(), side="right"))


def sampling_law(weights, m: int) -> np.ndarray:
    """The law of an index into m measures: weights over their sum. The
    weights must be m non-negative numbers with a finite positive sum."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise MeasureError(f"sampling weights must be one per measure ({m}), "
                           f"got {w.size}")
    with np.errstate(over="ignore"):  # a sum that overflows is refused below
        total = w.sum()
    if np.any(w < 0) or not 0 < total < math.inf:  # NaN and inf fail here
        raise MeasureError("sampling weights must be non-negative with a "
                           f"finite positive sum, got {w!r}")
    return w / total


def normalize(raw, grid: Grid1D | None = None) -> DiscreteMeasure:
    """Scale a non-negative vector to unit mass.

    Rejects vectors with any negative entry or with zero total mass.
    """
    w = np.asarray(raw, dtype=float)
    if np.any(w < 0):
        raise MeasureError("normalize: negative entry")
    total = w.sum()
    if total <= 0 or not np.isfinite(total):
        raise MeasureError("normalize: total mass is zero or non-finite")
    return DiscreteMeasure(w / total, grid)


def normalize_clamped(raw, grid: Grid1D | None = None) -> DiscreteMeasure:
    """Normalize after clamping entries to a strictly positive floor.

    Generated measures go through this so that downstream dual bounds and
    entropic solvers (which assume r > 0) stay in their valid regime.
    """
    w = np.maximum(np.asarray(raw, dtype=float), WEIGHT_FLOOR)
    return normalize(w, grid)


def discretize_gaussian(mu: float, sigma: float, grid: Grid1D) -> DiscreteMeasure:
    """Pointwise Gaussian density on the grid, floor-clamped and normalized."""
    if sigma <= 0:
        raise MeasureError("discretize_gaussian: sigma must be positive")
    z = (grid.points - mu) / sigma
    # subtract the max exponent so the peak is exactly 1 before clamping
    logw = -0.5 * z * z
    w = np.exp(logw - logw.max())
    return normalize_clamped(w, grid)


@dataclass(frozen=True)
class GaussianParamLaw:
    """Law of (mu, sigma) for random Gaussian measures.

    mu ~ Normal(mu0, sigma0_sq); sigma ~ Exponential(rate), mean 1/rate.
    """

    mu0: float
    sigma0_sq: float
    rate: float

    def __post_init__(self):
        if self.sigma0_sq <= 0 or self.rate <= 0:
            raise MeasureError("GaussianParamLaw: sigma0_sq and rate must be > 0")


@dataclass
class MeasureStream:
    """Seeded i.i.d. source of measures on a fixed support.

    Two source kinds:
      * finite   -- sample index t from given weights, emit measures[t]
      * gaussian -- draw (mu, sigma) from a GaussianParamLaw, discretize
    """

    kind: str
    seed: int
    grid: Grid1D | None = None
    measures: list[DiscreteMeasure] | None = None
    weights: np.ndarray | None = None
    law: GaussianParamLaw | None = None
    _rng: np.random.Generator = field(init=False, repr=False)
    _cdf: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("finite", "gaussian"):
            raise MeasureError(f"unknown stream kind {self.kind!r}")
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        self._cdf = None if self.weights is None else sampling_cdf(self.weights)

    @classmethod
    def finite(cls, measures, weights, seed: int) -> "MeasureStream":
        w = sampling_law(weights, len(measures))
        sizes = {m.n for m in measures}
        if len(sizes) != 1:
            raise MeasureError("finite stream: mixed supports")
        grid = measures[0].grid
        for m in measures[1:]:
            if (m.grid is None) != (grid is None) or (grid is not None and m.grid != grid):
                raise MeasureError("finite stream: mixed supports")
        return cls(kind="finite", seed=seed, grid=grid,
                   measures=list(measures), weights=w)

    @classmethod
    def gaussian(cls, law: GaussianParamLaw, grid: Grid1D, seed: int) -> "MeasureStream":
        return cls(kind="gaussian", seed=seed, grid=grid, law=law)

    def sample(self) -> DiscreteMeasure:
        if self.kind == "finite":
            return self.measures[draw_index(self._cdf, self._rng)]
        mu = self._rng.normal(self.law.mu0, math.sqrt(self.law.sigma0_sq))
        sigma = self._rng.exponential(1.0 / self.law.rate)
        # an exponential draw can underflow to 0; resample the tail away
        while sigma <= 0:
            sigma = self._rng.exponential(1.0 / self.law.rate)
        return discretize_gaussian(mu, sigma, self.grid)

    def state_dict(self) -> dict:
        return {"rng": self._rng.bit_generator.state}

    def load_state(self, state: dict) -> None:
        """Restore state_dict's generator; other keys (an old "pos") are ignored."""
        self._rng.bit_generator.state = state["rng"]


def save_corpus(path, measures, grid: Grid1D | None = None) -> None:
    """Write a measure corpus: one CSV row per measure, optional grid header."""
    with open(path, "w") as fh:
        if grid is not None:
            fh.write(f"# grid: {grid.lo!r} {grid.hi!r} {grid.n}\n")
        for m in measures:
            fh.write(",".join(repr(float(x)) for x in m.weights) + "\n")


def load_corpus(path) -> tuple[Grid1D | None, list[DiscreteMeasure]]:
    """Read a measure corpus written by save_corpus."""
    grid = None
    measures = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line.lstrip("#").split()
                if fields[:1] == ["grid:"]:
                    lo, hi, n = float(fields[1]), float(fields[2]), int(fields[3])
                    grid = Grid1D.uniform(lo, hi, n)
                continue
            w = np.fromstring(line, sep=",")
            measures.append(normalize(w, grid))
    if not measures:
        raise MeasureError(f"corpus {path} holds no measures")
    if grid is not None and any(m.n != grid.n for m in measures):
        raise MeasureError(f"corpus {path}: row length does not match grid")
    return grid, measures
