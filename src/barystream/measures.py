"""Discrete probability measures on a shared 1-D grid, and streams of them.

All measures in a run live on one common n-point support. Streams are
seeded and bit-reproducible; every produced measure satisfies the simplex
invariant (non-negative weights summing to one within 1e-12).

A measure built from outside data passes the constructor's checks. A
generated one (`discretize_gaussian`, `normalize_clamped`) is floored at
WEIGHT_FLOOR and divided by its sum, which is checked to be positive and
finite, so every weight is non-negative by construction; its sum is checked
against 1 once, and the measure is then built without the constructor's
checks, which would only repeat these.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass

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

    @classmethod
    def _trusted(cls, weights: np.ndarray, grid: Grid1D | None) -> "DiscreteMeasure":
        """A measure of weights, a float64 vector of grid's size already on
        the simplex, built without __post_init__'s checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "weights", weights)
        object.__setattr__(m, "grid", grid)
        return m

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
    """The law of an index into m measures: weights over their sum, or 1/m
    each where weights is None. The weights must be m non-negative numbers
    with a finite positive sum."""
    if weights is None:
        return np.full(m, 1.0 / m)
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


def _floor_to_unit(w: np.ndarray, grid: Grid1D | None) -> DiscreteMeasure:
    """The measure of w, a float64 vector the caller owns, floored at
    WEIGHT_FLOOR and divided by its sum, both in place: the arithmetic, and
    so the bits, of np.maximum then `normalize`. A floored entry is positive
    or NaN, so once the sum is checked (positive and finite; NaN fails) no
    weight is negative."""
    np.maximum(w, WEIGHT_FLOOR, out=w)
    total = w.sum()
    if not 0 < total < math.inf:
        raise MeasureError("normalize: total mass is zero or non-finite")
    w /= total
    if abs(w.sum() - 1.0) > SIMPLEX_TOL:
        raise MeasureError(f"weights sum to {w.sum()!r}, not 1")
    return DiscreteMeasure._trusted(w, grid)


def normalize_clamped(raw, grid: Grid1D | None = None) -> DiscreteMeasure:
    """Normalize after clamping entries to a strictly positive floor.

    Generated measures go through this so that downstream dual bounds and
    entropic solvers (which assume r > 0) stay in their valid regime. raw is
    copied, not changed.
    """
    w = np.array(raw, dtype=float)
    if w.ndim != 1:
        raise MeasureError("weights must be a vector")
    if grid is not None and grid.n != w.size:
        raise MeasureError("weights length does not match grid size")
    return _floor_to_unit(w, grid)


def discretize_gaussian(mu: float, sigma: float, grid: Grid1D) -> DiscreteMeasure:
    """Pointwise Gaussian density on the grid, floor-clamped and normalized.

    One buffer w takes -z^2/2, its shift by the max (so the peak is exactly
    1 before clamping), the exp, the floor and the division, in place, with
    the arithmetic of the two-pass formula -- exp(logw - logw.max()) with
    logw = -0.5 * z * z, then `normalize_clamped` -- and so its bits. A
    sigma so small that every z overflows gives NaN weights, which fail the
    sum check with MeasureError.
    """
    if sigma <= 0:
        raise MeasureError("discretize_gaussian: sigma must be positive")
    z = grid.points - mu
    z /= sigma
    w = -0.5 * z
    w *= z
    w -= w.max()
    np.exp(w, out=w)
    return _floor_to_unit(w, grid)


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


class MeasureStream:
    """Seeded i.i.d. source of measures: each sample is draw(rng), on the one
    generator rng seeded by seed. `finite` and `gaussian` build the draw."""

    def __init__(self, draw: Callable[[np.random.Generator], DiscreteMeasure],
                 seed: int):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._draw = draw

    @classmethod
    def finite(cls, measures, weights, seed: int) -> "MeasureStream":
        """measures[t], t drawn by `sampling_law(weights, len(measures))`."""
        cdf = sampling_cdf(sampling_law(weights, len(measures)))
        measures = list(measures)
        if any(m.n != measures[0].n or m.grid != measures[0].grid for m in measures):
            raise MeasureError("finite stream: mixed supports")
        return cls(lambda rng: measures[draw_index(cdf, rng)], seed)

    @classmethod
    def gaussian(cls, law: GaussianParamLaw, grid: Grid1D, seed: int) -> "MeasureStream":
        """`discretize_gaussian` of (mu, sigma) drawn from law."""
        sd, scale = math.sqrt(law.sigma0_sq), 1.0 / law.rate

        def draw(rng: np.random.Generator) -> DiscreteMeasure:
            mu = rng.normal(law.mu0, sd)
            sigma = rng.exponential(scale)
            # an exponential draw can underflow to 0; resample the tail away
            while sigma <= 0:
                sigma = rng.exponential(scale)
            return discretize_gaussian(mu, sigma, grid)
        return cls(draw, seed)

    def sample(self) -> DiscreteMeasure:
        return self._draw(self.rng)


def save_corpus(path, measures, grid: Grid1D | None = None) -> None:
    """Write a measure corpus: one CSV row per measure, optional grid header."""
    with open(path, "w") as fh:
        if grid is not None:
            fh.write(f"# grid: {grid.lo!r} {grid.hi!r} {grid.n}\n")
        for m in measures:
            fh.write(",".join(repr(float(x)) for x in m.weights) + "\n")


def load_corpus(path) -> tuple[Grid1D | None, list[DiscreteMeasure]]:
    """Read a measure corpus written by save_corpus."""
    if not path or not os.path.exists(path):
        raise MeasureError(f"corpus path missing: {path!r}")
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
