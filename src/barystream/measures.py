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

A Gaussian stream discretizes its measures in look-ahead blocks, as README's
stream paragraph describes. After k samples its generator holds the state of
k one-at-a-time draws, which is what a checkpoint saves, and every sample,
its MeasureError and its numpy warnings are those of the one-sample path.
"""

from __future__ import annotations

import io
import math
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12
WEIGHT_FLOOR = 1e-12
# rows of a Gaussian stream's successive look-ahead blocks, the last size
# repeating: a stream that stops early computes at most about twice the rows
# it serves
LOOKAHEAD_ROWS = (8, 16, 32, 64)
# raw words a BlockDraws takes from its generator at a refill
DRAW_BLOCK = 256


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
        m = self.mean()
        return math.sqrt(float(self.weights @ (self.grid.points - m) ** 2))


def sampling_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF of the index law p that `draw_index` reads: p's cumsum (its
    add accumulation), scaled to end at 1, as `Generator.choice` builds it."""
    cdf = np.add.accumulate(p)
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


class BlockDraws:
    """`random()` and `integers(n)` of a PCG64 Generator, decoded from blocks
    of its raw 64-bit words, with the values and the generator state of
    per-call draws, bit for bit.

    A refill draws DRAW_BLOCK words by `rng.integers(0, 2**64, size=B,
    dtype=np.uint64)`, which are the bit generator's next raw words and leave
    its buffered half-word alone. They are served as numpy serves them:
    `random()` is (word >> 11) * 2**-53; `integers(n)` is numpy's buffered
    32-bit Lemire draw on PCG64's `next_uint32`, which returns the buffered
    upper half of the last word when there is one, else the lower half of a
    new word, whose upper half it buffers, with rejection below (2**32 - n)
    % n. n = 1 draws nothing and n = 2**32 returns `next_uint32` as is;
    any other n (not an int in [1, 2**32]) syncs and calls rng.integers(n).

    The generator runs ahead of the draws served until `sync()`, which sets
    it back to the block's first word with the served half-word buffer and
    steps it over the words served, and drops the rest of the block.
    `bit_generator` syncs before it returns the generator's, so reading or
    setting its state sees the exact state; no other Generator attribute is
    offered, so nothing draws out of order.
    """

    __slots__ = ("_rng", "_start", "_words", "_next", "_has32", "_u32")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._start = None          # the state at the block's first word
        self._words: list[int] = []
        self._next = 0              # words served from the block
        # the half-word buffer served so far; None until a refill reads the
        # generator's, after which the generator's is stale until sync()
        self._has32 = None
        self._u32 = 0

    def _refill(self) -> None:
        start = self._rng.bit_generator.state
        if self._has32 is None:
            self._has32, self._u32 = start["has_uint32"], start["uinteger"]
        self._start = start
        self._words = self._rng.integers(0, 1 << 64, size=DRAW_BLOCK,
                                         dtype=np.uint64).tolist()
        self._next = 0

    def _word(self) -> int:
        try:
            w = self._words[self._next]
        except IndexError:
            self._refill()
            w = self._words[0]
        self._next += 1
        return w

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def _next32(self) -> int:
        if self._has32 is None:
            self._refill()
        if self._has32:
            self._has32 = 0
            return self._u32
        w = self._word()
        self._has32, self._u32 = 1, w >> 32
        return w & 0xFFFFFFFF

    def integers(self, n):
        if type(n) is not int or not 1 < n <= 1 << 32:
            if type(n) is int and n == 1:
                return 0
            self.sync()
            return self._rng.integers(n)
        m = self._next32()
        if n == 1 << 32:
            return m
        m *= n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32

    def sync(self) -> None:
        """Put the generator where per-call draws would have left it."""
        start = self._start
        if start is None:
            return
        start["has_uint32"], start["uinteger"] = self._has32, self._u32
        bit_generator = self._rng.bit_generator
        bit_generator.state = start
        if self._next:
            # raw words step the state and leave the half-word buffer alone
            bit_generator.random_raw(self._next)
        self._start, self._words, self._next, self._has32 = None, [], 0, None

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        self.sync()
        return self._rng.bit_generator


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


def _unit_rows(w: np.ndarray) -> np.ndarray:
    """Floor each row (last axis) of w, a float64 vector or (B, n) block the
    caller owns, at WEIGHT_FLOOR and divide it by its sum, both in place: per
    row the arithmetic, and so the bits, of np.maximum then `normalize`. A
    floored entry is positive or NaN, so once a row's sum is positive and
    finite (NaN fails) none of its weights is negative; its sum after the
    division is then checked against 1. Returns whether each row passed; a
    vector raises the MeasureError of the check it fails instead, before
    any arithmetic past that check."""
    np.maximum(w, WEIGHT_FLOOR, out=w)
    total = w.sum(axis=-1, keepdims=True)
    vector = w.ndim == 1
    if vector and not 0 < total[0] < math.inf:
        raise MeasureError("normalize: total mass is zero or non-finite")
    w /= total
    sums = w.sum(axis=-1)
    # a block row with a bad sum is NaN or 0 after the division: it fails here
    ok = abs(sums - 1.0) <= SIMPLEX_TOL
    if vector and not ok:
        raise MeasureError(f"weights sum to {sums!r}, not 1")
    return ok


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
    _unit_rows(w)
    return DiscreteMeasure._trusted(w, grid)


def _gaussian_rows(mu, sigma, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pointwise Gaussian density of (mu, sigma) on points, floor-clamped
    and normalized (`_unit_rows`): a vector for floats mu and sigma, row i of
    a block for (B, 1) columns.

    One buffer w takes -z^2/2, its shift by the row max (so each peak is
    exactly 1 before clamping), the exp, the floor and the division, in
    place, with the arithmetic of the two-pass formula -- exp(logw -
    logw.max()) with logw = -0.5 * z * z, then `normalize_clamped` -- and so
    its bits. Also returns whether each row passed `_unit_rows` with no
    overflow or invalid operation on the way, so that its vector pass warns
    of nothing (underflow, which numpy ignores by default, aside): -z^2/2 is
    never +inf, and where none of it is -inf or NaN, no step before it
    overflowed and none after it can.
    """
    z = points - mu
    z /= sigma
    w = -0.5 * z
    w *= z
    clean = w.min(axis=-1) > -math.inf
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    return w, clean & _unit_rows(w)


def discretize_gaussian(mu: float, sigma: float, grid: Grid1D) -> DiscreteMeasure:
    """Pointwise Gaussian density on the grid, floor-clamped and normalized:
    `_gaussian_rows` of the one pair. A sigma so small that every z
    overflows gives NaN weights, which fail the sum check with MeasureError.
    """
    if sigma <= 0:
        raise MeasureError("discretize_gaussian: sigma must be positive")
    return DiscreteMeasure._trusted(_gaussian_rows(mu, sigma, grid.points)[0],
                                    grid)


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


class _GaussianDraw:
    """The draw of `MeasureStream.gaussian`: `discretize_gaussian` of the
    pair `pair` draws, served from a look-ahead block (module docstring)."""

    def __init__(self, law: GaussianParamLaw, grid: Grid1D):
        self.mu0, self.sd = law.mu0, math.sqrt(law.sigma0_sq)
        self.scale = 1.0 / law.rate
        self.grid = grid
        self._ahead = np.random.Generator(np.random.PCG64(0))
        self._refills = 0
        self._pairs: list[tuple[float, float]] = []
        self._next = 0

    def pair(self, rng: np.random.Generator) -> tuple[float, float]:
        mu = rng.normal(self.mu0, self.sd)
        sigma = rng.exponential(self.scale)
        # an exponential draw can underflow to 0; resample the tail away
        while sigma <= 0:
            sigma = rng.exponential(self.scale)
        return mu, sigma

    def _refill(self, rng: np.random.Generator) -> None:
        """The block of the pairs rng draws next, from a copy of its state."""
        self._ahead.bit_generator.state = rng.bit_generator.state
        size = LOOKAHEAD_ROWS[min(self._refills, len(LOOKAHEAD_ROWS) - 1)]
        self._refills += 1
        self._pairs = [self.pair(self._ahead) for _ in range(size)]
        pairs = np.array(self._pairs)
        # a bad row is not served, so it warns of nothing here
        with np.errstate(all="ignore"):
            self._rows, self._clean = _gaussian_rows(pairs[:, :1], pairs[:, 1:],
                                                     self.grid.points)
        # served rows are views of the block; no consumer may write them
        self._rows.flags.writeable = False
        self._next = 0

    def __call__(self, rng: np.random.Generator) -> DiscreteMeasure:
        if self._next == len(self._pairs):
            self._refill(rng)
        i = self._next
        mu, sigma = pair = self.pair(rng)
        # equal pairs (NaN never is) give equal rows, the sign of a zero mu
        # included, so a row is served only by the pair that made it
        if pair != self._pairs[i]:
            self._pairs, self._next = [], 0  # rng was moved: look ahead anew
        else:
            self._next = i + 1
            if self._clean[i]:
                return DiscreteMeasure._trusted(self._rows[i], self.grid)
        return discretize_gaussian(mu, sigma, self.grid)


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
        """`discretize_gaussian` of (mu, sigma) drawn from law: mu by `normal`,
        then sigma by `exponential`, redrawn while it is 0. A measure served
        from a look-ahead block is a read-only view of it (module docstring)."""
        return cls(_GaussianDraw(law, grid), seed)

    def sample(self) -> DiscreteMeasure:
        return self._draw(self.rng)


def write_file(path, data: str | bytes, append: bool = False) -> None:
    """Write data, text or bytes, to the file at path: appended to it with
    append, else as the whole file through a temporary file and os.replace,
    so an interrupted write leaves the old file or the new one. The one
    function of the package that writes a file."""
    target = path if append else f"{path}.tmp"
    mode = ("a" if append else "w") + ("b" if isinstance(data, bytes) else "")
    with open(target, mode) as fh:
        fh.write(data)
    if not append:
        os.replace(target, path)


def save_corpus(path, measures, grid: Grid1D | None = None) -> None:
    """Write a measure corpus (`write_file`): one CSV row per measure,
    optional grid header."""
    lines = [] if grid is None else [f"# grid: {grid.lo!r} {grid.hi!r} {grid.n}"]
    lines += [",".join(repr(float(x)) for x in m.weights) for m in measures]
    write_file(path, "".join(line + "\n" for line in lines))


def load_corpus(path) -> tuple[Grid1D | None, list[DiscreteMeasure]]:
    """Read a measure corpus written by save_corpus. A file that cannot be
    read or is not UTF-8 text, a grid header that is not `# grid: lo hi n`,
    and a row that is not comma-separated numbers with mass is a
    MeasureError naming the path and, where there is one, the line."""
    if not path or not os.path.exists(path):
        raise MeasureError(f"corpus path missing: {path!r}")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise MeasureError(f"corpus {path} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MeasureError(f"corpus {path} line {line}: not UTF-8 text") from None
    grid = None
    measures = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                fields = line.lstrip("#").split()
                if fields[:1] == ["grid:"]:
                    try:
                        _, lo, hi, n = fields
                        lo, hi, n = float(lo), float(hi), int(n)
                    except ValueError:
                        raise MeasureError("a grid header is '# grid: lo hi n' "
                                           "with n an integer") from None
                    grid = Grid1D.uniform(lo, hi, n)
                continue
            try:
                w = np.fromstring(line, sep=",")
            except ValueError:
                raise MeasureError("not a row of comma-separated numbers") from None
            measures.append(normalize(w, grid))
        except ValueError as exc:  # a MeasureError, or linspace's for n < 0
            raise MeasureError(f"corpus {path} line {lineno}: {exc}") from None
    if not measures:
        raise MeasureError(f"corpus {path} holds no measures")
    if grid is not None and any(m.n != grid.n for m in measures):
        raise MeasureError(f"corpus {path}: row length does not match grid")
    return grid, measures
