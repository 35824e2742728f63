"""Ground truth and quality metrics for the Gaussian streaming experiment.

For a stream of Gaussian measures with mu ~ Normal(mu0, sigma0_sq) and
sigma ~ Exponential(rate), the population barycenter in the 1-D quadratic
setting is the Gaussian with mean E[mu] and standard deviation E[sigma],
discretized with the same rule as the data. Estimates are scored by their
2-Wasserstein distance to this truth; an exact finite-support duality-gap
surrogate on a holdout set scores all methods uniformly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from barystream.dual_core import (
    CostMatrix,
    SolverError,
    saddle_gap,
    wasserstein_1d,
)
from barystream.measures import (
    DiscreteMeasure,
    GaussianParamLaw,
    Grid1D,
    discretize_gaussian,
    normalize,
)


def true_gaussian_barycenter(law: GaussianParamLaw, grid: Grid1D) -> DiscreteMeasure:
    """Discretized Gaussian with mean E[mu] and sd E[sigma] = 1/rate."""
    return discretize_gaussian(law.mu0, 1.0 / law.rate, grid)


def score(estimate: DiscreteMeasure, truth: DiscreteMeasure,
          grid: Grid1D) -> float:
    """2-Wasserstein distance of an estimate to the true barycenter."""
    return wasserstein_1d(estimate, truth, grid, p=2.0)


def uniform_baseline_score(truth: DiscreteMeasure, grid: Grid1D) -> float:
    """Score of the uninformative uniform estimate; regression baseline."""
    uniform = normalize(np.ones(grid.n), grid)
    return score(uniform, truth, grid)


def gap_surrogate(r, holdout, C: CostMatrix) -> float:
    """Primal suboptimality of r on the holdout empirical barycenter problem.

    `saddle_gap` of the holdout, equally weighted, at the boxed dual row
    maximizers at r, so the reported value is max_M F(r, M) -
    min_r' F(r', M*(r)): zero iff r minimizes the empirical objective on the
    holdout. Where r has zero-mass entries or shares a CDF breakpoint with a
    holdout measure, or a holdout measure has zero-mass entries, the
    maximizer is not unique, and the value depends on the one taken; any of
    them gives an upper bound on the suboptimality.
    """
    holdout = [m.weights if isinstance(m, DiscreteMeasure) else np.asarray(m, float)
               for m in holdout]
    if not holdout:
        raise SolverError("gap_surrogate: holdout must be non-empty")
    return saddle_gap(r, holdout, [1.0 / len(holdout)] * len(holdout), C)


CSV_HEADER = ("samples_processed,w2_to_truth,gap_surrogate,wall_ns,method,seed,"
              "config_hash")


@dataclass
class ExperimentReport:
    """Per-checkpoint quality rows for one (method, seed) run."""

    method: str
    seed: int
    config_hash: str = ""
    rows: list[dict] = field(default_factory=list)
    # rows write_csv has put in the report file; None before its first call
    _written: int | None = field(default=None, init=False, repr=False)

    def add(self, samples_processed: int, w2_to_truth: float,
            gap_surrogate_value: float, wall_ns: int) -> None:
        if self.rows and samples_processed < self.rows[-1]["samples_processed"]:
            raise SolverError("report rows must be sorted by samples_processed")
        for v in (w2_to_truth, gap_surrogate_value):
            if v is not None and not np.isfinite(v):
                raise SolverError("report metric is not finite")
        self.rows.append({
            "samples_processed": samples_processed,
            "w2_to_truth": w2_to_truth,
            "gap_surrogate": gap_surrogate_value,
            "wall_ns": wall_ns,
        })

    def read_csv(self, path, upto: int) -> None:
        """Add this run's (its config_hash's) rows up to samples_processed upto
        from the report at path, as a resumed run continues them: a missing
        report, or one of another run, adds none; a line that is not a row raises."""
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return
        if lines[:1] != [CSV_HEADER]:
            return
        for number, line in enumerate(lines[1:], start=2):
            try:
                k, w2, gap, wall_ns, _, _, config_hash = line.split(",")
                row = (int(k), float(w2) if w2 else None,
                       float(gap) if gap else None, int(wall_ns))
                if config_hash == self.config_hash and row[0] <= upto:
                    self.add(*row)
            except (ValueError, SolverError) as exc:
                raise SolverError(f"report {path} line {number}: {exc}") from None

    def write_csv(self, path) -> None:
        """Put the rows in the report at path: the first call writes the whole
        file through a tmp file and os.replace, each later one appends the
        rows added since, so a row is written once."""
        first = self._written is None
        with open(f"{path}.tmp" if first else path, "w" if first else "a") as fh:
            if first:
                fh.write(CSV_HEADER + "\n")
            for row in self.rows[self._written or 0:]:
                w2, gap = row["w2_to_truth"], row["gap_surrogate"]
                fh.write(f"{row['samples_processed']},{'' if w2 is None else repr(w2)},"
                         f"{'' if gap is None else repr(gap)},{row['wall_ns']},"
                         f"{self.method},{self.seed},{self.config_hash}\n")
        if first:
            os.replace(f"{path}.tmp", path)
        self._written = len(self.rows)
