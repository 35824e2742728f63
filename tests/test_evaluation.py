import numpy as np
import pytest

from barystream.dual_core import (
    CostMatrix,
    SolverError,
    squared_distance_cost,
)
from barystream.evaluation import (
    ExperimentReport,
    gap_surrogate,
    score,
    true_gaussian_barycenter,
    uniform_baseline_score,
)
from barystream.measures import (
    DiscreteMeasure,
    GaussianParamLaw,
    Grid1D,
    discretize_gaussian,
    normalize,
)


def rand_measure(rng, grid):
    return normalize(rng.random(grid.n) + 0.01, grid)


def test_true_barycenter_moments():
    grid = Grid1D.uniform(-10, 10, 300)
    truth = true_gaussian_barycenter(GaussianParamLaw(1.0, 4.0, 0.5), grid)
    assert abs(truth.mean() - 1.0) < 0.05
    assert abs(truth.sd() - 2.0) < 0.05


def test_true_barycenter_matches_discretization_rule():
    grid = Grid1D.uniform(-10, 10, 100)
    truth = true_gaussian_barycenter(GaussianParamLaw(1.0, 4.0, 0.5), grid)
    np.testing.assert_array_equal(truth.weights,
                                  discretize_gaussian(1.0, 2.0, grid).weights)


def test_score_metric_properties():
    rng = np.random.default_rng(0)
    grid = Grid1D.uniform(-2, 2, 12)
    for _ in range(50):
        a, b, c = (rand_measure(rng, grid) for _ in range(3))
        assert score(a, a, grid) == 0.0
        assert abs(score(a, b, grid) - score(b, a, grid)) <= 1e-12
        assert score(a, c, grid) <= score(a, b, grid) + score(b, c, grid) + 1e-9


def test_score_shift_by_one_grid_step():
    grid = Grid1D.uniform(-10, 10, 201)  # step 0.1
    h = grid.points[1] - grid.points[0]
    a = discretize_gaussian(0.0, 1.0, grid)
    b = discretize_gaussian(h, 1.0, grid)
    s = score(a, b, grid)
    assert abs(s - h) <= 0.05 * h


def test_uniform_baseline_frozen_value():
    grid = Grid1D.uniform(-10, 10, 100)
    s = uniform_baseline_score(
        true_gaussian_barycenter(GaussianParamLaw(1.0, 4.0, 0.5), grid), grid)
    # independent dense quantile-function integration gives 4.028101824...
    assert abs(s - 4.028101824145352) <= 1e-4
    # frozen regression value of this implementation
    assert abs(s - 4.028100573046017) <= 1e-9


def test_gap_surrogate_nonnegative():
    rng = np.random.default_rng(1)
    grid = Grid1D.uniform(0, 1, 5)
    C = squared_distance_cost(grid, 2)
    holdout = [rand_measure(rng, grid) for _ in range(4)]
    for _ in range(10):
        r = rand_measure(rng, grid).weights
        assert gap_surrogate(r, holdout, C) >= -1e-9


def test_gap_surrogate_zero_at_optimum():
    # two-measure toy; optimum located by dense search over the 2-simplex edge
    grid = Grid1D.uniform(0, 1, 2)
    C = squared_distance_cost(grid, 2)
    a = DiscreteMeasure(np.array([0.8, 0.2]), grid)
    b = DiscreteMeasure(np.array([0.4, 0.6]), grid)
    holdout = [a, b]
    ts = np.linspace(1e-6, 1 - 1e-6, 2001)
    gaps = [gap_surrogate(np.array([t, 1 - t]), holdout, C) for t in ts]
    assert min(gaps) <= 1e-3
    # and every probed point is certified suboptimal by at least its gap
    assert max(gaps) > 0.01


def test_gap_surrogate_dominates_true_suboptimality():
    # single holdout measure: min_r' L(r', c) = 0 (take r' = c), so the
    # surrogate must be at least L(r, c); at r = c it must vanish
    from barystream.dual_core import exact_ot

    grid = Grid1D.uniform(0, 1, 4)
    C = squared_distance_cost(grid, 2)
    c = DiscreteMeasure(np.array([0.7, 0.1, 0.1, 0.1]), grid)
    r = np.full(4, 0.25)
    gap = gap_surrogate(r, [c], C)
    lp = exact_ot(normalize(r, grid), c, C).value
    assert gap >= lp - 1e-9
    assert abs(gap_surrogate(c.weights, [c], C)) <= 1e-7


def test_gap_surrogate_rejections():
    grid = Grid1D.uniform(0, 1, 3)
    C = squared_distance_cost(grid, 2)
    with pytest.raises(SolverError):
        gap_surrogate(np.full(3, 1 / 3), [], C)
    big = CostMatrix.from_entries(np.zeros((65, 65)))
    with pytest.raises(SolverError):
        gap_surrogate(np.full(65, 1 / 65), [np.full(65, 1 / 65)], big)


def test_report_ordering_and_csv(tmp_path):
    rep = ExperimentReport(method="linear_kmd", seed=3, config_hash="abc")
    rep.add(10, 1.5, 0.25, 100)
    rep.add(20, 1.25, None, 200)
    with pytest.raises(SolverError):
        rep.add(5, 1.0, 0.1, 300)
    with pytest.raises(SolverError):
        rep.add(30, float("nan"), 0.1, 300)
    path = tmp_path / "report.csv"
    rep.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("samples_processed,")
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "10"
    assert float(fields[1]) == 1.5
    assert lines[2].split(",")[2] == ""  # gap column empty when skipped


def test_report_reads_back_its_own_rows_up_to_a_step(tmp_path):
    rep = ExperimentReport(method="kmd", seed=1, config_hash="abc")
    for k, w2, gap in [(10, 0.1 + 0.2, None), (20, 1 / 3, 2 / 7), (30, 0.5, 0.0)]:
        rep.add(k, w2, gap, 7 * k)
    path = tmp_path / "report.csv"
    rep.write_csv(path)
    again = ExperimentReport(method="kmd", seed=1, config_hash="abc")
    again.read_csv(path, 20)
    assert again.rows == rep.rows[:2]  # every float back bit for bit
    # another run's report, a missing one and a file of another kind add none
    (tmp_path / "notes.csv").write_text("a,b\n1,2\n")
    for config_hash, where in [("def", path), ("abc", tmp_path / "none.csv"),
                               ("abc", tmp_path / "notes.csv")]:
        other = ExperimentReport(method="kmd", seed=1, config_hash=config_hash)
        other.read_csv(where, 30)
        assert other.rows == []
