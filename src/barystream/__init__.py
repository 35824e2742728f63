"""Streaming estimation of population Wasserstein barycenters.

Discrete probability measures on a shared support arrive as a stream; the
barycenter is estimated by stochastic mirror descent on a convex-concave
saddle-point formulation, either with a finite-support dual matrix or with
a kernelized dual function (RBF, information-diffusion, or linear kernel).
Exact small-scale OT solvers are included for certification and scoring.
"""

from barystream.measures import (
    DiscreteMeasure,
    GaussianParamLaw,
    Grid1D,
    MeasureStream,
    discretize_gaussian,
    normalize,
)
from barystream.dual_core import (
    CostMatrix,
    OtSolution,
    SinkhornSolution,
    certify_dual_bound,
    exact_ot,
    lambda_star,
    lambda_star_argmax,
    sinkhorn,
    squared_distance_cost,
    wasserstein_1d,
)
from barystream.finite_md import (
    FiniteProblem,
    FiniteSaddleState,
    duality_gap_finite,
    md_step,
    run_finite,
)
from barystream.kmd import (
    Kernel,
    KmdState,
    LinearKmdState,
    f_eval,
    kernel_eval,
    kmd_run,
    kmd_step,
    linear_kmd_step,
)
from barystream.baselines import (
    BaselineConfig,
    lp_subgradient,
    run_baseline,
    sinkhorn_gradient,
)
from barystream.evaluation import (
    gap_surrogate,
    score,
    true_gaussian_barycenter,
    uniform_baseline_score,
)

# the public names: every class and function imported above, each listed once
__all__ = sorted(name for name, value in list(globals().items())
                 if getattr(value, "__module__", "").startswith("barystream."))
