"""Low-rank weight compression toolkit.

Three pieces, composable but independently usable:

* data-aware truncated-SVD compression of individual weight matrices
  (``svdcompress``), with whitening built from input calibration statistics;
* lossless secondary compression of the resulting factors by pivoted gauge
  fixing (``pivga``), trading a permuted forward pass for r^2 fewer stored
  values per layer;
* a global rank allocator (``fermigrad``) that relaxes the discrete
  truncation with logistic gates and descends a KL + budget-penalty loss.

``toymodels`` provides seeded desk-scale networks with planted ranks for
end-to-end verification, and ``matrixio``/``cli`` the on-disk formats and
command-line pipeline.
"""

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    IllConditioned,
    InfeasibleBudget,
    NonFiniteGradient,
    NotPositiveDefinite,
    NotSymmetric,
    PackageFormatError,
    RankDeficient,
    SearchSpaceTooLarge,
    ToolkitError,
)
from .fermigrad import (
    BudgetConstraint,
    FermiConfig,
    MuVector,
    OptimizerConfig,
    RankAllocation,
    RhoSchedule,
    TrajectoryPoint,
    fermi_factors,
    grad_mu,
    kl_divergence,
    optimize_ranks,
    penalty_loss,
    rho_schedule,
    round_and_repair,
    uniform_ranks,
)
from .linalg import (
    SvdResult,
    cholesky_whiten,
    left_singular_vectors,
    svd_descending,
)
from .pivga import (
    ParamCount,
    PivGaFactors,
    breakeven_rank,
    param_count,
    pivga_factorize,
    pivga_forward,
    select_skeleton_columns,
)
from .svdcompress import (
    LowRankFactors,
    data_aware_svd,
    plain_svd_compress,
    truncation_error,
)
from .toymodels import (
    ToyModel,
    ToyModelSpec,
    attach_data_aware_factors,
    brute_force_rank_search,
    build_teacher,
    default_spec,
    evaluate_allocations,
    gen_calibration,
)

__version__ = "0.1.0"
