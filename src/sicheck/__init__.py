"""Lack-of-fit checks for single-index regression models.

The pipeline: estimate a projection direction by least squares, transform
the projected covariates to normalized ranks, smooth the responses with a
leave-one-out kernel average on the rank scale, and feed the residuals
into score-type, chi-square (maximin) or characteristic-function omnibus
statistics.  A Monte Carlo harness reproduces size and power studies.
"""

__version__ = "0.1.0"

from .bandwidth import default_bandwidth_grid, mise, select_bandwidth
from .dataset import Dataset, load_dataset, save_dataset
from .exceptions import (
    ConfigError,
    DataError,
    DegenerateDirectionError,
    DegenerateVarianceError,
    InsufficientDataError,
    NearSingularCovarianceError,
    SicheckError,
    SingularDesignError,
)
from .index import IndexFit, fit_from_direction, fit_index_ols, project, rank_transform
from .kernels import quartic_kernel
from .omnibus import (
    BootstrapConfig,
    GammaGrid,
    OmnibusReport,
    bootstrap_critical_value,
    cf_process,
    gamma_grid,
    omnibus_test,
    standardize_columns,
)
from .score_test import (
    MaximinReport,
    ScoreReport,
    covariance_matrix,
    maximin_statistic,
    maximin_test,
    score_statistic,
    standardized_test,
    variance_estimate,
)
from .simulate import (
    MaximinCheck,
    MCResult,
    ModelKind,
    OmnibusCheck,
    Scenario,
    ScoreCheck,
    binary_success_prob,
    bump_mean,
    cubic_mean,
    default_beta,
    gen_binary,
    gen_bump,
    gen_continuous,
    gen_interaction,
    generate,
    interaction_mean,
    monte_carlo,
)
from .smoother import (
    SmootherConfig,
    interior_mask,
    loo_matrix,
    residuals,
    smoothed_weights,
)
from .weights import WeightKind, WeightSpec

__all__ = [
    "__version__",
    "BootstrapConfig",
    "ConfigError",
    "DataError",
    "Dataset",
    "DegenerateDirectionError",
    "DegenerateVarianceError",
    "GammaGrid",
    "IndexFit",
    "InsufficientDataError",
    "MCResult",
    "MaximinCheck",
    "MaximinReport",
    "ModelKind",
    "NearSingularCovarianceError",
    "OmnibusCheck",
    "OmnibusReport",
    "Scenario",
    "ScoreCheck",
    "ScoreReport",
    "SicheckError",
    "SingularDesignError",
    "SmootherConfig",
    "WeightKind",
    "WeightSpec",
    "binary_success_prob",
    "bootstrap_critical_value",
    "bump_mean",
    "cf_process",
    "covariance_matrix",
    "cubic_mean",
    "default_bandwidth_grid",
    "default_beta",
    "fit_from_direction",
    "fit_index_ols",
    "gamma_grid",
    "gen_binary",
    "gen_bump",
    "gen_continuous",
    "gen_interaction",
    "generate",
    "interaction_mean",
    "interior_mask",
    "load_dataset",
    "loo_matrix",
    "maximin_statistic",
    "maximin_test",
    "mise",
    "monte_carlo",
    "omnibus_test",
    "project",
    "quartic_kernel",
    "rank_transform",
    "residuals",
    "save_dataset",
    "score_statistic",
    "select_bandwidth",
    "smoothed_weights",
    "standardize_columns",
    "standardized_test",
    "variance_estimate",
]
