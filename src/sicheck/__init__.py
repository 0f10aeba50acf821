"""Lack-of-fit checks for single-index regression models.

The pipeline: estimate a projection direction by least squares, transform
the projected covariates to normalized ranks, smooth the responses with a
leave-one-out kernel average on the rank scale, and feed the residuals
into score-type, chi-square (maximin) or characteristic-function omnibus
statistics.  A Monte Carlo harness reproduces size and power studies.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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
    OmnibusCheck,
    OmnibusReport,
    bootstrap_critical_value,
    cf_process,
    gamma_grid,
    omnibus_test,
    standardize_columns,
)
from .score_test import (
    MaximinCheck,
    MaximinReport,
    ScoreCheck,
    ScoreReport,
    covariance_matrix,
    maximin_statistic,
    maximin_test,
    score_statistic,
    standardized_test,
    variance_estimate,
)
from .simulate import (
    MCResult,
    ModelKind,
    Scenario,
    binary_success_prob,
    bump_mean,
    cubic_mean,
    default_beta,
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
from .weights import WeightSpec

# Every name the imports above bind is public, the submodules they bind are not.
__all__ = ["__version__"] + sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
