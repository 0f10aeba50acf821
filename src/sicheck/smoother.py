"""Leave-one-out kernel smoothing on rank-transformed projections, and the
residual core that the score, maximin and omnibus tests share.

For observation j the smoother averages the remaining values with kernel
weights on the rank scale,

    fit_j(u) = 1/((n-1) h) * sum_{i != j} v_i K((u - U_i) / h),

a plain sum with no density denominator: the ranks are near-uniform on
(0, 1], which is what makes the unnormalized average consistent.  An empty
kernel window yields the literal empty sum, 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError, InsufficientDataError
from .index import IndexFit
from .kernels import quartic_kernel


@dataclass(frozen=True)
class SmootherConfig:
    h: float

    def __post_init__(self):
        if not 0.0 < self.h <= 1.0:
            raise ConfigError(
                f"bandwidth must lie in (0, 1] on the rank scale, got {self.h}"
            )


def loo_matrix(u_ranks, h: float) -> np.ndarray:
    """Leave-one-out weight matrix S on the rank scale.

    S[i, j] = K((U_j - U_i) / h) / ((n - 1) h) with a zero diagonal, so the
    fitted value at observation j for a value vector v is (v @ S)[j].
    Accepts any h > 0 (bandwidth search probes beyond the config range).
    """
    if not h > 0:
        raise ConfigError(f"bandwidth must be positive, got {h}")
    u = np.asarray(u_ranks, dtype=float)
    n = u.size
    if n < 2:
        raise InsufficientDataError("leave-one-out smoothing needs n >= 2")
    s = quartic_kernel((u[None, :] - u[:, None]) / h)
    np.fill_diagonal(s, 0.0)
    return s / ((n - 1) * h)


def _smooth(s: np.ndarray, values) -> np.ndarray:
    # a vector or an (n, d) column stack; complex values pass through
    v = np.asarray(values)
    if v.shape[0] != s.shape[0]:
        raise DataError("values and ranks must have equal length")
    return v @ s if v.ndim == 1 else s.T @ v


@dataclass(frozen=True, eq=False)
class ResidualCore:
    """Leave-one-out matrix ``s``, residuals ``eps = y - y S`` at every
    observation, and the interior mask ``keep`` that the test sums run over.
    """

    s: np.ndarray
    eps: np.ndarray
    keep: np.ndarray

    def smooth(self, values) -> np.ndarray:
        """Leave-one-out fits of a vector or an (n, d) column stack, real or
        complex, at each observation's own rank."""
        return _smooth(self.s, values)

    def centered(self, values) -> np.ndarray:
        """Interior rows of ``values`` minus their leave-one-out smooth."""
        v = np.asarray(values)
        return (v - self.smooth(v))[self.keep]

    @property
    def diagnostics(self) -> dict:
        """Empty kernel windows (nonzero flags undersmoothing: those residuals
        reduce to the raw responses) and the interior count."""
        return {
            "empty_windows": int(np.count_nonzero(self.s.sum(axis=0) == 0.0)),
            "n_interior": int(self.keep.sum()),
        }


def residual_core(
    data: Dataset, fit: IndexFit, cfg: SmootherConfig, margin: float = 1.0
) -> ResidualCore:
    """Build the shared core; ``margin`` is the interior margin in bandwidths."""
    if fit.n != data.n:
        raise DataError("index fit and dataset sizes differ")
    s = loo_matrix(fit.ranks_u, cfg.h)
    return ResidualCore(
        s=s, eps=data.y - data.y @ s, keep=interior_mask(fit.ranks_u, cfg.h, margin)
    )


def residuals(data: Dataset, fit: IndexFit, cfg: SmootherConfig) -> np.ndarray:
    """y_j minus the leave-one-out fit at U_j, for every observation."""
    return residual_core(data, fit, cfg).eps


def smoothed_weights(w_values, fit: IndexFit, cfg: SmootherConfig) -> np.ndarray:
    """Leave-one-out smooth of weight values at each observation's own rank.

    ``w_values`` may be a vector or an (n, d) column stack, real or complex.
    """
    return _smooth(loo_matrix(fit.ranks_u, cfg.h), w_values)


#: Smallest interior subsample a test statistic may run on; below this the
#: interior restriction is abandoned and all observations enter the sums.
MIN_INTERIOR = 5


def interior_mask(u_ranks, h: float, margin: float = 1.0) -> np.ndarray:
    """Boolean mask of observations whose kernel window avoids the rank
    boundary by ``margin * h``.

    Windows that stick out past rank 0 or 1 are truncated, and their
    fitted values carry a mass deficit that leaks the response level into
    residual-based statistics; the test statistics therefore sum over
    interior observations only.  When fewer than MIN_INTERIOR points
    survive, the mask degenerates to all-true.
    """
    u = np.asarray(u_ranks, dtype=float)
    b = margin * h
    keep = (u > b) & (u <= 1.0 - b + 1e-12)
    if int(keep.sum()) < MIN_INTERIOR:
        return np.ones(u.size, dtype=bool)
    return keep
