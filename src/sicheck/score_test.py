"""Score-type lack-of-fit tests.

The scalar statistic weighs leave-one-out residuals against a chosen
direction W.  The weights enter centered by their own leave-one-out
smooth, and the sums run over interior observations (kernel window inside
the rank range):

    T = m^(-1/2) sum_{j interior} eps_j [W(x_j) - Wbar_j],

standardized by the plug-in variance

    s2 = 1/m sum_{j interior} eps_j^2 [W(x_j) - Wbar_j]^2,

with m the interior count.  The centering matches the statistic's own
asymptotic representation (and the multiplier bootstrap, which perturbs
exactly these centered summands); the interior restriction drops the
observations whose truncated kernel windows would leak the response level
into the statistic.  The standardized ratio is compared against the
standard normal.  For a family of d weight functions, the vector of score
statistics with its estimated covariance gives a chi-square test with d
degrees of freedom that is maximin against shift families spanned by the
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import (
    ConfigError,
    DataError,
    DegenerateVarianceError,
    NearSingularCovarianceError,
)
from .index import IndexFit
from .smoother import ResidualCore, SmootherConfig, residual_core
from .special import chisq_quantile, chisq_sf, normal_two_sided_p
from .weights import WeightSpec

#: Condition-number ceiling beyond which the weight covariance is treated
#: as singular (linearly dependent weight functions).
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ScoreReport:
    t_hat: float
    sigma_n2: float
    t_bar: float
    p_value: float
    reject: bool
    alpha: float
    h: float
    n: int
    weight_kind: str
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "test": "score",
            "statistic": self.t_bar,
            "t_hat": self.t_hat,
            "sigma_n2": self.sigma_n2,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": bool(self.reject),
            "calibration": "normal",
            "h": self.h,
            "n": self.n,
            "d": 1,
            "weight_kinds": [self.weight_kind],
            "diagnostics": dict(self.diagnostics),
        }


@dataclass(frozen=True, eq=False)
class MaximinReport:
    t_vec: np.ndarray
    sigma_mat: np.ndarray
    statistic: float
    c_alpha: float
    p_value: float
    reject: bool
    alpha: float
    h: float
    n: int
    weight_kinds: tuple[str, ...]
    diagnostics: dict

    @property
    def d(self) -> int:
        return self.t_vec.size

    def to_json_dict(self) -> dict:
        return {
            "test": "maximin",
            "statistic": self.statistic,
            "c_alpha": self.c_alpha,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": bool(self.reject),
            "calibration": "chi-square",
            "h": self.h,
            "n": self.n,
            "d": self.d,
            "weight_kinds": list(self.weight_kinds),
            "t_vec": [float(t) for t in self.t_vec],
            "sigma_mat": [[float(v) for v in row] for row in self.sigma_mat],
            "diagnostics": dict(self.diagnostics),
        }


def score_statistic(eps_hat, w_values) -> float:
    """n^(-1/2) times the weighted residual sum."""
    eps = np.asarray(eps_hat)
    w = np.asarray(w_values)
    if eps.ndim != 1 or eps.shape != w.shape:
        raise DataError("residuals and weights must be equal-length vectors")
    if eps.size == 0:
        raise DataError("empty residual vector")
    return float((eps * w).sum() / math.sqrt(eps.size))


def variance_estimate(eps_hat, w_values, w_smoothed) -> float:
    """Plug-in variance: mean of eps^2 (W - Wbar)^2."""
    eps = np.asarray(eps_hat)
    w = np.asarray(w_values)
    wbar = np.asarray(w_smoothed)
    if not (eps.shape == w.shape == wbar.shape) or eps.ndim != 1:
        raise DataError("residuals, weights and smoothed weights must be equal-length vectors")
    return float(np.mean(eps**2 * (w - wbar) ** 2))


def covariance_matrix(eps_hat, s_values, s_smoothed) -> np.ndarray:
    """d x d covariance of the score vector for a family of d weights.

    Entry (i, j) averages eps_k^2 [s_i(x_k) - sbar_i,k][s_j(x_k) - sbar_j,k]
    over observations; the result is positive semidefinite by construction.
    """
    eps = np.asarray(eps_hat)
    values = np.atleast_2d(np.asarray(s_values, dtype=float))
    smoothed = np.atleast_2d(np.asarray(s_smoothed, dtype=float))
    if values.shape != smoothed.shape or values.shape[0] != eps.size:
        raise DataError("weight value matrices must be (n, d) and matching")
    centered = values - smoothed
    weighted = centered * (eps**2)[:, None]
    sigma = centered.T @ weighted / eps.size
    return 0.5 * (sigma + sigma.T)


def maximin_statistic(t_vec, sigma_mat) -> float:
    """Quadratic form t' Sigma^{-1} t via the Cholesky factor of Sigma."""
    t = np.asarray(t_vec, dtype=float)
    chol = np.linalg.cholesky(np.asarray(sigma_mat, dtype=float))
    z = np.linalg.solve(chol, t)
    return float(z @ z)


def _real_weight_values(weight: WeightSpec, x: np.ndarray) -> np.ndarray:
    values = weight.evaluate(x)
    if np.iscomplexobj(values):
        raise ConfigError(
            f"weight {weight.label} is complex valued; use the omnibus "
            "characteristic-function test instead"
        )
    return values


def _score_vector(core: ResidualCore, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior score vector and its covariance for an (n, d) weight stack."""
    smoothed = core.smooth(values)
    keep = core.keep
    eps = core.eps[keep]
    t_vec = (values - smoothed)[keep].T @ eps / math.sqrt(eps.size)
    return t_vec, covariance_matrix(eps, values[keep], smoothed[keep])


def standardized_test(
    data: Dataset,
    fit: IndexFit,
    weight: WeightSpec,
    cfg: SmootherConfig,
    alpha: float = 0.05,
) -> ScoreReport:
    """Two-sided standardized score test against the normal quantiles: the
    d = 1 case of the maximin test."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    core = residual_core(data, fit, cfg)
    t_vec, sigma = _score_vector(core, _real_weight_values(weight, data.x)[:, None])
    t_hat, sigma2 = float(t_vec[0]), float(sigma[0, 0])
    if sigma2 <= 0.0:
        raise DegenerateVarianceError(
            "variance estimate is zero: the weight is fully explained by the "
            "projection, or the residuals vanish"
        )
    t_bar = t_hat / math.sqrt(sigma2)
    p_value = normal_two_sided_p(t_bar)
    return ScoreReport(
        t_hat=t_hat,
        sigma_n2=sigma2,
        t_bar=t_bar,
        p_value=p_value,
        reject=bool(p_value <= alpha),
        alpha=alpha,
        h=cfg.h,
        n=data.n,
        weight_kind=weight.label,
        diagnostics=core.diagnostics,
    )


def _most_collinear_pair(sigma: np.ndarray) -> tuple[int, int]:
    diag = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(diag, diag)
    np.fill_diagonal(corr, 0.0)
    i, j = np.unravel_index(np.argmax(np.abs(corr)), corr.shape)
    return int(min(i, j)), int(max(i, j))


def maximin_test(
    data: Dataset,
    fit: IndexFit,
    weights,
    cfg: SmootherConfig,
    alpha: float = 0.05,
) -> MaximinReport:
    """Chi-square test on the vector of score statistics for d weights."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    weights = tuple(weights)
    if not weights:
        raise ConfigError("maximin test needs at least one weight function")
    core = residual_core(data, fit, cfg)
    labels = tuple(w.label for w in weights)
    values = np.column_stack([_real_weight_values(w, data.x) for w in weights])
    t_vec, sigma = _score_vector(core, values)
    diag = np.diag(sigma)
    if np.any(diag <= 0.0):
        bad = labels[int(np.argmin(diag))]
        raise NearSingularCovarianceError(
            f"weight {bad!r} has zero score variance; drop or replace it"
        )
    cond = np.linalg.cond(sigma)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        i, j = _most_collinear_pair(sigma)
        raise NearSingularCovarianceError(
            f"score covariance is numerically singular (condition number "
            f"{cond:.3g}); weights {labels[i]!r} and {labels[j]!r} are "
            "linearly dependent"
        )
    try:
        statistic = maximin_statistic(t_vec, sigma)
    except np.linalg.LinAlgError as exc:
        i, j = _most_collinear_pair(sigma)
        raise NearSingularCovarianceError(
            f"score covariance is not positive definite; weights "
            f"{labels[i]!r} and {labels[j]!r} are linearly dependent"
        ) from exc
    d = len(weights)
    c_alpha = chisq_quantile(1.0 - alpha, d)
    p_value = chisq_sf(statistic, d)
    return MaximinReport(
        t_vec=t_vec,
        sigma_mat=sigma,
        statistic=statistic,
        c_alpha=c_alpha,
        p_value=p_value,
        reject=bool(statistic >= c_alpha),
        alpha=alpha,
        h=cfg.h,
        n=data.n,
        weight_kinds=labels,
        diagnostics=core.diagnostics,
    )
