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
from .smoother import DEFAULT_ALPHA, Block, Report, ResidualCore, SmootherConfig, sums_guard
from .special import chisq_isf, chisq_sf, normal_two_sided_p
from .weights import WeightSpec

#: Condition-number ceiling beyond which the weight covariance is treated
#: as singular (linearly dependent weight functions).
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ScoreReport(Report):
    t_hat: float
    sigma_n2: float
    d: int = 1

    @property
    def t_bar(self) -> float:
        """The standardized statistic t_hat / sqrt(sigma_n2)."""
        return self.statistic


@dataclass(frozen=True, eq=False)
class MaximinReport(Report):
    c_alpha: float
    d: int
    t_vec: np.ndarray
    sigma_mat: np.ndarray


def score_statistic(eps_hat, w_values) -> float:
    """n^(-1/2) times the weighted residual sum over all n observations:
    the uncentered reference form, not the interior, centered test sum."""
    eps = np.asarray(eps_hat)
    w = np.asarray(w_values)
    if eps.ndim != 1 or eps.shape != w.shape:
        raise DataError("residuals and weights must be equal-length vectors")
    if eps.size == 0:
        raise DataError("empty residual vector")
    return float((eps * w).sum() / math.sqrt(eps.size))


def variance_estimate(eps_hat, w_values, w_smoothed) -> float:
    """Plug-in variance: mean of eps^2 (W - Wbar)^2 over all n observations,
    the reference form; the tests average over interior observations."""
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
    return _score_sums(eps[None], (values - smoothed)[None], np.array([eps.size]))[1][0]


def _score_sums(eps, centered, count) -> tuple[np.ndarray, np.ndarray]:
    """Score vectors (B, d) and covariances (B, d, d) of a stack: residuals eps
    (B, n), zero outside the rows summed, centered weights (B, n, d) and each
    dataset's count (B,) of rows summed."""
    t_vec = np.matmul(eps[:, None], centered)[:, 0] / np.sqrt(count)[:, None]
    sigma = np.matmul(np.swapaxes(centered, 1, 2), centered * (eps**2)[..., None])
    sigma /= count[:, None, None]
    return t_vec, 0.5 * (sigma + np.swapaxes(sigma, 1, 2))


def maximin_statistic(t_vec, sigma_mat):
    """Quadratic form t' Sigma^{-1} t via the Cholesky factor of Sigma; one
    per row of a stack of vectors (B, d) and matrices (B, d, d)."""
    t = np.asarray(t_vec, dtype=float)
    chol = np.linalg.cholesky(np.asarray(sigma_mat, dtype=float))
    z = np.linalg.solve(chol, t[..., None])
    form = np.matmul(np.swapaxes(z, -1, -2), z)[..., 0, 0]
    return float(form) if form.ndim == 0 else form


def _scores(block: Block, weights, alpha) -> tuple[ResidualCore, np.ndarray, np.ndarray]:
    """Residual core, interior score vectors (B, d) and their covariances
    (B, d, d) of a block for a tuple of d weights: the one score path of
    both tests.  The smooths and the sums each run once over the block:
    residuals outside a dataset's interior are zeroed, and its sums are
    divided by its own interior count.  Refuses a level
    outside (0, 1), names h where the windows reach no neighbouring rank or
    the sums overflow, and names the first weight whose score variance is
    zero."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    with sums_guard(block.n, block.h):
        core = block.core()
        values = np.stack([w.evaluate(block.x) for w in weights], axis=-1)
        t_vec, sigma = _score_sums(np.where(core.keep, core.eps, 0.0),
                                   values - core.smoother.smooth(values),
                                   np.count_nonzero(core.keep, axis=1))
    for variances in np.diagonal(sigma, axis1=1, axis2=2).tolist():
        for weight, variance in zip(weights, variances):
            if variance <= 0.0:
                raise DegenerateVarianceError(
                    f"weight {weight.label!r} has zero score variance: it is fully "
                    "explained by the projection, or the residuals vanish"
                )
    return core, t_vec, sigma


def score_reports(block: Block, weight: WeightSpec,
                  alpha: float = DEFAULT_ALPHA) -> list[ScoreReport]:
    """``standardized_test`` of every dataset of a block."""
    core, t_vec, sigma = _scores(block, (weight,), alpha)
    reports = []
    for t_hat, sigma2, h, diagnostics in zip(t_vec[:, 0].tolist(), sigma[:, 0, 0].tolist(),
                                             block.h.tolist(), core.diagnostics):
        t_bar = t_hat / math.sqrt(sigma2)
        p_value = normal_two_sided_p(t_bar)
        reports.append(ScoreReport(
            test="score",
            statistic=t_bar,
            p_value=p_value,
            reject=bool(p_value <= alpha),
            alpha=alpha,
            calibration="normal",
            h=h,
            n=block.n,
            weight_kinds=(weight.label,),
            diagnostics=diagnostics,
            t_hat=t_hat,
            sigma_n2=sigma2,
        ))
    return reports


def standardized_test(
    data: Dataset,
    fit: IndexFit,
    weight: WeightSpec,
    cfg: SmootherConfig,
    alpha: float = DEFAULT_ALPHA,
) -> ScoreReport:
    """Two-sided standardized score test against the normal quantiles: the
    d = 1 case of the maximin test."""
    return score_reports(Block.of(data, fit, cfg), weight, alpha)[0]


def _most_collinear_pair(sigma: np.ndarray) -> tuple[int, int]:
    diag = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(diag, diag)
    np.fill_diagonal(corr, 0.0)
    i, j = np.unravel_index(np.argmax(np.abs(corr)), corr.shape)
    return int(min(i, j)), int(max(i, j))


def maximin_reports(block: Block, weights, alpha: float = DEFAULT_ALPHA) -> list[MaximinReport]:
    """``maximin_test`` of every dataset of a block."""
    weights = tuple(weights)
    if not weights:
        raise ConfigError("maximin test needs at least one weight function")
    core, t_vec, sigma = _scores(block, weights, alpha)
    labels = tuple(w.label for w in weights)
    cond = np.linalg.cond(sigma)
    try:
        if not np.all(cond <= CONDITION_LIMIT):  # also an infinite or undefined one
            raise np.linalg.LinAlgError
        statistics = maximin_statistic(t_vec, sigma)
    except np.linalg.LinAlgError:
        b = int(np.argmin(cond <= CONDITION_LIMIT))  # the first refused dataset
        i, j = _most_collinear_pair(sigma[b])
        raise NearSingularCovarianceError(
            f"score covariance is numerically singular (condition number "
            f"{cond[b]:.3g}); weights {labels[i]!r} and {labels[j]!r} are "
            "linearly dependent"
        ) from None
    c_alpha = chisq_isf(alpha, len(weights))
    p_values = [chisq_sf(statistic, len(weights)) for statistic in statistics.tolist()]
    return [
        MaximinReport(
            test="maximin",
            statistic=statistic,
            p_value=p_value,
            reject=bool(p_value <= alpha),
            alpha=alpha,
            calibration="chi-square",
            h=h,
            n=block.n,
            weight_kinds=labels,
            diagnostics=diagnostics,
            c_alpha=c_alpha,
            d=len(weights),
            t_vec=t_vec[b],
            sigma_mat=sigma[b],
        )
        for b, (statistic, p_value, h, diagnostics)
        in enumerate(zip(statistics.tolist(), p_values, block.h.tolist(), core.diagnostics))
    ]


def maximin_test(
    data: Dataset,
    fit: IndexFit,
    weights,
    cfg: SmootherConfig,
    alpha: float = DEFAULT_ALPHA,
) -> MaximinReport:
    """Chi-square test on the vector of score statistics for d weights."""
    return maximin_reports(Block.of(data, fit, cfg), weights, alpha)[0]
