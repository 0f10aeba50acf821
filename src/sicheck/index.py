"""Projection direction estimation and rank transforms.

A fitted index bundles the unit-norm direction estimate, the projected
covariates beta' x_i, and their normalized ranks

    U_i = #{j : t_j <= t_i} / n,

the empirical-distribution values of the projections.  Ties take the
maximal rank, which is what the counting definition forces.  The ranks
therefore sit on the lattice k/n, and the fit carries the integer rank
slots k = n U_i that the smoother bins on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .exceptions import (
    DataError,
    DegenerateDirectionError,
    InsufficientDataError,
    SingularDesignError,
)


@dataclass(frozen=True, eq=False)
class IndexFit:
    beta_hat: np.ndarray  # unit-norm direction, shape (p,)
    projections: np.ndarray  # beta_hat . x_i, shape (n,)
    ranks_u: np.ndarray  # empirical-cdf values of the projections, in (0, 1]
    slots: np.ndarray = field(init=False, repr=False)  # integer ranks n * U_i, in 1..n

    def __post_init__(self):
        beta = np.asarray(self.beta_hat, dtype=float)
        proj = np.asarray(self.projections, dtype=float)
        ranks = np.asarray(self.ranks_u, dtype=float)
        if beta.ndim != 1:
            raise DataError("beta_hat must be a vector")
        if abs(np.linalg.norm(beta) - 1.0) > 1e-12:
            raise DataError("beta_hat must have unit Euclidean norm")
        if proj.ndim != 1 or proj.shape != ranks.shape:
            raise DataError("projections and ranks_u must be equal-length vectors")
        if ranks.size == 0:
            raise DataError("empty index fit")
        if ranks.min() <= 0.0 or ranks.max() > 1.0:
            raise DataError("ranks_u must lie in (0, 1]")
        slots = np.rint(ranks * ranks.size)
        if np.max(np.abs(ranks * ranks.size - slots)) > 1e-6:
            raise DataError("ranks_u must lie on the lattice k/n, k = 1..n")
        object.__setattr__(self, "beta_hat", beta)
        object.__setattr__(self, "projections", proj)
        object.__setattr__(self, "ranks_u", ranks)
        object.__setattr__(self, "slots", slots.astype(np.intp))

    @property
    def n(self) -> int:
        return self.projections.size


def project(data: Dataset, beta) -> np.ndarray:
    """Projected values beta . x_i for every row of the covariate matrix."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise DataError(
            f"direction has shape {beta.shape}, covariates have p={data.p}"
        )
    return data.x @ beta


def rank_transform(t) -> np.ndarray:
    """Empirical-distribution values #{j : t_j <= t_i} / n, in (0, 1]."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DataError("rank transform needs a nonempty vector")
    if not np.all(np.isfinite(t)):
        raise DataError("rank transform requires finite values")
    ordered = np.sort(t)
    return np.searchsorted(ordered, t, side="right") / t.size


def fit_from_direction(data: Dataset, beta) -> IndexFit:
    """Index fit for a caller-supplied direction (normalized, sign kept)."""
    beta = np.asarray(beta, dtype=float)
    norm = np.linalg.norm(beta)
    if not np.isfinite(norm) or norm <= 0.0:
        raise DegenerateDirectionError("direction must be finite and nonzero")
    unit = beta / norm
    proj = project(data, unit)
    return IndexFit(beta_hat=unit, projections=proj, ranks_u=rank_transform(proj))


def fit_index_ols(data: Dataset) -> IndexFit:
    """Least-squares direction estimate.

    Regresses y on (1, x), drops the intercept and normalizes the slope
    vector to unit Euclidean norm.  Sign convention: the first component
    with absolute value above 1e-10 is made positive (the direction is
    identified only up to sign).
    """
    n, p = data.n, data.p
    if n <= p + 1:
        raise InsufficientDataError(
            f"need n > p + 1 observations to fit a direction (n={n}, p={p})"
        )
    design = np.column_stack([np.ones(n), data.x])
    coef, _, rank, _ = np.linalg.lstsq(design, data.y, rcond=None)
    if rank < p + 1:
        raise SingularDesignError(
            "covariate design (with intercept) is rank deficient"
        )
    slope = coef[1:]
    if not np.isfinite(slope).all():
        raise DataError(
            f"least-squares slope is not finite: responses up to |y| = "
            f"{np.abs(data.y).max():.3g} are too large for the float range; rescale y"
        )
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(slope)
    if not np.isfinite(norm):  # the squared norm overflows: scale by the largest entry first
        slope = slope / np.abs(slope).max()
        norm = np.linalg.norm(slope)
    if norm < 1e-10:
        raise DegenerateDirectionError(
            "least-squares slope vector is zero; the response carries no "
            "linear signal to orient a direction"
        )
    unit = slope / norm
    for b in unit:
        if abs(b) > 1e-10:
            if b < 0:
                unit = -unit
            break
    proj = project(data, unit)
    return IndexFit(beta_hat=unit, projections=proj, ranks_u=rank_transform(proj))
