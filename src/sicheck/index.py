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


def rank_slots(t) -> np.ndarray:
    """Integer ranks #{j : t_j <= t_i} along the last axis, one sort per row."""
    order = np.argsort(t, axis=-1, kind="stable")
    ordered = np.take_along_axis(t, order, axis=-1)
    n = t.shape[-1]
    # a sorted position's rank is one past the last position holding its value
    ends = np.full(t.shape, n)
    ends[..., :-1] = np.where(ordered[..., 1:] != ordered[..., :-1], np.arange(1, n), n)
    slots = np.empty(t.shape, dtype=np.intp)
    np.put_along_axis(slots, order, np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1],
                      axis=-1)
    return slots


def rank_transform(t) -> np.ndarray:
    """Empirical-distribution values #{j : t_j <= t_i} / n, in (0, 1]."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DataError("rank transform needs a nonempty vector")
    if not np.all(np.isfinite(t)):
        raise DataError("rank transform requires finite values")
    return rank_slots(t) / t.size


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
    beta, proj, slots = fit_stack(data.x[None], data.y[None])
    return IndexFit(beta_hat=beta[0], projections=proj[0], ranks_u=slots[0] / data.n)


def fit_stack(x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fit_index_ols`` for each dataset of a stack, x (B, n, p) and y (B, n):
    the directions (B, p), projections (B, n) and integer ranks (B, n).

    One batched SVD of the designs (1, x) solves every least-squares problem.
    A design is rank deficient by ``lstsq``'s rule: a singular value at most
    eps max(n, p + 1) times the largest.  When datasets fail, the first of
    them raises its own error: a rank-deficient design, a slope that is not
    finite, or one too short to orient a direction.
    """
    b, n, p = x.shape
    if n <= p + 1:
        raise InsufficientDataError(
            f"need n > p + 1 observations to fit a direction (n={n}, p={p})"
        )
    u, s, vt = np.linalg.svd(np.concatenate((np.ones((b, n, 1)), x), axis=2),
                             full_matrices=False)
    singular = s[:, -1] <= np.finfo(float).eps * max(n, p + 1) * s[:, 0]
    with np.errstate(all="ignore"):
        slope = np.matmul(np.matmul(y[:, None], u) / s[:, None], vt)[:, 0, 1:]
        finite = np.isfinite(slope).all(axis=1)
        norm = np.linalg.norm(slope, axis=1)
        # where the squared norm overflows, scale by the largest entry first
        slope = slope / np.where(np.isfinite(norm), 1.0, np.abs(slope).max(axis=1))[:, None]
        norm = np.linalg.norm(slope, axis=1)
    failed = singular | ~finite | (norm < 1e-10)
    if failed.any():
        i = int(np.argmax(failed))
        if singular[i]:
            raise SingularDesignError("covariate design (with intercept) is rank deficient")
        if not finite[i]:
            raise DataError(
                f"least-squares slope is not finite: responses up to |y| = "
                f"{np.abs(y[i]).max():.3g} are too large for the float range; rescale y"
            )
        raise DegenerateDirectionError(
            "least-squares slope vector is zero; the response carries no "
            "linear signal to orient a direction"
        )
    unit = slope / norm[:, None]
    # sign convention: the first entry above 1e-10 in size is positive
    lead = unit[np.arange(b), np.argmax(np.abs(unit) > 1e-10, axis=1)]
    beta = np.where(lead[:, None] < 0, -unit, unit)
    proj = np.matmul(x, beta[..., None])[..., 0]
    if not np.all(np.isfinite(proj)):
        raise DataError("rank transform requires finite values")
    return beta, proj, rank_slots(proj)
