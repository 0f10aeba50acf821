"""Characteristic-function residual process and its bootstrap-calibrated
sup statistic.

The process evaluates the weighted residual sum at trigonometric weights
exp(i gamma' x) over a symmetric grid of frequencies.  The test statistic
takes the sup over the grid of the modulus of the centered interior sum

    T(gamma) = m^(-1/2) sum_{j interior} eps_j [W_j(gamma) - Wbar_j(gamma)],

where Wbar_j is the leave-one-out smooth of the frequency weights at U_j
and the interior keeps observations whose rank is at least three
bandwidths from the boundary (the sup amplifies the worst frequency, so
it gets a wider margin than the scalar tests).  The null distribution is
approximated by multiplier resampling: independent standard normal draws
e_i perturb exactly the same centered summands,

    T_r(gamma) = m^(-1/2) sum_{i interior} e_i eps_i [W_i(gamma) - Wbar_i(gamma)],

and the critical value is an order statistic of the resampled sups, so
statistic and reference distribution share one functional.  Covariate
columns are standardized (zero mean, unit variance) before any frequency
evaluation so the grid box is scale-meaningful; every report records the
grid convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError
from .index import IndexFit
from .smoother import SmootherConfig, residual_core

#: Largest dense frequency grid; beyond this the grid falls back to
#: quasi-random symmetric points.
MAX_DENSE_POINTS = 2401

#: Interior margin for the sup statistic, in units of the bandwidth.
SUP_INTERIOR_MARGIN = 3.0

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97)


@dataclass(frozen=True, eq=False)
class GammaGrid:
    """Symmetric frequency grid containing the origin."""

    points: np.ndarray  # (g, p)
    bound: float
    per_axis: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ConfigError("frequency grid must be a nonempty (g, p) array")
        if not self.bound > 0:
            raise ConfigError(f"grid bound must be positive, got {self.bound}")
        if self.per_axis < 2:
            raise ConfigError(f"per-axis count must be >= 2, got {self.per_axis}")
        if not np.any(np.all(pts == 0.0, axis=1)):
            raise ConfigError("frequency grid must contain the origin")
        forward = pts[np.lexsort(pts.T)]
        backward = (-pts)[np.lexsort((-pts).T)]
        if not np.array_equal(forward, backward):
            raise ConfigError("frequency grid must be symmetric under negation")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]

    def summary(self) -> dict:
        return {
            "size": self.size,
            "bound": self.bound,
            "per_axis": self.per_axis,
            "standardized_covariates": True,
        }


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def gamma_grid(p: int, bound: float = 3.0, per_axis: int = 7) -> GammaGrid:
    """Default frequency grid on [-bound, bound]^p.

    The axis holds the origin plus floor(per_axis / 2) equispaced points
    mirrored exactly about zero (an even request is bumped to the next odd
    count so the origin is present).  Dense product grid while it stays
    within MAX_DENSE_POINTS; for higher dimension, the origin plus 1000
    quasi-random (Halton) point pairs +/- q, which keeps the grid
    symmetric.
    """
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    if not bound > 0:
        raise ConfigError(f"grid bound must be positive, got {bound}")
    if per_axis < 2:
        raise ConfigError(f"per-axis count must be >= 2, got {per_axis}")
    if p > len(_PRIMES):
        raise ConfigError(f"dimension {p} exceeds the supported maximum {len(_PRIMES)}")
    half_count = per_axis // 2
    pos = np.linspace(0.0, bound, half_count + 1)[1:]
    axis = np.concatenate([-pos[::-1], [0.0], pos])
    if len(axis) ** p <= MAX_DENSE_POINTS:
        mesh = np.meshgrid(*([axis] * p), indexing="ij")
        points = np.stack(mesh, axis=-1).reshape(-1, p)
    else:
        half = np.array(
            [[_halton(i, _PRIMES[k]) for k in range(p)] for i in range(1, 1001)]
        )
        half = (2.0 * half - 1.0) * bound
        points = np.vstack([np.zeros((1, p)), half, -half])
    return GammaGrid(points=points, bound=float(bound), per_axis=per_axis)


@dataclass(frozen=True)
class BootstrapConfig:
    m: int = 500
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.m < 100:
            raise ConfigError(f"bootstrap needs at least 100 replicates, got {self.m}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.m * self.alpha < 1.0:
            raise ConfigError(
                f"m * alpha must be at least 1 (m={self.m}, alpha={self.alpha})"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class OmnibusReport:
    t_tilde: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    m: int
    seed: int
    h: float
    n: int
    grid: dict
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "test": "omnibus",
            "statistic": self.t_tilde,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": bool(self.reject),
            "calibration": f"bootstrap-m={self.m}",
            "m": self.m,
            "seed": self.seed,
            "h": self.h,
            "n": self.n,
            "weight_kinds": ["cf"],
            "grid": dict(self.grid),
            "diagnostics": dict(self.diagnostics),
        }


def cf_process(eps_hat, x, gamma) -> complex:
    """Uncentered weighted-residual sum at one frequency, over all n
    observations: n^(-1/2) sum_j eps_j exp(i gamma' x_j).

    This is the raw characteristic-function process.  It is not the
    functional that ``omnibus_test`` takes the sup of, which centers the
    weights by their leave-one-out smooth, sums over interior observations
    only and evaluates standardized covariates.
    """
    eps = np.asarray(eps_hat, dtype=float)
    mat = np.asarray(x, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if mat.ndim != 2 or eps.shape != (mat.shape[0],) or g.shape != (mat.shape[1],):
        raise DataError("residuals (n,), covariates (n, p) and gamma (p,) must conform")
    phase = mat @ g
    return complex((eps * np.exp(1j * phase)).sum() / math.sqrt(eps.size))


def standardize_columns(x) -> np.ndarray:
    """Zero-mean, unit-variance columns; constant columns are left at scale 1."""
    x = np.asarray(x, dtype=float)
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (x - mu) / sd


def bootstrap_critical_value(replicate_values, alpha: float) -> float:
    """The floor((1 - alpha) m)-th ascending order statistic."""
    values = np.sort(np.asarray(replicate_values, dtype=float))
    k = int((1.0 - alpha) * values.size)
    if k < 1:
        raise ConfigError(
            f"(1 - alpha) * m is below 1 (m={values.size}, alpha={alpha})"
        )
    return float(values[k - 1])


def omnibus_test(
    data: Dataset,
    fit: IndexFit,
    cfg: SmootherConfig,
    boot: BootstrapConfig,
    grid: GammaGrid | None = None,
) -> OmnibusReport:
    """Sup-statistic test with multiplier-bootstrap critical value.

    Statistic and replicates share the same centered interior summands,
    so the bootstrap calibrates exactly the functional being tested.
    Replicate r draws its multipliers from the stream (seed, r), so the
    result is bit-reproducible regardless of evaluation order.
    """
    z = standardize_columns(data.x)
    if grid is None:
        grid = gamma_grid(data.p)
    if grid.p != data.p:
        raise DataError(
            f"grid dimension {grid.p} does not match covariate dimension {data.p}"
        )
    core = residual_core(data, fit, cfg, margin=SUP_INTERIOR_MARGIN)
    eps = core.eps[core.keep]
    n_int = eps.size
    summands = core.centered(np.exp(1j * (z @ grid.points.T)))
    summands *= eps[:, None]
    scale = math.sqrt(n_int)
    t_tilde = float(np.abs(summands.sum(axis=0)).max()) / scale
    reps = np.empty(boot.m)
    for r in range(boot.m):
        rng = np.random.default_rng([boot.seed, r])
        e = rng.standard_normal(n_int)
        reps[r] = np.abs(e @ summands).max() / scale
    critical = bootstrap_critical_value(reps, boot.alpha)
    p_value = (1 + int(np.count_nonzero(reps >= t_tilde))) / (boot.m + 1)
    return OmnibusReport(
        t_tilde=t_tilde,
        critical_value=critical,
        p_value=p_value,
        reject=bool(t_tilde >= critical),
        alpha=boot.alpha,
        m=boot.m,
        seed=boot.seed,
        h=cfg.h,
        n=data.n,
        grid=grid.summary(),
        diagnostics=core.diagnostics,
    )
