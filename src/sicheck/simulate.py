"""Synthetic data generators and the Monte Carlo rejection-rate harness.

Four generator families, each indexed by a departure size c (the null
model holds exactly when c = 0):

    cubic        y = (b'x)^3 + c sum|x_l| + e
    binary       y ~ Bernoulli(pi), pi = logistic(-b'x + c sum|x_l|)
    interaction  y = (b'x)^3 + c1|x1 x2| + c2|x1 x3| + c3|x2 x3| + e   (p = 3)
    bump         y = x1 + x2 + 4 exp(-(x1+x2)^2) + c sqrt(x1^2+x2^2) + e   (p = 2)

with x ~ N(0, I) and e ~ N(0, sigma_eps^2) independent of x; the binary
model has no additive noise and refuses a sigma_eps other than 1.

The harness generates each replicate and runs ``apply_check`` on it (fit
the direction, pick the bandwidth, run the test), the same pipeline that
``sicheck check`` runs on a CSV, and reports the rejection fraction with
its binomial standard error.  Replicate r draws from the
stream (seed, r), so results are identical under any thread count.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bandwidth import select_bandwidth
from .dataset import Dataset
from .exceptions import ConfigError
from .index import fit_index_ols
from .omnibus import (
    DEFAULT_BOOT_M,
    DEFAULT_GRID_BOUND,
    DEFAULT_GRID_PER_AXIS,
    BootstrapConfig,
    gamma_grid,
    omnibus_test,
)
from .score_test import maximin_test, standardized_test
from .smoother import DEFAULT_ALPHA, SmootherConfig
from .weights import WeightSpec


class ModelKind(enum.Enum):
    CUBIC = "cubic"
    BINARY = "binary"
    INTERACTION = "interaction"
    BUMP = "bump"


def default_beta(p: int) -> tuple[float, ...]:
    """Unit vector with alternating signs, (1, -1, 1, ...) / sqrt(p)."""
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    b = np.array([(-1.0) ** k for k in range(p)])
    return tuple(b / np.linalg.norm(b))


@dataclass(frozen=True)
class Scenario:
    model: ModelKind
    n: int
    p: int
    beta: tuple[float, ...] | None = None
    c: float = 0.0
    c_interaction: tuple[float, float, float] | None = None
    sigma_eps: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("c", "sigma_eps", "beta", "c_interaction"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.p < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.p}")
        if self.n <= self.p + 1:  # what fit_index_ols needs, for every check
            raise ConfigError(f"need n > p + 1 to fit the index, got n={self.n}, p={self.p}")
        if self.model is ModelKind.INTERACTION and self.p != 3:
            raise ConfigError("interaction model requires p = 3")
        if self.model is ModelKind.BUMP and self.p != 2:
            raise ConfigError("bump model requires p = 2")
        if not self.sigma_eps > 0:
            raise ConfigError(f"noise scale must be positive, got {self.sigma_eps}")
        if self.model is ModelKind.BINARY and self.sigma_eps != 1.0:
            raise ConfigError("binary model has no additive noise; sigma_eps does not apply")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.model is ModelKind.BUMP:
            if self.beta is not None:
                raise ConfigError("bump model has a fixed mean function; beta does not apply")
        else:
            beta = self.beta if self.beta is not None else default_beta(self.p)
            beta = tuple(float(b) for b in beta)
            if len(beta) != self.p:
                raise ConfigError(
                    f"beta has dimension {len(beta)}, scenario has p={self.p}"
                )
            if abs(np.linalg.norm(beta) - 1.0) > 1e-6:
                raise ConfigError("beta must have unit Euclidean norm")
            object.__setattr__(self, "beta", beta)
        if self.c_interaction is not None:
            if self.model is not ModelKind.INTERACTION:
                raise ConfigError("c_interaction applies to the interaction model only")
            triple = tuple(float(v) for v in self.c_interaction)
            if len(triple) != 3:
                raise ConfigError(f"c_interaction takes 3 values, got {len(triple)}")
            object.__setattr__(self, "c_interaction", triple)

    @property
    def beta_vec(self) -> np.ndarray:
        return np.asarray(self.beta, dtype=float)

    @property
    def c_triple(self) -> tuple[float, float, float]:
        return self.c_interaction if self.c_interaction is not None else (self.c,) * 3


def cubic_mean(x, beta, c: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    proj = x @ np.asarray(beta, dtype=float)
    return proj**3 + c * np.abs(x).sum(axis=1)


def binary_success_prob(x, beta, c: float) -> np.ndarray:
    """Success probability logistic(-b'x + c sum|x_l|), computed stably."""
    x = np.asarray(x, dtype=float)
    t = -(x @ np.asarray(beta, dtype=float)) + c * np.abs(x).sum(axis=1)
    return np.exp(-np.logaddexp(0.0, -t))


def interaction_mean(x, beta, c_triple) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    c1, c2, c3 = c_triple
    proj = x @ np.asarray(beta, dtype=float)
    return (
        proj**3
        + c1 * np.abs(x[:, 0] * x[:, 1])
        + c2 * np.abs(x[:, 0] * x[:, 2])
        + c3 * np.abs(x[:, 1] * x[:, 2])
    )


def bump_mean(x, c: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    t = x[:, 0] + x[:, 1]
    return t + 4.0 * np.exp(-(t**2)) + c * np.sqrt((x**2).sum(axis=1))


def generate(scn: Scenario, *, rng=None) -> Dataset:
    """Draw x ~ N(0, I), then the response; deterministic given the seed.

    ``rng`` defaults to ``default_rng(scn.seed)``.
    """
    rng = rng if rng is not None else np.random.default_rng(scn.seed)
    x = rng.standard_normal((scn.n, scn.p))
    if scn.model is ModelKind.CUBIC:
        mean = cubic_mean(x, scn.beta_vec, scn.c)
    elif scn.model is ModelKind.BINARY:
        mean = binary_success_prob(x, scn.beta_vec, scn.c)
    elif scn.model is ModelKind.INTERACTION:
        mean = interaction_mean(x, scn.beta_vec, scn.c_triple)
    else:
        mean = bump_mean(x, scn.c)
    if scn.model is ModelKind.BINARY:
        return Dataset(x=x, y=(rng.random(scn.n) < mean).astype(float))
    return Dataset(x=x, y=mean + scn.sigma_eps * rng.standard_normal(scn.n))


@dataclass(frozen=True)
class ScoreCheck:
    """Run the scalar standardized score test with one weight.

    A fixed ``h`` bypasses the data-driven selector (bandwidth
    sensitivity studies); the default reselects per replicate.
    """

    weight: WeightSpec
    h: float | None = None

    def __post_init__(self):
        if self.h is not None:
            SmootherConfig(h=self.h)  # raises outside (0, 1]

    @property
    def label(self) -> str:
        return f"score[{self.weight.label}]"

    def run(self, data, fit, cfg, alpha, seed):
        return standardized_test(data, fit, self.weight, cfg, alpha)


@dataclass(frozen=True)
class MaximinCheck:
    """Run the chi-square test on a family of weights."""

    weights: tuple[WeightSpec, ...]
    h: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.weights:
            raise ConfigError("maximin check needs at least one weight")
        if self.h is not None:
            SmootherConfig(h=self.h)  # raises outside (0, 1]

    @property
    def label(self) -> str:
        return "maximin[" + "+".join(w.label for w in self.weights) + "]"

    def run(self, data, fit, cfg, alpha, seed):
        return maximin_test(data, fit, self.weights, cfg, alpha)


@dataclass(frozen=True)
class OmnibusCheck:
    """Run the bootstrap-calibrated sup-statistic test."""

    boot_m: int = DEFAULT_BOOT_M
    grid_bound: float = DEFAULT_GRID_BOUND
    grid_per_axis: int = DEFAULT_GRID_PER_AXIS
    h: float | None = None

    def __post_init__(self):
        if self.h is not None:
            SmootherConfig(h=self.h)  # raises outside (0, 1]
        BootstrapConfig(m=self.boot_m)  # raises on a replicate count below 100
        gamma_grid(1, self.grid_bound, self.grid_per_axis)  # raises on bad grid values

    @property
    def label(self) -> str:
        return f"omnibus[m={self.boot_m}]"

    def run(self, data, fit, cfg, alpha, seed):
        boot = BootstrapConfig(m=self.boot_m, alpha=alpha, seed=seed)
        grid = gamma_grid(data.p, self.grid_bound, self.grid_per_axis)
        return omnibus_test(data, fit, cfg, boot, grid)


@dataclass(frozen=True, eq=False)
class MCResult:
    """What ``monte_carlo`` measured; the run's inputs stay with the caller."""

    rejection_rate: float
    mc_stderr: float


def mise_weight_values(check, x) -> np.ndarray:
    """Weight values W(x_i) that drive the bandwidth search for a check.

    A score check searches with its own weight; every other check (a
    maximin family, the omnibus test) with sum_l x_l^2.
    """
    if isinstance(check, ScoreCheck):
        return check.weight.evaluate(x)
    return WeightSpec.sum_squares().evaluate(x)


def validate_run(check, alpha: float, reps: int = 1, seed: int = 0, p: int | None = None) -> None:
    """Raise ConfigError for a level, replicate count or bootstrap seed the
    check cannot run with, or an omnibus grid it cannot build at dimension
    ``p`` (when given); touches no data, so a front end can call it before
    any work."""
    if reps < 1:
        raise ConfigError(f"replications must be >= 1, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if isinstance(check, OmnibusCheck):
        BootstrapConfig(m=check.boot_m, alpha=alpha, seed=seed)
        if p is not None:
            gamma_grid(p, check.grid_bound, check.grid_per_axis)


def apply_check(data: Dataset, check, alpha: float, seed: int = 0):
    """Run one check on one dataset and return ``(report, h1)``.

    A check is any object with ``h``, ``label`` and ``run(data, fit, cfg,
    alpha, seed)``, where ``seed`` seeds the omnibus bootstrap.  Fits the
    least-squares index, picks the bandwidth by the MISE search unless the
    check fixes ``h`` (then ``h1`` is None), and returns the report of ``run``.
    """
    fit = fit_index_ols(data)
    h1, h = None, check.h
    if h is None:
        h1, h = select_bandwidth(data, fit, mise_weight_values(check, data.x))
    return check.run(data, fit, SmootherConfig(h=h), alpha, seed), h1


def _replicate_reject(scn: Scenario, check, alpha: float, r: int) -> bool:
    rng = np.random.default_rng([scn.seed, r])
    data = generate(scn, rng=rng)
    # The bootstrap seed is the stream's first draw after the data.
    report, _ = apply_check(data, check, alpha, int(rng.integers(2**63)))
    return report.reject


def monte_carlo(
    scn: Scenario, check, reps: int, alpha: float = DEFAULT_ALPHA, threads: int = 1
) -> MCResult:
    """Rejection rate of a check over ``reps`` seeded replicates at level
    ``alpha``, with its binomial standard error.

    Any replicate-level failure aborts the run with the replicate index
    and scenario attached.
    """
    validate_run(check, alpha, reps, p=scn.p)
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    threads = min(threads, reps, os.cpu_count() or 1)  # never more workers than CPUs

    def one(r: int) -> bool:
        try:
            return bool(_replicate_reject(scn, check, alpha, r))
        except Exception as exc:
            raise RuntimeError(
                f"replicate {r} failed for scenario {scn}: {exc}"
            ) from exc

    if threads == 1:
        flags = [one(r) for r in range(reps)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            flags = list(pool.map(one, range(reps)))
    rate = sum(flags) / reps
    return MCResult(rejection_rate=rate, mc_stderr=math.sqrt(rate * (1.0 - rate) / reps))
