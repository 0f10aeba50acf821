"""Normal and chi-square distribution functions.

The normal functions are thin wrappers over ``math.erfc``; the chi-square
distribution is computed through the regularized incomplete gamma
function (power series below a + 1, Lentz continued fraction above),
accurate to near machine precision, which the test suite verifies against
direct quadrature oracles.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exceptions import ConfigError

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_two_sided_p(t: float) -> float:
    """Two-sided tail probability 2 (1 - Phi(|t|)) of a standard normal."""
    return math.erfc(abs(t) / _SQRT2)


def _gamma_series(a: float, x: float) -> float:
    # P(a, x) power series, reliable for x < a + 1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(1000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_fraction(a: float, x: float) -> float:
    # Q(a, x) continued fraction (modified Lentz), reliable for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    f = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return f * math.exp(-x + a * math.log(x) - math.lgamma(a))


def reg_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0:
        raise ConfigError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ConfigError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cont_fraction(a, x)


def reg_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0:
        raise ConfigError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ConfigError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cont_fraction(a, x)


def chisq_cdf(x: float, df: int) -> float:
    """Chi-square distribution function with ``df`` degrees of freedom."""
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0:
        return 0.0
    return reg_gamma_p(df / 2.0, x / 2.0)


def chisq_sf(x: float, df: int) -> float:
    """Chi-square upper tail probability."""
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0:
        return 1.0
    return reg_gamma_q(df / 2.0, x / 2.0)


@lru_cache(maxsize=256)
def chisq_quantile(p: float, df: int) -> float:
    """Chi-square quantile by bisection on the distribution function."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"quantile level must lie in (0, 1), got {p}")
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    hi = df + 10.0
    while chisq_cdf(hi, df) < p:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chisq_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
