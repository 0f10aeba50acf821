"""Normal and chi-square distribution functions.

The normal functions are thin wrappers over ``math.erfc``.  For an integer
number of degrees of freedom d the chi-square tail Q(d/2, x/2) is a finite
sum (Abramowitz & Stegun 26.4.4 and 26.4.21), with h = x/2:

    odd d    erfc(sqrt h) + e^(-h) sum_{j=1}^{(d-1)/2} h^(j-1/2) / Gamma(j+1/2)
    even d   e^(-h) sum_{j=0}^{d/2-1} h^j / j!

Each term is the previous one times h / (j + 1/2) or h / j and all terms are
positive; the test suite checks the tail against quadrature to a relative
1e-11.  The terms start from e^(-h), which is subnormal above x = 1416;
there the tail is below 1e-290 for every d up to 12.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exceptions import ConfigError

_SQRT2 = math.sqrt(2.0)
_GAMMA_3_2 = math.sqrt(math.pi) / 2.0


def normal_cdf(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_two_sided_p(t: float) -> float:
    """Two-sided tail probability 2 (1 - Phi(|t|)) of a standard normal."""
    return math.erfc(abs(t) / _SQRT2)


def chisq_sf(x: float, df: int) -> float:
    """Chi-square upper tail probability Q(df/2, x/2)."""
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0:
        return 1.0
    h = x / 2.0
    if df % 2:
        total, term, a = math.erfc(math.sqrt(h)), math.exp(-h) * math.sqrt(h) / _GAMMA_3_2, 1.5
    else:
        total, term, a = 0.0, math.exp(-h), 1.0
    for _ in range(df // 2):
        total += term
        term *= h / a
        a += 1.0
    return total


def chisq_cdf(x: float, df: int) -> float:
    """Chi-square distribution function with ``df`` degrees of freedom."""
    return 1.0 - chisq_sf(x, df)


@lru_cache(maxsize=256)
def chisq_isf(alpha: float, df: int) -> float:
    """The smallest float x whose tail ``chisq_sf(x, df)`` is at most ``alpha``,
    by bisection in the tail's own arithmetic down to neighbouring floats: a
    p-value at most alpha at x, and above alpha one float below it."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"tail probability must lie in (0, 1), got {alpha}")
    lo, hi = 0.0, df + 10.0
    while chisq_sf(hi, df) > alpha:
        hi *= 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if chisq_sf(mid, df) > alpha else (lo, mid)
    return hi


def chisq_quantile(p: float, df: int) -> float:
    """Chi-square quantile at level ``p``: ``chisq_isf(1 - p, df)``."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"quantile level must lie in (0, 1), got {p}")
    return chisq_isf(1.0 - p, df)
