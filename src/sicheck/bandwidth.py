"""Semidata-driven bandwidth selection.

Two steps: pick a pilot bandwidth h1 by minimizing the weighted squared
leave-one-out prediction error

    MISE(h) = sum_j (y_j - fit_j(U_j))^2 W(x_j)^2

over a grid, then undersmooth to h = h1 * n^(-2/15).  The pilot rate is
n^(-1/5); the extra factor takes the final bandwidth to the n^(-1/3)
order that keeps smoothing bias out of the test statistics.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError
from .index import IndexFit
from .smoother import LatticeSmoother

UNDERSMOOTH_EXPONENT = -2.0 / 15.0  # -1/3 + 1/5


def mise(data: Dataset, fit: IndexFit, w_values, h: float) -> float:
    """Weighted squared leave-one-out prediction error at bandwidth h."""
    w = np.asarray(w_values, dtype=float)
    if w.shape != (data.n,):
        raise ConfigError("weight values must be one per observation")
    resid = data.y - LatticeSmoother(fit.slots, h).smooth(data.y)
    return float(np.sum(resid**2 * w**2))


def default_bandwidth_grid(n: int) -> np.ndarray:
    """30 log-spaced pilot candidates from 0.3 to 3 times the n^(-1/5)
    rate, capped at 1.

    The cap keeps every candidate inside the (0, 1] range that the rank
    scale supports.  The floor keeps kernel windows wide enough that the
    leave-one-out sums retain most of their mass; an unconstrained search
    rewards near-interpolation for steep link functions and destabilizes
    the downstream tests.
    """
    if n < 2:
        raise ConfigError("bandwidth grid needs n >= 2")
    scale = n ** (-0.2)
    upper = min(3.0 * scale, 1.0)
    lower = min(0.3 * scale, upper)
    return np.geomspace(lower, upper, 30)


def select_bandwidth(data: Dataset, fit: IndexFit, w_values, grid=None) -> tuple[float, float]:
    """Return (h1, h_final): grid minimizer of MISE, then undersmoothed.

    Ties go to the smallest candidate, and the search is invariant to the
    order of the grid.
    """
    if grid is None:
        grid = default_bandwidth_grid(data.n)
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ConfigError("bandwidth grid is empty")
    if grid[0] <= 0:
        raise ConfigError("bandwidth candidates must be positive")
    scores = np.array([mise(data, fit, w_values, h) for h in grid])
    h1 = float(grid[int(np.argmin(scores))])
    h_final = h1 * data.n**UNDERSMOOTH_EXPONENT
    return h1, h_final
