"""Semidata-driven bandwidth selection.

Two steps: pick a pilot bandwidth h1 by minimizing the weighted squared
leave-one-out prediction error

    MISE(h) = sum_j (y_j - fit_j(U_j))^2 W(x_j)^2

over a grid, then undersmooth to h = h1 * n^(-2/15).  The pilot rate is
n^(-1/5); the extra factor takes the final bandwidth to the n^(-1/3)
order that keeps smoothing bias out of the test statistics.

The search sorts the grid and walks it in blocks of bandwidths under a
workspace budget of BLOCK_BYTES.  One ``LatticeSmoother`` per block fits
the block's bandwidths in one batched FFT pass, so memory stays O(n) and
every fit is the exact lattice convolution of a single smooth.
"""

from __future__ import annotations

import functools

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError
from .index import IndexFit
from .smoother import LatticeSmoother

UNDERSMOOTH_EXPONENT = -2.0 / 15.0  # -1/3 + 1/5

#: Bytes one block of grid rows may hold, at 48 bytes per row and slot of
#: the grid's widest padded length n + r: the kernel table, its spectrum,
#: the inverse transform and the gathered fits, with room for temporaries.
BLOCK_BYTES = 16 << 20


def mise_curve(data: Dataset, fit: IndexFit, w_values, grid) -> np.ndarray:
    """Weighted squared leave-one-out prediction error at every bandwidth
    of ``grid``, in the grid's order."""
    w2 = np.asarray(w_values, dtype=float) ** 2
    if w2.shape != (data.n,):
        raise ConfigError("weight values must be one per observation")
    if fit.n != data.n:
        raise DataError("index fit and dataset sizes differ")
    hs = np.asarray(grid, dtype=float)
    if not (hs.ndim == 1 and hs.size and hs.min() > 0 and hs.max() < np.inf):
        raise ConfigError(f"bandwidth grid must be nonempty, positive and finite, got {grid}")
    by_h = np.argsort(hs, kind="stable")
    radius = int(min(np.ceil(data.n * hs.max()), data.n)) - 1  # of the widest window
    rows = max(1, BLOCK_BYTES // (48 * (data.n + radius)))
    curve = np.empty(hs.size)
    for lo in range(0, hs.size, rows):
        block = by_h[lo:lo + rows]
        fits = LatticeSmoother(fit.slots, hs[block]).smooth(data.y)
        np.subtract(data.y, fits, out=fits)
        curve[block] = np.square(fits, out=fits) @ w2
    return curve


def mise(data: Dataset, fit: IndexFit, w_values, h: float) -> float:
    """Weighted squared leave-one-out prediction error at bandwidth h."""
    return float(mise_curve(data, fit, w_values, [h])[0])


@functools.lru_cache(maxsize=64)
def default_bandwidth_grid(n: int) -> np.ndarray:
    """30 log-spaced pilot candidates from 0.3 to 3 times the n^(-1/5)
    rate, capped at 1.

    The cap keeps every candidate inside the (0, 1] range that the rank
    scale supports.  The floor keeps kernel windows wide enough that the
    leave-one-out sums retain most of their mass; an unconstrained search
    rewards near-interpolation for steep link functions and destabilizes
    the downstream tests.  The grid is cached per n and read-only.
    """
    if n < 2:
        raise ConfigError("bandwidth grid needs n >= 2")
    scale = n ** (-0.2)
    upper = min(3.0 * scale, 1.0)
    lower = min(0.3 * scale, upper)
    grid = np.geomspace(lower, upper, 30)
    grid.setflags(write=False)
    return grid


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
    scores = mise_curve(data, fit, w_values, grid)
    h1 = float(grid[int(np.argmin(scores))])
    h_final = h1 * data.n**UNDERSMOOTH_EXPONENT
    return h1, h_final
