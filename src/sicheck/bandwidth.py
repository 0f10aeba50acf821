"""Semidata-driven bandwidth selection.

Two steps: pick a pilot bandwidth h1 by minimizing the weighted squared
leave-one-out prediction error

    MISE(h) = sum_j (y_j - fit_j(U_j))^2 W(x_j)^2

over a grid, then undersmooth to h = h1 * n^(-2/15).  The pilot rate is
n^(-1/5); the extra factor takes the final bandwidth to the n^(-1/3)
order that keeps smoothing bias out of the test statistics.

The search sorts the grid and walks it in passes of bandwidths that fit in
``smoother.WORKSPACE_BYTES`` (``search_rows``).  One ``LatticeSmoother``
per pass fits them in one batched FFT, so memory stays O(n) and every fit
is the exact lattice convolution of a single smooth.  A stack of datasets
of one size (``mise_rows``, ``select_bandwidths``) shares each pass: the
grid and its kernel spectra depend on n alone.  A larger stack takes
fewer bandwidths per pass, and each pass pads its FFTs to its own widest
radius, so a dataset's curve may differ in its last bits from its stack
of one's; its argmin, all that the tests use, moves only where two
candidates tie to within rounding.
"""

from __future__ import annotations

import functools

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError
from .index import IndexFit
from .smoother import WORKSPACE_BYTES, LatticeSmoother, kernel_radius, range_guard

UNDERSMOOTH_EXPONENT = -2.0 / 15.0  # -1/3 + 1/5


def mise_curve(data: Dataset, fit: IndexFit, w_values, grid) -> np.ndarray:
    """Weighted squared leave-one-out prediction error at every bandwidth
    of ``grid``, in the grid's order.  A curve that overflows is refused
    with a DataError: its argmin would be the grid's first candidate
    whatever the data."""
    w = _one_weight_per_observation(data, fit, w_values)
    hs = np.asarray(grid, dtype=float)
    if not (hs.ndim == 1 and hs.size and hs.min() > 0 and hs.max() < np.inf):
        raise ConfigError(f"bandwidth grid must be nonempty, positive and finite, got {grid}")
    return mise_rows(data.y[None], fit.slots[None], w[None], hs)[0]


def _one_weight_per_observation(data: Dataset, fit: IndexFit, w_values) -> np.ndarray:
    w = np.asarray(w_values, dtype=float)
    if w.shape != (data.n,):
        raise ConfigError("weight values must be one per observation")
    if fit.n != data.n:
        raise DataError("index fit and dataset sizes differ")
    return w


def mise_rows(y, slots, w_values, hs) -> np.ndarray:
    """``mise_curve`` of each dataset of a stack: responses, rank slots and
    weight values (B, n), one curve row each over the 1-D grid ``hs``."""
    w2 = w_values**2
    by_h = np.argsort(hs, kind="stable")
    rows = max(1, search_rows(y.shape[1], hs) // len(y))  # bandwidths per pass
    curve = np.empty((len(y), hs.size))
    with range_guard("the bandwidth search overflows"):
        for lo in range(0, hs.size, rows):
            block = by_h[lo:lo + rows]
            fits = LatticeSmoother(slots, hs[block][None]).smooth(y)
            np.subtract(y[:, None], fits, out=fits)
            curve[:, block] = np.matmul(np.square(fits, out=fits), w2[..., None])[..., 0]
    return curve


def search_rows(n: int, hs) -> int:
    """Rows, one dataset of size n at one bandwidth of ``hs`` each, that fit in
    WORKSPACE_BYTES at 48 bytes a row and slot of the widest padded length
    n + r: table, spectrum, inverse transform and fits, with room to spare."""
    return WORKSPACE_BYTES // (48 * (n + int(kernel_radius(n, np.max(hs)))))


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


def select_bandwidth(data: Dataset, fit: IndexFit, w_values) -> tuple[float, float]:
    """Return (h1, h_final): the minimizer of MISE over
    ``default_bandwidth_grid(n)``, then undersmoothed.  The grid ascends, so
    ties go to the smallest candidate."""
    w = _one_weight_per_observation(data, fit, w_values)
    h1, h = select_bandwidths(data.y[None], fit.slots[None], w[None])
    return float(h1[0]), float(h[0])


def select_bandwidths(y, slots, w_values) -> tuple[np.ndarray, np.ndarray]:
    """``select_bandwidth`` of each dataset of a stack (see ``mise_rows``):
    the pilot and final bandwidths, (B,) each."""
    grid = default_bandwidth_grid(y.shape[1])
    h1 = grid[np.argmin(mise_rows(y, slots, w_values, grid), axis=1)]
    return h1, h1 * y.shape[1]**UNDERSMOOTH_EXPONENT
