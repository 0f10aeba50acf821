"""Semidata-driven bandwidth selection.

Two steps: pick a pilot bandwidth h1 by minimizing the weighted squared
leave-one-out prediction error

    MISE(h) = sum_j (y_j - fit_j(U_j))^2 W(x_j)^2

over a grid, then undersmooth to h = h1 * n^(-2/15).  The pilot rate is
n^(-1/5); the extra factor takes the final bandwidth to the n^(-1/3)
order that keeps smoothing bias out of the test statistics.

The search is one batched pass per block of the sorted grid, in
``mise_curve``.  The responses are binned into the n rank slots once.  A
block's kernel tables K(d / (n h)) are transformed together by one rfft at
the FFT length of its widest table, multiplied by the transform of the
binned responses and transformed back by one irfft: each row is then the
exact lattice convolution that ``LatticeSmoother`` computes at that h.  A
block holds at most BLOCK_BYTES of workspace, so memory stays O(n).
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError, InsufficientDataError
from .index import IndexFit
from .kernels import quartic_kernel
from .smoother import fft_length

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
    hs = np.asarray(grid, dtype=float)
    bad = hs[~(hs > 0)]
    if bad.size:
        raise ConfigError(f"bandwidth must be positive, got {bad[0]}")
    if fit.n != data.n:
        raise DataError("index fit and dataset sizes differ")
    n, y, k = data.n, data.y, fit.slots - 1
    if n < 2:
        raise InsufficientDataError("leave-one-out smoothing needs n >= 2")
    binned = np.bincount(k, weights=y, minlength=n)
    counts = np.bincount(k, minlength=n)
    # tied slots: their other members sit at distance 0
    tied = quartic_kernel(0.0) * (binned[k] - y) if counts.max() > 1 else None
    # a window |d| <= r at least as wide as the widest gap between occupied
    # slots holds another observation, so only narrower ones can be empty
    widest = int(np.diff(np.flatnonzero(counts)).max(initial=0))
    by_h = np.argsort(hs, kind="stable")
    hs = hs[by_h]
    r_top = min(math.ceil(n * hs[-1]), n) - 1 if hs.size else 0
    rows = max(1, BLOCK_BYTES // (48 * (n + r_top)))
    curve = np.empty(hs.size)
    for lo in range(0, hs.size, rows):
        h = hs[lo:lo + rows]
        nh = n * h
        # K(d / (n h)) for d = 0..r, r < n, as LatticeSmoother keeps them (K > 0)
        table = quartic_kernel(np.arange(min(math.ceil(nh[-1]), n)) / nh[:, None])
        r = np.count_nonzero(table, axis=1) - 1
        top = int(r[-1])
        table = table[:, : top + 1]
        size = fft_length(n + top)
        circ = np.zeros((h.size, size))
        circ[:, 1 : top + 1] = table[:, 1:]
        circ[:, size - top:] = table[:, :0:-1]
        spectrum = np.fft.rfft(circ, axis=1)
        spectrum *= np.fft.rfft(binned, size)
        fits = np.take(np.fft.irfft(spectrum, size, axis=1), k, axis=1)
        if r[0] < widest:  # empty windows, from integer prefix counts
            cum = np.concatenate(([0], np.cumsum(counts)))
            rc = r[:, None]
            fits[cum[np.minimum(k + rc + 1, n)] - cum[np.maximum(k - rc, 0)] == 1] = 0.0
        if tied is not None:
            fits += tied
        fits /= ((n - 1) * h)[:, None]
        np.subtract(y, fits, out=fits)
        curve[by_h[lo:lo + rows]] = np.square(fits, out=fits) @ w2
    return curve


def mise(data: Dataset, fit: IndexFit, w_values, h: float) -> float:
    """Weighted squared leave-one-out prediction error at bandwidth h."""
    return float(mise_curve(data, fit, w_values, [h])[0])


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
    scores = mise_curve(data, fit, w_values, grid)
    h1 = float(grid[int(np.argmin(scores))])
    h_final = h1 * data.n**UNDERSMOOTH_EXPONENT
    return h1, h_final
