"""Leave-one-out kernel smoothing on rank-transformed projections, and the
residual core that the score, maximin and omnibus tests share.

For observation j the smoother averages the remaining values with kernel
weights on the rank scale,

    fit_j(u) = 1/((n-1) h) * sum_{i != j} v_i K((u - U_i) / h),

a plain sum with no density denominator: the ranks are near-uniform on
(0, 1], which is what makes the unnormalized average consistent.  An empty
kernel window yields the literal empty sum, 0.

The ranks sit on the lattice U_i = k_i / n, so every rank distance is a
whole number of slots and the sum is an exact convolution of the values,
binned into n integer slots, with the table K(d / (n h)), |d| < n h
(binned kernel smoothing, Silverman 1982; Fan and Marron 1994, here with
no binning error).  ``LatticeSmoother`` computes it in O(n log n) time and
O(n) memory per column; no n x n matrix is built.  ``loo_matrix`` keeps the
dense O(n^2) form as the reference the tests compare against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError, InsufficientDataError
from .index import IndexFit
from .kernels import quartic_kernel


@dataclass(frozen=True)
class SmootherConfig:
    h: float

    def __post_init__(self):
        if not 0.0 < self.h <= 1.0:
            raise ConfigError(
                f"bandwidth must lie in (0, 1] on the rank scale, got {self.h}"
            )


def loo_matrix(u_ranks, h: float) -> np.ndarray:
    """Dense leave-one-out weight matrix S on the rank scale.

    S[i, j] = K((U_j - U_i) / h) / ((n - 1) h) with a zero diagonal, so the
    fitted value at observation j for a value vector v is (v @ S)[j].  This
    is the O(n^2) reference that ``LatticeSmoother`` reproduces; nothing in the
    pipeline builds it.  Accepts any h > 0.
    """
    if not h > 0:
        raise ConfigError(f"bandwidth must be positive, got {h}")
    u = np.asarray(u_ranks, dtype=float)
    n = u.size
    if n < 2:
        raise InsufficientDataError("leave-one-out smoothing needs n >= 2")
    s = quartic_kernel((u[None, :] - u[:, None]) / h)
    np.fill_diagonal(s, 0.0)
    return s / ((n - 1) * h)


#: Longest kernel table (2r + 1 taps) that real values are convolved with
#: directly; longer tables and complex values go through the FFT.
DIRECT_MAX_TAPS = 255


def fft_length(k: int) -> int:
    """Smallest 2^a 3^b 5^c >= k, a length numpy's FFT transforms about as
    fast as a power of two."""
    best = 1 << (k - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:  # odd = 3^b 5^c; pad it with the fewest factors of 2
            best = min(best, odd << (-(-k // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


class LatticeSmoother:
    """Leave-one-out smoothing at bandwidth ``h`` on the integer rank slots
    k_i = n U_i of one index fit.

    Every rank distance is a multiple of 1/n, so the smooth is an exact
    convolution on n slots: scatter the values into their slots (tied ranks
    add up), convolve with the kernel table K(d / (n h)), |d| < n h, whose
    centre is zeroed, gather each observation's slot and add back K(0)
    times the tied values that share it.  Real values with a short table
    are convolved directly, column by column, which leaves an empty window
    exactly 0; otherwise an FFT along the slots does it, and the fits of
    empty windows, counted from integer prefix sums of slot occupancy, are
    set to 0.
    """

    def __init__(self, slots, h: float):
        if not h > 0:
            raise ConfigError(f"bandwidth must be positive, got {h}")
        self.slots = np.asarray(slots, dtype=np.intp)
        self.h = h
        n = self.slots.size
        if n < 2:
            raise InsufficientDataError("leave-one-out smoothing needs n >= 2")
        nh = n * h
        table = quartic_kernel(np.arange(min(math.ceil(nh), n)) / nh)
        self._table = table[table > 0.0]  # K(d / (n h)) for d = 0..r, r < n
        self._taps = np.concatenate((self._table[:0:-1], [0.0], self._table[1:]))
        self._k = self.slots - 1
        self._counts = np.bincount(self._k, minlength=n)
        self._tied = bool(self._counts.max() > 1)

    @property
    def fft_size(self) -> int:
        """Padded length of the FFT branch: n + r slots keep the circular
        wrap out."""
        return fft_length(self._k.size + self._table.size - 1)

    @functools.cached_property
    def empty(self) -> np.ndarray:
        """Mask of observations whose window |k_i - k_j| < n h holds no other
        observation."""
        k, r = self._k, self._table.size - 1
        cum = np.concatenate(([0], np.cumsum(self._counts)))
        return cum[np.minimum(k + r + 1, k.size)] - cum[np.maximum(k - r, 0)] == 1

    def smooth(self, values) -> np.ndarray:
        """Fits 1/((n-1) h) sum_{i != j} v_i K((U_j - U_i) / h) at every j,
        for a vector or an (n, d) column stack, real or complex."""
        k, n, r = self._k, self._k.size, self._table.size - 1
        v = np.asarray(values)
        if v.ndim not in (1, 2) or v.shape[0] != n:
            raise DataError("values and ranks must have equal length")
        cplx = np.iscomplexobj(v)
        stack = np.ascontiguousarray(v, dtype=complex if cplx else float).reshape(n, -1)
        real = stack.view(float) if cplx else stack  # (n, m) real columns
        if self._tied:
            m = real.shape[1]
            binned = np.bincount(
                (k[:, None] * m + np.arange(m)).ravel(), weights=real.ravel(), minlength=n * m
            ).reshape(n, m)
        else:  # the slots are a permutation of 1..n
            binned = np.empty(real.shape)
            binned[k] = real
        if not cplx and self._taps.size <= DIRECT_MAX_TAPS:
            out = np.empty(real.shape)
            for c in range(real.shape[1]):
                out[:, c] = np.convolve(binned[:, c], self._taps)[k + r]
        else:
            size = self.fft_size
            circ = np.zeros(size)
            circ[: r + 1] = self._taps[r:]
            circ[size - r:] = self._taps[:r]
            spectrum = np.fft.rfft(binned, size, axis=0) * np.fft.rfft(circ)[:, None]
            out = np.fft.irfft(spectrum, size, axis=0)[k]
            out[self.empty] = 0.0
        if self._tied:  # tied slots: their other members sit at distance 0
            out += self._table[0] * (binned[k] - real)
        out /= (n - 1) * self.h
        return (out.view(complex) if cplx else out).reshape(v.shape)


@dataclass(frozen=True, eq=False)
class ResidualCore:
    """The lattice ``smoother`` (rank slots and bandwidth), residuals
    ``eps = y - fit(y)`` at every observation, and the interior mask
    ``keep`` that the test sums run over.  No n x n matrix is held.
    """

    smoother: LatticeSmoother
    eps: np.ndarray
    keep: np.ndarray

    def smooth(self, values) -> np.ndarray:
        """Leave-one-out fits of a vector or an (n, d) column stack, real or
        complex, at each observation's own rank."""
        return self.smoother.smooth(values)

    def centered(self, values) -> np.ndarray:
        """Interior rows of ``values`` minus their leave-one-out smooth."""
        v = np.asarray(values)
        return (v - self.smooth(v))[self.keep]

    @property
    def diagnostics(self) -> dict:
        """Empty kernel windows (nonzero flags undersmoothing: those residuals
        reduce to the raw responses) and the interior count."""
        return {
            "empty_windows": int(np.count_nonzero(self.smoother.empty)),
            "n_interior": int(self.keep.sum()),
        }


def residual_core(
    data: Dataset, fit: IndexFit, cfg: SmootherConfig, margin: float = 1.0
) -> ResidualCore:
    """Build the shared core; ``margin`` is the interior margin in bandwidths."""
    if fit.n != data.n:
        raise DataError("index fit and dataset sizes differ")
    smoother = LatticeSmoother(fit.slots, cfg.h)
    return ResidualCore(
        smoother=smoother,
        eps=data.y - smoother.smooth(data.y),
        keep=interior_mask(fit.ranks_u, cfg.h, margin),
    )


def residuals(data: Dataset, fit: IndexFit, cfg: SmootherConfig) -> np.ndarray:
    """y_j minus the leave-one-out fit at U_j, for every observation."""
    return residual_core(data, fit, cfg).eps


def smoothed_weights(w_values, fit: IndexFit, cfg: SmootherConfig) -> np.ndarray:
    """Leave-one-out smooth of weight values at each observation's own rank.

    ``w_values`` may be a vector or an (n, d) column stack, real or complex.
    """
    return LatticeSmoother(fit.slots, cfg.h).smooth(w_values)


#: Default level of the score, maximin and omnibus tests.
DEFAULT_ALPHA = 0.05

#: Smallest interior subsample a test statistic may run on; below this the
#: interior restriction is abandoned and all observations enter the sums.
MIN_INTERIOR = 5


def interior_mask(u_ranks, h: float, margin: float = 1.0) -> np.ndarray:
    """Boolean mask of observations whose kernel window avoids the rank
    boundary by ``margin * h``.

    Windows that stick out past rank 0 or 1 are truncated, and their
    fitted values carry a mass deficit that leaks the response level into
    residual-based statistics; the test statistics therefore sum over
    interior observations only.  When fewer than MIN_INTERIOR points
    survive, the mask degenerates to all-true.
    """
    u = np.asarray(u_ranks, dtype=float)
    b = margin * h
    keep = (u > b) & (u <= 1.0 - b + 1e-12)
    if int(keep.sum()) < MIN_INTERIOR:
        return np.ones(u.size, dtype=bool)
    return keep
