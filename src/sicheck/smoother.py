"""Leave-one-out kernel smoothing on rank-transformed projections, and the
residual core and the report that the score, maximin and omnibus tests share.

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
no binning error).  ``LatticeSmoother`` alone computes it, for the tests
and the pilot search, in O(n log n) time and O(n) memory per column; no
n x n matrix is built.  ``loo_matrix`` keeps the dense O(n^2) form as the
reference the tests compare against.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, fields

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


def kernel_table(n: int, h) -> np.ndarray:
    """K(d / (n h)), d = 0, 1, ..., one row per bandwidth of the 1-D block
    ``h``, each positive up to its radius and 0 beyond."""
    return quartic_kernel(np.arange(min(math.ceil(n * h.max()), n)) / (n * h)[:, None])


class LatticeSmoother:
    """Leave-one-out smoothing on the integer rank slots k_i = n U_i of one
    index fit, at a bandwidth ``h`` or, one row of fits each, at every
    bandwidth of a 1-D block ``h``.

    Every rank distance is a multiple of 1/n, so the smooth is an exact
    convolution on n slots: scatter the values into their slots (tied ranks
    add up), convolve with the table K(d / (n h)), |d| < n h, centre zeroed,
    gather each observation's slot and add back K(0) times the tied values
    that share it.  The table is built once per smoother.  Real values at
    one bandwidth with a short table are convolved directly, which leaves
    an empty window exactly 0; otherwise one FFT serves every bandwidth,
    and the fits of the ``empty`` windows are set to 0.
    """

    def __init__(self, slots, h):
        hs = np.asarray(h, dtype=float)
        if not (hs.ndim <= 1 and hs.size and hs.min() > 0 and hs.max() < np.inf):
            raise ConfigError(f"bandwidth must be positive and finite, got {h}")
        self._shape, self._hs = hs.shape, hs.reshape(-1)  # shape () at one bandwidth
        self._k = np.asarray(slots, dtype=np.intp) - 1
        n = self._k.size
        if n < 2:
            raise InsufficientDataError("leave-one-out smoothing needs n >= 2")
        self._counts = np.bincount(self._k, minlength=n)
        self._tied = bool(self._counts.max() > 1)
        self._table = kernel_table(n, self._hs)

    @functools.cached_property
    def empty(self) -> np.ndarray:
        """Mask of observations whose window |k_i - k_j| < n h holds no other
        observation; one row per bandwidth of a block.  No window is empty
        when every radius spans the widest gap between occupied slots."""
        k, n = self._k, self._k.size
        r = np.minimum(np.ceil(n * self._hs), n).astype(np.intp)[:, None] - 1
        widest = 1  # untied, the occupied slots are 1..n
        if self._tied:
            widest = int(np.diff(np.flatnonzero(self._counts)).max(initial=0))
        if r.min() >= widest:
            mask = np.zeros((r.size, n), dtype=bool)
        else:
            cum = np.concatenate(([0], np.cumsum(self._counts)))
            mask = cum[np.minimum(k + r + 1, n)] - cum[np.maximum(k - r, 0)] == 1
        return mask.reshape(self._shape + self._k.shape)

    def smooth(self, values) -> np.ndarray:
        """Fits 1/((n-1) h) sum_{i != j} v_i K((U_j - U_i) / h) at every j,
        for a vector or an (n, d) column stack, real or complex; one row of
        them per bandwidth of a block."""
        k, n, table = self._k, self._k.size, self._table
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
            tied = quartic_kernel(0.0) * (binned[k] - real)  # slot mates, at distance 0
        else:  # the slots are a permutation of 1..n
            binned = np.empty(real.shape)
            binned[k] = real
        top = table.shape[1] - 1
        if not (self._shape or cplx) and 2 * top + 1 <= DIRECT_MAX_TAPS:
            taps = np.concatenate((table[0, :0:-1], [0.0], table[0, 1:]))
            out = np.empty((1,) + real.shape)
            for c in range(real.shape[1]):
                out[0, :, c] = np.convolve(binned[:, c], taps)[k + top]
        else:
            size = fft_length(n + top)
            circ = np.zeros((self._hs.size, size))
            circ[:, 1:top + 1] = table[:, 1:]
            circ[:, size - top:] = table[:, :0:-1]
            spectrum = np.fft.rfft(binned, size, axis=0) * np.fft.rfft(circ)[..., None]
            out = np.take(np.fft.irfft(spectrum, size, axis=1), k, axis=1)
            out[self.empty.reshape(out.shape[:2])] = 0.0
        if self._tied:
            out += tied
        out /= ((n - 1) * self._hs)[:, None, None]
        return (out.view(complex) if cplx else out).reshape(self._shape + v.shape)


@dataclass(frozen=True, eq=False)
class ResidualCore:
    """The lattice ``smoother`` (rank slots and bandwidth), residuals
    ``eps = y - fit(y)`` at every observation, and the interior mask
    ``keep`` that the test sums run over.  No n x n matrix is held.
    """

    smoother: LatticeSmoother
    eps: np.ndarray
    keep: np.ndarray

    def centered(self, values) -> np.ndarray:
        """Interior rows of ``values`` minus their leave-one-out smooth."""
        v = np.asarray(values)
        return (v - self.smoother.smooth(v))[self.keep]

    @property
    def diagnostics(self) -> dict:
        """Empty kernel windows (nonzero flags undersmoothing: those residuals
        reduce to the raw responses) and the interior count."""
        return {
            "empty_windows": int(np.count_nonzero(self.smoother.empty)),
            "n_interior": int(self.keep.sum()),
        }


@dataclass(frozen=True, eq=False)
class Report:
    """What every test reports: its ``statistic``, the ``p_value`` and the
    decision at level ``alpha`` under its ``calibration``, the bandwidth, the
    sample size, the weight functions and the core's ``diagnostics``.  Each
    test's report adds its own fields."""

    test: str
    statistic: float
    p_value: float
    reject: bool
    alpha: float
    calibration: str
    h: float
    n: int
    weight_kinds: tuple[str, ...]
    diagnostics: dict

    def to_json_dict(self) -> dict:
        """Every field under its own name: arrays as nested lists, tuples as
        lists, dicts copied."""
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    return dict(value) if isinstance(value, dict) else value


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


def narrow_bandwidth(n: int, h: float) -> str | None:
    """Why bandwidth ``h`` cannot calibrate the test sums at sample size
    ``n``, or None when it can.  At n h <= 1 the kernel radius
    ceil(n h) - 1 is 0: no window reaches a neighbouring rank, so every fit
    is 0 or tied slot mates only, and the residuals are not calibrated."""
    if n * h > 1.0:
        return None
    return (f"bandwidth h={h!r} reaches no neighbouring rank at n={n}: "
            f"the kernel windows need n h > 1; choose h > 1/n = {1.0 / n:.6g}")


@contextlib.contextmanager
def range_guard(what: str):
    """Refuse with a DataError float arithmetic in the block that overflows or
    turns invalid, since a result built from inf or nan would be
    meaningless; ``what`` says which computation overflowed."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise DataError(
            f"{what}: the covariates or responses are too large for the float "
            "range; rescale them"
        ) from None


@contextlib.contextmanager
def sums_guard(n: int, h: float):
    """Refuse with a DataError naming ``h`` a bandwidth at which the test sums
    mean nothing (``narrow_bandwidth``), and test sums in the block that
    overflow (``range_guard``)."""
    reason = narrow_bandwidth(n, h)
    if reason is not None:
        raise DataError(reason)
    with range_guard(f"the test sums overflow at bandwidth h={h!r}"):
        yield


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
