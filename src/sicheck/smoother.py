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
reference the tests compare against.  A ``Block`` stacks datasets of one
size with their rank slots and bandwidths; the smoother and the residual
core take it in one pass, each dataset computed as it would be alone.
"""

from __future__ import annotations

import contextlib
import functools
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


@functools.lru_cache(maxsize=1024)
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


#: Bytes of workspace a blocked stage may hold: a pass of the pilot search, or
#: a block of the omnibus bootstrap beyond its one held operand.
WORKSPACE_BYTES = 4 << 20


def kernel_radius(n: int, h):
    """min(ceil(n h), n) - 1, the widest slot distance |d| < n h that a window
    reaches at bandwidth ``h``, elementwise."""
    return np.minimum(np.ceil(n * np.asarray(h, dtype=float)), n).astype(np.intp) - 1


def kernel_table(n: int, h) -> np.ndarray:
    """K(d / (n h)), d = 0, 1, ..., one row per bandwidth of the 1-D block
    ``h``, each positive up to its radius and 0 beyond."""
    return quartic_kernel(np.arange(kernel_radius(n, h.max()) + 1) / (n * h)[:, None])


class LatticeSmoother:
    """Leave-one-out smoothing on the integer rank slots k_i = n U_i of one
    index fit (``slots`` of shape (n,)) or of each fit of a stack (B, n).

    ``h`` gives one bandwidth per fit (a scalar, or shape (B,) for a stack)
    or, one row of fits each, a block of bandwidths per fit (shape (G,), or
    (B, G) or (1, G) for a stack); fits come out with the leading shape of
    the slots' stack and the block.

    Every rank distance is a multiple of 1/n, so the smooth is an exact
    convolution on n slots: scatter the values into their slots (tied ranks
    add up), convolve with the table K(d / (n h)), |d| < n h, centre zeroed,
    gather each observation's slot and add back K(0) times the tied values
    that share it.  Every convolution is one FFT of the fit's padded length
    n + r (r its widest radius), serving all its bandwidths; the fits of the
    ``empty`` windows are set to exactly 0.  The smoother transforms its
    tables once, so a smooth transforms only the values.  Each fit of a
    stack is computed as it would be alone: fits that share a padded length
    share one batched transform.
    """

    def __init__(self, slots, h):
        k = np.asarray(slots, dtype=np.intp) - 1
        hs = np.asarray(h, dtype=float)
        lead = k.ndim - 1  # 1 for a stack of fits
        if not (k.ndim in (1, 2) and hs.ndim <= k.ndim and hs.size and hs.min() > 0
                and hs.max() < np.inf):
            raise ConfigError(f"bandwidth must be positive and finite, got {h}")
        n = k.shape[-1]
        if n < 2:
            raise InsufficientDataError("leave-one-out smoothing needs n >= 2")
        rows = hs.shape[0] if lead and hs.ndim else 1
        if rows not in (1, k.size // n):
            raise ConfigError(f"{k.size // n} stacked fits take 1 or {k.size // n} bandwidth rows")
        self._lead, self._fit_shape = lead, k.shape
        self._shape = k.shape[:-1] + hs.shape[lead:]  # leading shape of the fits
        self._k = k.reshape(-1, n)  # (B, n)
        self._h = hs.reshape(rows, -1)  # (1 or B, G)
        cells = self._k + n * np.arange(len(self._k))[:, None]
        self._counts = np.bincount(cells.ravel(), minlength=self._k.size).reshape(-1, n)
        self._tied = self._counts.max(axis=1) > 1
        self._any_tied = bool(self._tied.any())
        table = kernel_table(n, self._h.ravel()).reshape(rows, self._h.shape[1], -1)
        top = kernel_radius(n, self._h.max(axis=1)).tolist()  # at each row's widest bandwidth
        by_size = {}  # fits whose FFT shares a padded length
        for j in range(len(self._k)):
            by_size.setdefault(fft_length(n + top[j if rows > 1 else 0]), []).append(j)
        self._groups = []  # (padded length, fits, spectra of their circulant tables)
        for size, group in by_size.items():
            part = table[group] if rows > 1 else table
            r = max(top[j] for j in group) if rows > 1 else top[0]
            circ = np.zeros(part.shape[:2] + (size,))
            circ[..., 1:r + 1] = part[..., 1:r + 1]
            circ[..., size - r:] = part[..., r:0:-1]
            self._groups.append((size, group, np.fft.rfft(circ)))

    @functools.cached_property
    def _empty(self) -> np.ndarray | None:
        """The ``empty`` mask as (B, G, n), None when no window is empty."""
        k, (b, n) = self._k, self._k.shape
        r = kernel_radius(n, self._h)[..., None]
        widest = 1  # the widest gap between occupied slots; untied, they are 1..n
        for counts in self._counts[self._tied]:
            widest = max(widest, int(np.diff(np.flatnonzero(counts)).max(initial=0)))
        if r.min() >= widest:
            return None
        cum = np.zeros((b, 1, n + 1), dtype=np.intp)
        np.cumsum(self._counts, axis=1, out=cum[:, 0, 1:])
        k = k[:, None, :]
        above = np.take_along_axis(cum, np.minimum(k + r + 1, n), axis=2)
        mask = above - np.take_along_axis(cum, np.maximum(k - r, 0), axis=2) == 1
        return mask if mask.any() else None

    @property
    def empty(self) -> np.ndarray:
        """Mask of observations whose window |k_i - k_j| < n h holds no other
        observation, with the fits' leading shape."""
        shape = self._shape + self._k.shape[1:]
        return np.zeros(shape, dtype=bool) if self._empty is None else self._empty.reshape(shape)

    def smooth(self, values) -> np.ndarray:
        """Fits 1/((n-1) h) sum_{i != j} v_i K((U_j - U_i) / h) at every j,
        for a vector or an (n, d) column stack per fit, real or complex; one
        row of them per bandwidth of a block."""
        k = self._k
        (b, n), lead = k.shape, self._lead
        v = np.asarray(values)
        if v.ndim - lead not in (1, 2) or v.shape[:lead + 1] != self._fit_shape:
            raise DataError("values and ranks must have equal length")
        cplx = v.dtype.kind == "c"
        stack = np.ascontiguousarray(v, dtype=complex if cplx else float).reshape(b, n, -1)
        real = stack.view(float) if cplx else stack  # (B, n, m) real columns
        m, fit = real.shape[2], np.arange(b)[:, None]
        if self._any_tied:
            cells = ((k + n * fit)[..., None] * m + np.arange(m)).reshape(-1)
            binned = np.bincount(cells, weights=real.reshape(-1), minlength=b * n * m)
            binned = binned.reshape(b, n, m)
            tied = quartic_kernel(0.0) * (binned[fit, k] - real)  # slot mates, at distance 0
        else:  # each fit's slots are a permutation of 1..n
            binned = np.empty(real.shape)
            binned[fit, k] = real
        out = np.empty((b, self._h.shape[1], n, m))
        for size, group, kernel in self._groups:
            part = binned[group] if len(group) < b else binned
            spectrum = np.fft.rfft(part, size, axis=1)[:, None] * kernel[..., None]
            for j, fits in zip(group, np.fft.irfft(spectrum, size, axis=2)):
                np.take(fits, k[j], axis=1, out=out[j], mode="clip")  # clip: k is in range
        if self._empty is not None:
            out[self._empty] = 0.0
        if self._any_tied:
            for j in np.flatnonzero(self._tied):
                out[j] += tied[j]
        out /= ((n - 1) * self._h)[..., None, None]
        return (out.view(complex) if cplx else out).reshape(self._shape + v.shape[lead:])


@dataclass(frozen=True, eq=False)
class ResidualCore:
    """The lattice ``smoother`` (rank slots and bandwidth), residuals
    ``eps = y - fit(y)`` at every observation, and the interior mask
    ``keep`` that the test sums run over, for one dataset or, with a leading
    axis on each, for every dataset of a ``Block``.  No n x n matrix is held.
    """

    smoother: LatticeSmoother
    eps: np.ndarray
    keep: np.ndarray

    def centered(self, values) -> np.ndarray:
        """Interior rows of ``values`` minus their leave-one-out smooth."""
        v = np.asarray(values)
        return (v - self.smoother.smooth(v))[self.keep]

    @property
    def diagnostics(self):
        """Empty kernel windows (nonzero flags undersmoothing: those residuals
        reduce to the raw responses) and the interior count: one dict, or
        one per dataset of a block."""
        empty = np.count_nonzero(self.smoother.empty, axis=-1).tolist()
        kept = np.count_nonzero(self.keep, axis=-1).tolist()
        if isinstance(kept, int):
            return {"empty_windows": empty, "n_interior": kept}
        return [{"empty_windows": e, "n_interior": k} for e, k in zip(empty, kept)]


@dataclass(frozen=True, eq=False)
class Block:
    """B datasets of one size n and dimension p, stacked, each with the rank
    slots of its index fit and its bandwidth: what a test runs on.  ``x`` is
    (B, n, p), ``y`` and ``slots`` are (B, n) and ``h`` is (B,)."""

    x: np.ndarray
    y: np.ndarray
    slots: np.ndarray
    h: np.ndarray

    @staticmethod
    def of(data: Dataset, fit: IndexFit, cfg: SmootherConfig) -> "Block":
        """The block of one dataset, its index fit and its bandwidth."""
        if fit.n != data.n:
            raise DataError("index fit and dataset sizes differ")
        return Block(data.x[None], data.y[None], fit.slots[None], np.array([cfg.h]))

    @property
    def n(self) -> int:
        return self.y.shape[1]

    def core(self, margin: float = 1.0) -> ResidualCore:
        """The residual core of every dataset; ``margin`` as in ``residual_core``."""
        return _core(self.y, self.slots, self.h, margin)


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
    return _core(data.y, fit.slots, cfg.h, margin)


def _core(y, slots, h, margin: float) -> ResidualCore:
    smoother = LatticeSmoother(slots, h)
    return ResidualCore(smoother=smoother, eps=y - smoother.smooth(y),
                        keep=interior_mask(slots / y.shape[-1], h, margin))


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
def sums_guard(n: int, h):
    """Refuse with a DataError naming ``h`` a bandwidth at which the test sums
    mean nothing (``narrow_bandwidth``), and test sums in the block that
    overflow (``range_guard``); of several bandwidths, the narrowest is named."""
    h = float(np.min(h))
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


def interior_mask(u_ranks, h, margin: float = 1.0) -> np.ndarray:
    """Boolean mask of observations whose kernel window avoids the rank
    boundary by ``margin * h``; for a stack of rank vectors (B, n), one
    bandwidth each (B,).

    Windows that stick out past rank 0 or 1 are truncated, and their
    fitted values carry a mass deficit that leaks the response level into
    residual-based statistics; the test statistics therefore sum over
    interior observations only.  When fewer than MIN_INTERIOR points
    survive, the mask degenerates to all-true.
    """
    u = np.asarray(u_ranks, dtype=float)
    b = margin * np.asarray(h, dtype=float)[..., None]
    keep = (u > b) & (u <= 1.0 - b + 1e-12)
    few = np.count_nonzero(keep, axis=-1) < MIN_INTERIOR
    if few.any():
        keep[few] = True
    return keep
