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
reference the tests compare against.  The smoother and the residual core
take only stacks: a ``Block`` of datasets of one size with their rank slots
and bandwidths, each computed as it would be alone; one dataset is a block of one.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, fields

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError, InsufficientDataError, number
from .index import IndexFit
from .kernels import quartic_kernel


@dataclass(frozen=True)
class SmootherConfig:
    h: float

    def __post_init__(self):
        object.__setattr__(self, "h", number("h", self.h))
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
    """Leave-one-out smoothing on the integer rank slots k_i = n U_i of each
    index fit of a stack, ``slots`` of shape (B, n); one fit is a stack of one.

    ``h`` gives one bandwidth per fit, shape (B,), or a block of bandwidths
    per fit, one row of fits each, shape (B, G) or (1, G) for every fit alike;
    fits come out with the leading shape (B,) or (B, G).

    Every rank distance is a multiple of 1/n, so the smooth is an exact
    convolution on n slots: scatter the values into their slots (tied ranks
    add up), convolve with the table K(d / (n h)), |d| < n h, centre zeroed,
    gather each observation's slot and add back K(0) times the tied values
    that share it.  Every convolution is one FFT of the fit's padded length
    n + r (r its widest radius), serving all its bandwidths; the fits of the
    ``empty`` windows are set to exactly 0.  The smoother transforms its
    tables once, so a smooth transforms only the values.  Each fit of a
    stack is computed as it would be alone: fits that share a padded length
    share one batched transform and one gather.
    """

    def __init__(self, slots, h):
        k = np.asarray(slots, dtype=np.intp) - 1
        hs = np.asarray(h, dtype=float)
        if k.ndim != 2:
            raise ConfigError(f"rank slots must be a (B, n) stack of fits, got shape {k.shape}")
        if not (hs.size and hs.min() > 0 and hs.max() < np.inf):
            raise ConfigError(f"bandwidth must be positive and finite, got {h}")
        b, n = k.shape
        if n < 2:
            raise InsufficientDataError("leave-one-out smoothing needs n >= 2")
        if hs.ndim not in (1, 2) or len(hs) not in (1, b):
            raise ConfigError(f"{b} stacked fits take 1 or {b} bandwidth rows, got {hs.shape}")
        rows = len(hs)
        self._shape = (b,) + hs.shape[1:]  # leading shape of the fits
        self._k, self._h = k, hs.reshape(rows, -1)  # (B, n), (1 or B, G)
        cells = k + n * np.arange(b)[:, None]
        self._counts = np.bincount(cells.ravel(), minlength=k.size).reshape(b, n)
        self._tied = self._counts.max(axis=1) > 1
        self._any_tied = bool(self._tied.any())
        tied = np.flatnonzero(self._tied)
        self._tied_fits = slice(None) if tied.size == b else tied  # all: add in place
        table = kernel_table(n, self._h.ravel()).reshape(rows, self._h.shape[1], -1)
        top = kernel_radius(n, self._h.max(axis=1))  # at each row's widest bandwidth
        self._groups = []  # (padded length, fits, spectra of their tables, gather index)
        lo, widest = int(top.min()), int(top.max())
        while lo <= widest:  # the rows of radii lo, ..., size - n share the padded length size
            size = fft_length(n + lo)
            shared = np.flatnonzero((top >= lo) & (top <= size - n))
            lo = size - n + 1
            if not shared.size:
                continue
            group, part = (shared, table[shared]) if rows > 1 else (np.arange(b), table)
            r = int(top[shared].max())
            circ = np.zeros(part.shape[:2] + (size,))
            circ[..., 1:r + 1] = part[..., 1:r + 1]
            circ[..., size - r:] = part[..., r:0:-1]
            # the group's inverse transforms of one bandwidth, flattened, hold fit i's
            # padded slots at rows i size, ..., i size + size - 1
            index = np.arange(group.size)[:, None] * size + k[group]
            spectra = np.fft.rfft(circ).transpose(1, 0, 2)[..., None]  # bandwidth-major
            self._groups.append((size, group, spectra, index))

    @functools.cached_property
    def _empty(self) -> np.ndarray | None:
        """The ``empty`` mask as (B, G, n), None when no window is empty."""
        k, (b, n) = self._k, self._k.shape
        r = kernel_radius(n, self._h)[..., None]
        # the widest gap between occupied slots of one fit; untied, they are 1..n
        occupied = np.flatnonzero(self._counts[self._tied])
        gaps = np.diff(occupied)[np.diff(occupied // n) == 0]
        widest = max(1, int(gaps.max(initial=0)))
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
        for values (B, n) or (B, n, d), a vector or a column stack per fit,
        real or complex; one row of them per bandwidth of a block."""
        k = self._k
        b, n = k.shape
        v = np.asarray(values)
        if v.ndim not in (2, 3) or v.shape[:2] != k.shape:
            raise DataError("values and ranks must have equal length")
        cplx = v.dtype.kind == "c"
        stack = np.ascontiguousarray(v, dtype=complex if cplx else float).reshape(b, n, -1)
        real = stack.view(float) if cplx else stack  # (B, n, m) real columns
        m, fit = real.shape[2], np.arange(b)[:, None]
        if self._any_tied:
            cells = ((k + n * fit)[..., None] * m + np.arange(m)).reshape(-1)
            binned = np.bincount(cells, weights=real.reshape(-1), minlength=b * n * m)
            binned = binned.reshape(b, n, m)
        else:  # each fit's slots are a permutation of 1..n
            binned = np.empty(real.shape)
            binned[fit, k] = real
        out = np.empty((b, self._h.shape[1], n, m))
        by_h = out.transpose(1, 0, 2, 3)  # (G, B, n, m)
        for size, group, kernel, index in self._groups:
            whole = group.size == b
            part = binned if whole else binned[group]
            spectrum = np.fft.rfft(part, size, axis=1) * kernel  # (G, fits, frequencies, m)
            fits = np.fft.irfft(spectrum, size, axis=2).reshape(len(kernel), -1, m)
            fits = np.take(fits, index, axis=1, mode="clip",  # clip: k is in range
                           out=by_h if whole else None)
            if not whole:
                by_h[:, group] = fits
        if self._empty is not None:
            out[self._empty] = 0.0
        if self._any_tied:  # slot mates, at distance 0
            t = self._tied_fits
            out[t] += (quartic_kernel(0.0) * (binned[fit[t], k[t]] - real[t]))[:, None]
        out /= ((n - 1) * self._h)[..., None, None]
        return (out.view(complex) if cplx else out).reshape(self._shape + v.shape[1:])


@dataclass(frozen=True, eq=False)
class ResidualCore:
    """The lattice ``smoother`` (rank slots and bandwidth), residuals
    ``eps = y - fit(y)`` at every observation, and the interior mask
    ``keep`` that the test sums run over, (B, n) each, for every dataset of a
    ``Block``.  No n x n matrix is held.
    """

    smoother: LatticeSmoother
    eps: np.ndarray
    keep: np.ndarray

    def centered(self, values) -> np.ndarray:
        """Interior rows of ``values`` minus their leave-one-out smooth."""
        v = np.asarray(values)
        return (v - self.smoother.smooth(v))[self.keep]

    @property
    def diagnostics(self) -> list[dict]:
        """Empty kernel windows (nonzero flags undersmoothing: those residuals
        reduce to the raw responses) and the interior count, one dict per
        dataset."""
        empty = np.count_nonzero(self.smoother.empty, axis=-1).tolist()
        kept = np.count_nonzero(self.keep, axis=-1).tolist()
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
        """The residual core of every dataset, its interior ``margin``
        bandwidths from the rank boundary (``interior_mask``)."""
        smoother = LatticeSmoother(self.slots, self.h)
        return ResidualCore(smoother=smoother, eps=self.y - smoother.smooth(self.y),
                            keep=interior_mask(self.slots / self.n, self.h, margin))


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
    return Block.of(data, fit, cfg).core().eps[0]


def smoothed_weights(w_values, fit: IndexFit, cfg: SmootherConfig) -> np.ndarray:
    """Leave-one-out smooth of weight values at each observation's own rank.

    ``w_values`` may be a vector or an (n, d) column stack, real or complex.
    """
    return LatticeSmoother(fit.slots[None], [cfg.h]).smooth(np.asarray(w_values)[None])[0]


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
