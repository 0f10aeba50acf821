"""Characteristic-function residual process and its bootstrap-calibrated
sup statistic.

The process evaluates the weighted residual sum at trigonometric weights
exp(i gamma' x) over a symmetric grid of frequencies.  The test statistic
takes the sup over the grid of the modulus of the centered interior sum

    T(gamma) = m^(-1/2) sum_{j interior} eps_j [W_j(gamma) - Wbar_j(gamma)],

where Wbar_j is the leave-one-out smooth of the frequency weights at U_j
and the interior keeps observations whose rank is at least three
bandwidths from the boundary (the sup amplifies the worst frequency, so
it gets a wider margin than the scalar tests).  The null distribution is
approximated by multiplier resampling: independent standard normal draws
e_i perturb exactly the same centered summands,

    T_r(gamma) = m^(-1/2) sum_{i interior} e_i eps_i [W_i(gamma) - Wbar_i(gamma)],

and the p-value (1 + #{r : sup T_r >= sup T}) / (m + 1) counts the
resampled sups at or above the statistic, so statistic and reference
distribution share one functional.  The test rejects iff the p-value is
at most alpha; the reported critical value is the order statistic of the
resampled sups that a rejected statistic exceeds and a retained one does
not.  Covariate columns are standardized (zero mean, unit variance)
before any frequency evaluation so the grid box is scale-meaningful;
every report records the grid convention.

Evaluation.  ``OmnibusCheck.run`` tests every dataset of a ``Block`` at
one bootstrap setting (m, alpha), and ``omnibus_test`` one dataset as a
block of one.  Replicate r of a dataset draws its multipliers from its
own stream ``default_rng([seed, r])``, and the m draws form the rows of
an (m, n_int) matrix E.  One vectorised pass of NumPy's ``SeedSequence``
hash seeds every stream of the block, and a stream's PCG64 is seeded from
its words when its row is drawn, bit for bit as ``default_rng`` would.
Only one frequency of each +/-gamma pair is evaluated, plus the origin:
the residuals, multipliers and smoothing weights are real, so T(-gamma) and
T_r(-gamma) have the moduli of T(gamma) and T_r(gamma).

Every replicate at every frequency is an entry of the matrix product E S
(the multiplier-bootstrap maxima of Chernozhukov, Chetverikov and Kato,
2013), where S holds the centered interior summands at the K half-grid
frequencies, one complex column each, smoothed a few per FFT pass by the
block's one smoother.  E is 8 m n_int bytes and S 16 K n_int, and the
block holds the smaller: when 2K <= m, each S whole with E drawn in row
blocks, else each E whole with the half grid walked in column blocks,
all datasets in step.  n and m, not B, size every block, so a dataset
rounds as it would alone.  Per dataset, a streamed block and its
workspace fit in WORKSPACE_BYTES; the block also holds its streams' seed
words, 32 m bytes a dataset.  Two floors outgrow the budget at large n:
an FFT pass smooths at least one column, about 128 n bytes, and a
streamed block may hold MIN_BLOCK rows or columns.

A statistic is rejected iff at most c replicate sups reach it, c the
largest count with (1 + c) / (m + 1) <= alpha.  The row blocks of E
therefore start at c + 1 rows and double up to the widest block the
budget allows.  A report walks every block.  A decision alone
(``OmnibusCheck.decisions``, which ``simulate`` uses) stops after the first
block at which more than c sups reach the statistic, since the retain is
then certain: the curtailed sequential Monte Carlo test (Besag and
Clifford, 1991).  Both walk the same blocks, so the decision is the
report's, bit for bit; a reject, and any block that holds E, draws all
m streams.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError, integer, number
from .index import IndexFit
from .smoother import DEFAULT_ALPHA, Block, Report, ResidualCore, SmootherConfig
from .smoother import WORKSPACE_BYTES, sums_guard

#: Largest dense frequency grid; beyond this the grid falls back to
#: quasi-random symmetric points.
MAX_DENSE_POINTS = 2401

#: Default frequency box [-bound, bound]^p, points per axis and bootstrap
#: replicate count.
DEFAULT_GRID_BOUND = 3.0
DEFAULT_GRID_PER_AXIS = 7
DEFAULT_BOOT_M = 500

#: Interior margin for the sup statistic, in units of the bandwidth.
SUP_INTERIOR_MARGIN = 3.0

#: Rows of E, or columns of summands, that a streamed block may hold whatever
#: the budget: every block rereads the whole held operand, and one-row blocks
#: would make the product m matrix-vector passes over it.
MIN_BLOCK = 16

#: NumPy's ``SeedSequence`` constants: the entropy pool size in 32-bit
#: words and the hash and mix multipliers (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97)


def _halton(count: int, base: int) -> np.ndarray:
    """Points 1..count of the van der Corput sequence in ``base``."""
    index = np.arange(1, count + 1)
    f, r = 1.0, np.zeros(count)
    while index.any():
        f /= base
        r += f * (index % base)
        index //= base
    return r


@dataclass(frozen=True, eq=False)
class GammaGrid:
    """Symmetric frequency grid on [-bound, bound]^p containing the origin.

    The axis holds the origin plus floor(per_axis / 2) equispaced points
    mirrored exactly about zero (an even request is bumped to the next odd
    count so the origin is present).  Dense product grid while it stays
    within MAX_DENSE_POINTS; beyond that, the origin plus 1000
    quasi-random (Halton) point pairs +/- q, which keeps the grid
    symmetric and has no per-axis count (``per_axis`` None); no axis is
    built then.  ``half_points`` holds one point of each +/-gamma pair, the
    one whose first nonzero coordinate is positive, plus the origin, in the
    order of ``points``.  Both arrays are read-only; ``gamma_grid`` caches
    one grid per (p, bound, per_axis).
    """

    p: int
    bound: float = DEFAULT_GRID_BOUND
    per_axis: int | None = DEFAULT_GRID_PER_AXIS  # None on a quasi-random grid
    points: np.ndarray = field(init=False, repr=False)  # (size, p)
    half_points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p, per_axis = integer("p", self.p), integer("per_axis", self.per_axis)
        bound = number("bound", self.bound)
        if p < 1:
            raise ConfigError(f"dimension must be >= 1, got {p}")
        if p > len(_PRIMES):
            raise ConfigError(f"dimension {p} exceeds the supported maximum {len(_PRIMES)}")
        if not math.isfinite(bound):
            raise ConfigError(f"grid bound must be finite, got {bound}")
        if bound <= 0:
            raise ConfigError(f"grid bound must be positive, got {bound}")
        if per_axis < 2:
            raise ConfigError(f"per-axis count must be >= 2, got {per_axis}")
        half_count = per_axis // 2
        if (2 * half_count + 1) ** p <= MAX_DENSE_POINTS:
            pos = np.linspace(0.0, bound, half_count + 1)[1:]
            axis = np.concatenate([-pos[::-1], [0.0], pos])
            mesh = np.meshgrid(*([axis] * p), indexing="ij")
            points = np.stack(mesh, axis=-1).reshape(-1, p)
        else:
            half = np.column_stack([_halton(1000, base) for base in _PRIMES[:p]])
            half = (2.0 * half - 1.0) * bound
            points = np.vstack([np.zeros((1, p)), half, -half])
            per_axis = None  # the points lie on no axis
        lead = points[np.arange(points.shape[0]), np.argmax(points != 0.0, axis=1)]
        half_points = points[lead >= 0.0]  # lead is +/-0.0 only at the origin
        points.setflags(write=False)
        half_points.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "per_axis", per_axis)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "half_points", half_points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def summary(self) -> dict:
        return {
            "size": self.size,
            "bound": self.bound,
            "per_axis": self.per_axis,
            "standardized_covariates": True,
        }


_cached_grid = functools.lru_cache(maxsize=64, typed=True)(GammaGrid)


def gamma_grid(p, bound=DEFAULT_GRID_BOUND, per_axis=DEFAULT_GRID_PER_AXIS) -> GammaGrid:
    """The frequency grid of (p, bound, per_axis), built once and shared.

    The cache sees the settings in one positional form and by type: ``gamma_grid(3)``
    is ``gamma_grid(3, bound=3.0, per_axis=7)``, and ``gamma_grid(3.0)`` is refused.
    """
    return _cached_grid(p, bound, per_axis)


@dataclass(frozen=True)
class BootstrapConfig:
    m: int = DEFAULT_BOOT_M
    alpha: float = DEFAULT_ALPHA
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "m", integer("m", self.m))
        object.__setattr__(self, "alpha", number("alpha", self.alpha))
        object.__setattr__(self, "seed", stream_seed(self.seed))
        if self.m < 100:
            raise ConfigError(f"bootstrap needs at least 100 replicates, got {self.m}")
        if self.m > 2**32:  # replicate r seeds its stream with one 32-bit word
            raise ConfigError(f"bootstrap takes at most 2^32 replicates, got {self.m}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.m * self.alpha < 1.0:
            raise ConfigError(
                f"m * alpha must be at least 1 (m={self.m}, alpha={self.alpha})"
            )


def stream_seed(seed) -> int:
    """``seed`` as an int if it is an unsigned 64-bit integer, which is what
    seeds a stream, else a ConfigError."""
    seed = integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


@dataclass(frozen=True, eq=False)
class OmnibusReport(Report):
    critical_value: float
    m: int
    seed: int
    grid: dict


def cf_process(eps_hat, x, gamma) -> complex:
    """Uncentered weighted-residual sum at one frequency, over all n
    observations: n^(-1/2) sum_j eps_j exp(i gamma' x_j).

    This is the raw characteristic-function process.  It is not the
    functional that ``omnibus_test`` takes the sup of, which centers the
    weights by their leave-one-out smooth, sums over interior observations
    only and evaluates standardized covariates.
    """
    eps = np.asarray(eps_hat, dtype=float)
    mat = np.asarray(x, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if mat.ndim != 2 or eps.shape != (mat.shape[0],) or g.shape != (mat.shape[1],):
        raise DataError("residuals (n,), covariates (n, p) and gamma (p,) must conform")
    phase = mat @ g
    return complex((eps * np.exp(1j * phase)).sum() / math.sqrt(eps.size))


def standardize_columns(x) -> np.ndarray:
    """Zero-mean, unit-variance columns, of a matrix or of each matrix of a
    stack; constant columns are left at scale 1."""
    x = np.asarray(x, dtype=float)
    mu = x.mean(axis=-2, keepdims=True)
    sd = x.std(axis=-2, keepdims=True)
    sd = np.where(sd > 0, sd, 1.0)
    return (x - mu) / sd


def _retain_count(m: int, alpha: float) -> int:
    """The largest count c of replicate sups at or above a statistic with
    which it is rejected at level ``alpha``: the largest c for which the
    p-value (1 + c) / (m + 1) <= alpha, in the float arithmetic of that
    p-value.  A statistic is rejected iff at most c of the m sups reach it."""
    c = math.floor(alpha * (m + 1))  # the count sought, or at most two above it
    while c >= 0 and (1 + c) / (m + 1) > alpha:
        c -= 1
    if c < 0:
        raise ConfigError(
            f"alpha * (m + 1) is below 1: no p-value reaches alpha (m={m}, alpha={alpha})"
        )
    return c


def bootstrap_critical_value(replicate_values, alpha: float) -> float:
    """The replicate sup that a statistic must exceed to be rejected at level
    ``alpha``.  The bootstrap p-value of a statistic t is
    p = (1 + #{replicates >= t}) / (m + 1); with c the largest count for which
    (1 + c) / (m + 1) <= alpha, in the float arithmetic of that p-value,
    p <= alpha holds iff t exceeds the (m - c)-th smallest replicate, which is
    returned.  At m = 1000, alpha = 0.05, c = 49 and the 951st is returned."""
    values = np.sort(np.asarray(replicate_values, dtype=float))
    m = values.size
    return float(values[m - 1 - _retain_count(m, alpha)])


def _stream_words(seeds, lo: int, hi: int) -> np.ndarray:
    """The PCG64 seed words of the streams ``default_rng([seed, r])`` of each
    of the B ``seeds``, r = lo..hi-1, bit for bit: a (B, hi - lo, 4) uint64
    array, one row of words per stream.

    Building a ``SeedSequence`` object per stream costs more than drawing
    from it: NumPy exposes its seed hash one Python object per stream.  This
    runs the same published algorithm (hash the entropy words [seed words...,
    r] into a pool of four, mix the pool, hash it out to four 64-bit words)
    over uint32 arrays holding every seed and r at once; a test pins it bit
    for bit to NumPy.  A seed takes one word below 2^32 and two from there,
    and r one word (callers keep r below 2^32), so the entropy never
    overflows the pool.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)[:, None]
    shape, const = (len(seeds), hi - lo), _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    r = np.arange(lo, hi, dtype=np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    two = high != 0  # the seed's second word, where it has one, comes before r
    entropy = [np.broadcast_to((seeds & np.uint64(_MASK32)).astype(np.uint32), shape),
               np.where(two, high, r), np.where(two, r, np.uint32(0)),
               np.zeros(shape, dtype=np.uint32)]
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = np.empty(shape + (2 * _POOL_SIZE,), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words[..., i] = value ^ (value >> np.uint32(16))
    return words.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _stream_generator():
    """The function from a row of ``_stream_words`` to its stream's generator,
    ``default_rng([seed, r])`` bit for bit, as PCG64's own code seeds it from the
    words; numpy.random loads here on first use, so ``import sicheck`` stays light."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class PresetWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(PresetWords(words)))


def _generators(words):
    """The generator of each stream of ``words``, one at a time."""
    return map(_stream_generator(), words)


def _multipliers(words: np.ndarray, n_int: int) -> np.ndarray:
    """One row of ``n_int`` standard normals per stream of ``_stream_words``,
    as one (len(words), n_int) matrix: the row of stream (seed, r) is
    ``default_rng([seed, r]).standard_normal(n_int)``."""
    e = np.empty((len(words), n_int))
    for row, rng in zip(e, _generators(words)):
        rng.standard_normal(out=row)
    return e


def omnibus_test(
    data: Dataset,
    fit: IndexFit,
    cfg: SmootherConfig,
    boot: BootstrapConfig,
    grid: GammaGrid | None = None,
) -> OmnibusReport:
    """Sup-statistic test with multiplier-bootstrap critical value.

    Statistic and replicates share the same centered interior summands,
    so the bootstrap calibrates exactly the functional being tested.
    Replicate r draws its multipliers from the stream (seed, r), so the
    result is bit-reproducible regardless of evaluation order.
    """
    return _per_dataset(Block.of(data, fit, cfg), boot.m, boot.alpha, [boot.seed], grid,
                        _omnibus_report)[0]


@dataclass(frozen=True)
class OmnibusCheck:
    """The bootstrap-calibrated sup-statistic test at ``boot_m`` replicates, on
    the grid of ``grid_bound`` and ``grid_per_axis``."""

    boot_m: int = DEFAULT_BOOT_M
    grid_bound: float = DEFAULT_GRID_BOUND
    grid_per_axis: int = DEFAULT_GRID_PER_AXIS
    h: float | None = None

    def __post_init__(self):
        if self.h is not None:
            SmootherConfig(h=self.h)  # raises outside (0, 1]
        BootstrapConfig(m=self.boot_m)  # raises on a replicate count below 100
        gamma_grid(1, self.grid_bound, self.grid_per_axis)  # raises on bad grid values

    @property
    def label(self) -> str:
        return f"omnibus[m={self.boot_m}]"

    def run(self, block: Block, alpha: float, seeds) -> list[OmnibusReport]:
        """``omnibus_test`` of every dataset of a block at level ``alpha``, dataset
        i's bootstrap from seed ``seeds[i]``.  The residual cores and the frequency
        columns come from one smoother over the block; each dataset's bootstrap runs
        on its own summands."""
        return _per_dataset(block, self.boot_m, alpha, seeds, self._grid(block), _omnibus_report)

    def decisions(self, block: Block, alpha: float, seeds) -> list[bool]:
        """The ``reject`` of each report of ``run``, bit for bit, without the rest of
        the report.  A dataset's bootstrap stops after the first row block at which
        more replicate sups reach the statistic than a rejected statistic allows, so
        a retained dataset draws fewer than m streams."""
        return _per_dataset(block, self.boot_m, alpha, seeds, self._grid(block), _decide)

    def _grid(self, block: Block) -> GammaGrid:
        return gamma_grid(block.x.shape[2], self.grid_bound, self.grid_per_axis)


def _per_dataset(block: Block, m, alpha, seeds, grid, one) -> list:
    """``one(runs, boot, c, seed, grid, h, n, diagnostics)`` of every dataset: ``runs``
    from ``_sups``, ``boot`` the block's one bootstrap setting and c its ``_retain_count``."""
    b, n, p = block.x.shape
    boot, seeds = BootstrapConfig(m=m, alpha=alpha), [stream_seed(seed) for seed in seeds]
    if len(seeds) != b:
        raise ConfigError(f"a block of {b} datasets takes {b} seeds, got {len(seeds)}")
    grid = gamma_grid(p) if grid is None else grid
    if grid.p != p:
        raise DataError(f"grid dimension {grid.p} does not match covariate dimension {p}")
    c, z = _retain_count(boot.m, boot.alpha), standardize_columns(block.x)
    with sums_guard(n, block.h):
        core = block.core(margin=SUP_INTERIOR_MARGIN)
        return [one(runs, boot, c, seed, grid, h, n, diagnostics) for runs, seed, h, diagnostics
                in zip(_sups(z, core, boot.m, c, seeds, grid), seeds, block.h.tolist(),
                       core.diagnostics)]


def _blocks(total: int, fit: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the fewest blocks of ``total`` items that hold at
    most max(MIN_BLOCK, fit) each, their sizes differing by at most one: a
    sliver of a last block would be a small product, which BLAS computes
    with another kernel whose sums round differently."""
    count = -(-total // max(MIN_BLOCK, fit))
    edges = [total * i // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _row_blocks(m: int, first: int, fit: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the row blocks of E: sizes that double from
    ``first`` while they stay below the widest block of ``_blocks(m, fit)``,
    then the rows left in the fewest blocks no wider, their sizes differing
    by at most one.  A report walks every block; a decision stops after the
    first block that makes it certain, so the early blocks are small."""
    widest = max(hi - lo for lo, hi in _blocks(m, fit))
    edges, size = [0], first
    while size < widest and edges[-1] + size < m:
        edges.append(edges[-1] + size)
        size *= 2
    lo = edges[-1]
    count = -(-(m - lo) // widest)
    edges += [lo + (m - lo) * i // count for i in range(1, count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _summands(z, core: ResidualCore, eps, gammas, bound) -> list[np.ndarray]:
    """The centered interior summands eps_j [W_j(gamma) - Wbar_j(gamma)] of each
    dataset, one complex column per frequency of ``gammas``; the block's phase
    columns are smoothed a few per FFT pass, one smoother call each."""
    b, n, _ = z.shape
    # per complex column of each dataset: the weights, their slot-binned copy and gathered
    # fits (n each), the spectrum and its inverse (each below 2.31 n: the padded length
    # fft_length(n + r) is at most 1.154 (n + r), and r < n).  The phases are taken in the
    # passes of a block of one, as BLAS rounds a column of a product by the product's width
    alone = max(1, WORKSPACE_BYTES // (16 * 8 * n))
    width, cuts = max(1, alone // b), np.cumsum([e.size for e in eps])[:-1]
    s = [np.empty((e.size, len(gammas)), dtype=complex) for e in eps]
    for lo in range(0, len(gammas), alone):
        try:  # the sums guard makes numpy raise here
            phases = z @ gammas[lo:lo + alone].T
        except FloatingPointError:
            raise ConfigError(f"grid bound {bound} overflows the phases gamma'z") from None
        for start in range(0, phases.shape[2], width):
            rows = np.split(core.centered(np.exp(1j * phases[..., start:start + width])), cuts)
            for out, centered, e in zip(s, rows, eps):
                out[:, lo:lo + alone][:, start:start + width] = centered * e[:, None]
    return s


def _row_maxima(prod) -> np.ndarray:
    """The largest modulus in each row of complex products, re and im interleaved."""
    re, im = prod[:, 0::2], prod[:, 1::2]
    with np.errstate(over="ignore"):
        square = re * re + im * im
    # the largest modulus of each replicate is among its near-largest squares
    near = square >= square.max(axis=1, keepdims=True) * (1.0 - 1e-12)
    return np.hypot(re, im, out=np.zeros_like(re), where=near).max(axis=1)


def _sups(z, core: ResidualCore, m: int, c: int, seeds, grid) -> list:
    """Each dataset's scaled statistic with the scaled sups of runs of consecutive
    replicates: one run per row block of E, drawn when asked for, if the block holds
    its summands (2K <= m), and one run of all m if it holds every E."""
    eps = [e[keep] for e, keep in zip(core.eps, core.keep)]
    half, words = grid.half_points, _stream_words(seeds, 0, m)
    if 2 * len(half) <= m:
        return [_row_walk(s, m, c, rows)
                for s, rows in zip(_summands(z, core, eps, half, grid.bound), words)]
    e = [_multipliers(rows, d.size) for rows, d in zip(words, eps)]
    t, reps = [0.0] * len(e), [np.zeros(m) for _ in e]
    # per column: a dataset's summands (under 2 n doubles) and its products, squares,
    # mask and moduli (under 5 m); n and m, not B, size every product
    fit = WORKSPACE_BYTES // (8 * (2 * z.shape[1] + 5 * m))
    for start, stop in _blocks(len(half), fit):
        for j, s in enumerate(_summands(z, core, eps, half[start:stop], grid.bound)):
            t[j] = max(t[j], float(np.abs(s.sum(axis=0)).max()))
            np.maximum(reps[j], _row_maxima(e[j] @ s.view(float)), out=reps[j])
    return [[(t_max / math.sqrt(d.size), sups / math.sqrt(d.size))]
            for t_max, sups, d in zip(t, reps, eps)]


def _row_walk(s, m: int, c: int, words):
    """The runs of a dataset that holds its summands ``s``: E is drawn from
    the stream ``words`` in the row blocks of ``_row_blocks``, the first of
    c + 1 rows, each freed before the next is drawn."""
    n_int, k = s.shape
    scale = math.sqrt(n_int)
    t_tilde = float(np.abs(s.sum(axis=0)).max()) / scale
    # per replicate row: its multipliers and its products, squares, mask and moduli (under 5 K)
    fit = WORKSPACE_BYTES // (8 * (n_int + 5 * k))
    for lo, hi in _row_blocks(m, c + 1, fit):
        yield t_tilde, _row_maxima(_multipliers(words[lo:hi], n_int) @ s.view(float)) / scale


def _decide(runs, boot, c, *_) -> bool:
    """The decision of ``_omnibus_report``: reject iff at most c = ``_retain_count`` of
    the m replicate sups reach the statistic; draws no row block once more have."""
    reached = itertools.accumulate(int(np.count_nonzero(reps >= t)) for t, reps in runs)
    return all(count <= c for count in reached)


def _omnibus_report(runs, boot, _, seed, grid, h, n, diagnostics) -> OmnibusReport:
    """One dataset's report from its ``runs``: the sup statistic and the
    bootstrap from ``seed`` at bandwidth ``h`` and sample size ``n``."""
    runs = list(runs)
    t_tilde, reps = runs[0][0], np.concatenate([sups for _, sups in runs])
    # p <= alpha iff t_tilde exceeds the critical value
    p_value = (1 + int(np.count_nonzero(reps >= t_tilde))) / (boot.m + 1)
    return OmnibusReport(
        test="omnibus",
        statistic=t_tilde,
        p_value=p_value,
        reject=bool(p_value <= boot.alpha),
        alpha=boot.alpha,
        calibration=f"bootstrap-m={boot.m}",
        h=h,
        n=n,
        weight_kinds=("cf",),
        diagnostics=diagnostics,
        critical_value=bootstrap_critical_value(reps, boot.alpha),
        m=boot.m,
        seed=seed,
        grid=grid.summary(),
    )
