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

and the critical value is an order statistic of the resampled sups, so
statistic and reference distribution share one functional.  Covariate
columns are standardized (zero mean, unit variance) before any frequency
evaluation so the grid box is scale-meaningful; every report records the
grid convention.

Evaluation.  Replicate r draws its multipliers from its own stream
``default_rng([seed, r])``; the m draws form the rows of one (m, n_int)
matrix E.  The m streams are seeded in one vectorised pass: NumPy's
``SeedSequence`` hash runs over arrays holding every r at once, and each
stream's PCG64 is seeded from its row of words, so E is bit for bit what
the m ``default_rng`` calls would draw.  Every replicate of a block of
frequencies comes out of one matrix product with E (the
multiplier-bootstrap maxima of Chernozhukov, Chetverikov and Kato, 2013).
Only one frequency of each +/-gamma pair is evaluated, plus the origin:
the residuals, the multipliers and the smoothing weights are real, so the
summands at -gamma are the complex conjugates of those at gamma and
T(-gamma), T_r(-gamma) have the same modulus as T(gamma), T_r(gamma).
The sup over half the grid is the sup over all of it.  The half grid is
walked in blocks of columns sized so that a block's complex weights, their
FFT workspace and their replicate products fit in CHUNK_BYTES, keeping a
running max of the statistic and of each replicate.  Memory is then
8 m n_int bytes for E plus CHUNK_BYTES, whatever the grid size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .exceptions import ConfigError, DataError
from .index import IndexFit
from .smoother import DEFAULT_ALPHA, SmootherConfig, residual_core

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

#: Bytes one block of frequency columns may hold: its complex weights, their
#: FFT workspace and the replicate products.
CHUNK_BYTES = 64 << 20

#: NumPy's ``SeedSequence`` constants: the entropy pool size in 32-bit
#: words and the hash and mix multipliers (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
           61, 67, 71, 73, 79, 83, 89, 97)


@dataclass(frozen=True, eq=False)
class GammaGrid:
    """Symmetric frequency grid containing the origin."""

    points: np.ndarray  # (g, p)
    bound: float
    per_axis: int | None  # None on a quasi-random grid

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ConfigError("frequency grid must be a nonempty (g, p) array")
        if not np.isfinite(pts).all():
            raise ConfigError("frequency grid points must be finite")
        if not 0 < self.bound < math.inf:
            raise ConfigError(f"grid bound must be positive and finite, got {self.bound}")
        if self.per_axis is not None and self.per_axis < 2:
            raise ConfigError(f"per-axis count must be >= 2, got {self.per_axis}")
        if not np.any(np.all(pts == 0.0, axis=1)):
            raise ConfigError("frequency grid must contain the origin")
        forward = pts[np.lexsort(pts.T)]
        backward = (-pts)[np.lexsort((-pts).T)]
        if not np.array_equal(forward, backward):
            raise ConfigError("frequency grid must be symmetric under negation")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def half_points(self) -> np.ndarray:
        """One point of each +/-gamma pair, the one whose first nonzero
        coordinate is positive, plus the origin."""
        pts = self.points
        lead = pts[np.arange(pts.shape[0]), np.argmax(pts != 0.0, axis=1)]
        return pts[lead >= 0.0]  # lead is +/-0.0 only at the origin

    @property
    def p(self) -> int:
        return self.points.shape[1]

    def summary(self) -> dict:
        return {
            "size": self.size,
            "bound": self.bound,
            "per_axis": self.per_axis,
            "standardized_covariates": True,
        }


def _halton(count: int, base: int) -> np.ndarray:
    """Points 1..count of the van der Corput sequence in ``base``."""
    index = np.arange(1, count + 1)
    f, r = 1.0, np.zeros(count)
    while index.any():
        f /= base
        r += f * (index % base)
        index //= base
    return r


@functools.lru_cache(maxsize=64)
def gamma_grid(
    p: int, bound: float = DEFAULT_GRID_BOUND, per_axis: int = DEFAULT_GRID_PER_AXIS
) -> GammaGrid:
    """Default frequency grid on [-bound, bound]^p.

    The axis holds the origin plus floor(per_axis / 2) equispaced points
    mirrored exactly about zero (an even request is bumped to the next odd
    count so the origin is present).  Dense product grid while it stays
    within MAX_DENSE_POINTS; beyond that, the origin plus 1000
    quasi-random (Halton) point pairs +/- q, which keeps the grid
    symmetric and has no per-axis count (``per_axis`` None); no axis is
    built then.  The grid is cached per (p, bound, per_axis) and its
    points are read-only.
    """
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    if p > len(_PRIMES):
        raise ConfigError(f"dimension {p} exceeds the supported maximum {len(_PRIMES)}")
    if not math.isfinite(bound):
        raise ConfigError(f"grid bound must be finite, got {bound}")
    half_count = max(per_axis // 2, 0)  # GammaGrid refuses a count below 2
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
    points.setflags(write=False)
    return GammaGrid(points=points, bound=float(bound), per_axis=per_axis)


@dataclass(frozen=True)
class BootstrapConfig:
    m: int = DEFAULT_BOOT_M
    alpha: float = DEFAULT_ALPHA
    seed: int = 0

    def __post_init__(self):
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
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class OmnibusReport:
    t_tilde: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    m: int
    seed: int
    h: float
    n: int
    grid: dict
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "test": "omnibus",
            "statistic": self.t_tilde,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": bool(self.reject),
            "calibration": f"bootstrap-m={self.m}",
            "m": self.m,
            "seed": self.seed,
            "h": self.h,
            "n": self.n,
            "weight_kinds": ["cf"],
            "grid": dict(self.grid),
            "diagnostics": dict(self.diagnostics),
        }


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
    """Zero-mean, unit-variance columns; constant columns are left at scale 1."""
    x = np.asarray(x, dtype=float)
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (x - mu) / sd


def bootstrap_critical_value(replicate_values, alpha: float) -> float:
    """The floor((1 - alpha) m)-th ascending order statistic.  The 1e-9 stops
    binary rounding from putting a whole (1 - alpha) m one below: at m = 500,
    alpha = 0.07 the product is 464.99999999999994, and the 465th is meant."""
    values = np.sort(np.asarray(replicate_values, dtype=float))
    k = math.floor((1.0 - alpha) * values.size + 1e-9)
    if k < 1:
        raise ConfigError(
            f"(1 - alpha) * m is below 1 (m={values.size}, alpha={alpha})"
        )
    return float(values[k - 1])


def _multipliers(seed: int, m: int, n_int: int) -> np.ndarray:
    """Rows r = 0..m-1 of ``default_rng([seed, r]).standard_normal(n_int)``,
    bit for bit, as one (m, n_int) matrix.

    Building m ``SeedSequence`` objects costs more than drawing from them:
    NumPy exposes its seed hash one Python object per stream.  This runs the
    same published algorithm (hash the entropy words [seed words..., r] into
    a pool of four, mix the pool, hash it out to four 64-bit words) over
    uint32 arrays holding every r at once; a test pins it bit for bit to
    NumPy.  The seed takes at most two words and r one, so the entropy never
    overflows the pool.  PCG64's own code then seeds each stream from its
    words.
    """
    # numpy.random loads on first use here, which keeps ``import sicheck`` light
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class PresetWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    seed, const = int(seed), _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(16))

    entropy = [np.full(m, seed >> shift & _MASK32, dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(m, dtype=np.uint32))
    entropy += [np.zeros(m, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = np.empty((m, 2 * _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words[:, i] = value ^ (value >> np.uint32(16))
    words = words.astype("<u4").view("<u8").astype(np.uint64)  # (m, 4)
    e = np.empty((m, n_int))
    for r in range(m):
        Generator(PCG64(PresetWords(words[r]))).standard_normal(out=e[r])
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
    z = standardize_columns(data.x)
    if grid is None:
        grid = gamma_grid(data.p)
    if grid.p != data.p:
        raise DataError(
            f"grid dimension {grid.p} does not match covariate dimension {data.p}"
        )
    core = residual_core(data, fit, cfg, margin=SUP_INTERIOR_MARGIN)
    eps = core.eps[core.keep]
    n_int = eps.size
    half = grid.half_points
    # per complex column: the weights, their slot-binned copy and gathered
    # fits (n each), the spectrum and its inverse (each below 2.31 n: the
    # padded length fft_length(n + r) is at most 1.154 (n + r), and r < n),
    # and the replicate products (m)
    column_bytes = 16 * (8 * data.n + boot.m)
    width = max(1, CHUNK_BYTES // column_bytes)
    t_max = 0.0
    reps = np.zeros(boot.m)
    e = None
    for start in range(0, half.shape[0], width):
        try:
            with np.errstate(over="raise", invalid="raise"):
                phases = z @ half[start:start + width].T
        except FloatingPointError:
            raise ConfigError(f"grid bound {grid.bound} overflows the phases gamma'z") from None
        summands = core.centered(np.exp(1j * phases))
        summands *= eps[:, None]
        t_max = max(t_max, float(np.abs(summands.sum(axis=0)).max()))
        if e is None:  # drawn once the first block's FFT workspace is freed
            e = _multipliers(boot.seed, boot.m, n_int)
        prod = e @ summands.view(float)  # real and imaginary parts interleaved
        np.maximum(reps, np.hypot(prod[:, 0::2], prod[:, 1::2]).max(axis=1), out=reps)
    scale = math.sqrt(n_int)
    t_tilde = t_max / scale
    reps /= scale
    critical = bootstrap_critical_value(reps, boot.alpha)
    p_value = (1 + int(np.count_nonzero(reps >= t_tilde))) / (boot.m + 1)
    return OmnibusReport(
        t_tilde=t_tilde,
        critical_value=critical,
        p_value=p_value,
        reject=bool(t_tilde >= critical),
        alpha=boot.alpha,
        m=boot.m,
        seed=boot.seed,
        h=cfg.h,
        n=data.n,
        grid=grid.summary(),
        diagnostics=core.diagnostics,
    )
