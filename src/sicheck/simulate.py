"""Synthetic data generators and the Monte Carlo rejection-rate harness.

Four generator families, each indexed by a departure size c (the null
model holds exactly when c = 0):

    cubic        y = (b'x)^3 + c sum|x_l| + e
    binary       y ~ Bernoulli(pi), pi = logistic(-b'x + c sum|x_l|)
    interaction  y = (b'x)^3 + c1|x1 x2| + c2|x1 x3| + c3|x2 x3| + e   (p = 3)
    bump         y = x1 + x2 + 4 exp(-(x1+x2)^2) + c sqrt(x1^2+x2^2) + e   (p = 2)

with x ~ N(0, I) and e ~ N(0, sigma_eps^2) independent of x; the binary
model has no additive noise and refuses a sigma_eps other than 1.

The harness runs a line's replicates in blocks of consecutive ones.
Replicate r draws from the stream (seed, r): x, then the response, then
the bootstrap seed of an omnibus check.  A block seeds its B streams from
one vectorised hash, each fills its rows of the block's x and noise
stacks, and the mean function computes every response in one pass.  The
block then runs ``run_block`` on its stacked datasets: one pass fits
every direction and ranks every projection, one batched search picks
every bandwidth (the kernel spectra of the pilot grid depend on n alone,
so the block shares them), and the check's ``run`` takes the whole block.
The checks live beside their tests, ``ScoreCheck`` and ``MaximinCheck`` in
``score_test`` and ``OmnibusCheck`` in ``omnibus``; this module binds all
three, so a check pickled under its name here still loads.
``sicheck check`` runs the same pipeline on one CSV, as a block of one
(``apply_check``).  Each replicate gets the pilot bandwidth and the report
it gets alone, so its result does not depend on the block it falls in,
and the rejection fraction, reported with its binomial standard error, is
identical under any thread count.  Block boundaries depend on n, the
check and r (``block_size``); a thread count is an upper bound, each
thread takes whole blocks, and a line with n below ``THREADED_MIN_N``
runs in the calling thread, since its blocks are too small to pay for
threads.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bandwidth import default_bandwidth_grid, search_rows, select_bandwidths
from .dataset import Dataset
from .exceptions import ConfigError, integer, number
from .index import fit_stack
from .omnibus import BootstrapConfig, OmnibusCheck, gamma_grid, stream_seed
from .omnibus import _generators, _stream_words
from .score_test import MaximinCheck, ScoreCheck
from .smoother import DEFAULT_ALPHA, Block, narrow_bandwidth
from .weights import WeightSpec


class ModelKind(enum.Enum):
    CUBIC = "cubic"
    BINARY = "binary"
    INTERACTION = "interaction"
    BUMP = "bump"


def default_beta(p: int) -> tuple[float, ...]:
    """Unit vector with alternating signs, (1, -1, 1, ...) / sqrt(p)."""
    if p < 1:
        raise ConfigError(f"dimension must be >= 1, got {p}")
    b = np.array([(-1.0) ** k for k in range(p)])
    return tuple(b / np.linalg.norm(b))


@dataclass(frozen=True)
class Scenario:
    model: ModelKind
    n: int
    p: int
    beta: tuple[float, ...] | None = None
    c: float = 0.0
    c_interaction: tuple[float, float, float] | None = None
    sigma_eps: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "p"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        for name in ("c", "sigma_eps"):
            object.__setattr__(self, name, number(name, getattr(self, name)))
        for name in ("beta", "c_interaction"):
            value = getattr(self, name)
            if value is None:
                continue
            if not np.iterable(value):
                raise ConfigError(f"{name} must be a sequence of numbers, got {value!r}")
            entries = tuple(number(f"{name}[{i}]", v) for i, v in enumerate(value))
            object.__setattr__(self, name, entries)
        object.__setattr__(self, "seed", stream_seed(self.seed))
        for name in ("c", "sigma_eps", "beta", "c_interaction"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.p < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.p}")
        if self.n <= self.p + 1:  # what fit_index_ols needs, for every check
            raise ConfigError(f"need n > p + 1 to fit the index, got n={self.n}, p={self.p}")
        if self.model is ModelKind.INTERACTION and self.p != 3:
            raise ConfigError("interaction model requires p = 3")
        if self.model is ModelKind.BUMP and self.p != 2:
            raise ConfigError("bump model requires p = 2")
        if not self.sigma_eps > 0:
            raise ConfigError(f"noise scale must be positive, got {self.sigma_eps}")
        if self.model is ModelKind.BINARY and self.sigma_eps != 1.0:
            raise ConfigError("binary model has no additive noise; sigma_eps does not apply")
        if self.model is ModelKind.BUMP:
            if self.beta is not None:
                raise ConfigError("bump model has a fixed mean function; beta does not apply")
        else:
            beta = self.beta if self.beta is not None else default_beta(self.p)
            beta = tuple(float(b) for b in beta)
            if len(beta) != self.p:
                raise ConfigError(
                    f"beta has dimension {len(beta)}, scenario has p={self.p}"
                )
            if abs(np.linalg.norm(beta) - 1.0) > 1e-6:
                raise ConfigError("beta must have unit Euclidean norm")
            object.__setattr__(self, "beta", beta)
        if self.c_interaction is not None:
            if self.model is not ModelKind.INTERACTION:
                raise ConfigError("c_interaction applies to the interaction model only")
            if self.c != 0.0:
                raise ConfigError(f"c_interaction replaces c; leave c out or 0, got c={self.c}")
            if len(self.c_interaction) != 3:
                raise ConfigError(f"c_interaction takes 3 values, got {len(self.c_interaction)}")

    @property
    def beta_vec(self) -> np.ndarray:
        return np.asarray(self.beta, dtype=float)

    @property
    def c_triple(self) -> tuple[float, float, float]:
        return self.c_interaction if self.c_interaction is not None else (self.c,) * 3


def cubic_mean(x, beta, c: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    proj = x @ np.asarray(beta, dtype=float)
    return proj**3 + c * np.abs(x).sum(axis=-1)


def binary_success_prob(x, beta, c: float) -> np.ndarray:
    """Success probability logistic(-b'x + c sum|x_l|), computed stably."""
    x = np.asarray(x, dtype=float)
    t = -(x @ np.asarray(beta, dtype=float)) + c * np.abs(x).sum(axis=-1)
    return np.exp(-np.logaddexp(0.0, -t))


def interaction_mean(x, beta, c_triple) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    c1, c2, c3 = c_triple
    proj = x @ np.asarray(beta, dtype=float)
    return (
        proj**3
        + c1 * np.abs(x[..., 0] * x[..., 1])
        + c2 * np.abs(x[..., 0] * x[..., 2])
        + c3 * np.abs(x[..., 1] * x[..., 2])
    )


def bump_mean(x, c: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    t = x[..., 0] + x[..., 1]
    return t + 4.0 * np.exp(-(t**2)) + c * np.sqrt((x**2).sum(axis=-1))


def generate(scn: Scenario, *, rng=None) -> Dataset:
    """Draw x ~ N(0, I), then the response; deterministic given the seed.

    ``rng`` defaults to ``default_rng(scn.seed)``.  A Monte Carlo block
    draws its replicates through the same code, one generator each.
    """
    rng = rng if rng is not None else np.random.default_rng(scn.seed)
    x, y = _draw(scn, [rng])
    return Dataset(x=x[0], y=y[0])


def _draw(scn: Scenario, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Covariates (B, n, p) and responses (B, n), one dataset per generator of
    ``rngs``: each draws its x, then the noise of its response (a uniform per
    row in the binary model); the mean function runs once over the stack."""
    x = np.empty((len(rngs), scn.n, scn.p))
    noise = np.empty((len(rngs), scn.n))
    binary = scn.model is ModelKind.BINARY
    for rng, x_rows, noise_rows in zip(rngs, x, noise):
        rng.standard_normal(out=x_rows)
        (rng.random if binary else rng.standard_normal)(out=noise_rows)
    if binary:
        return x, (noise < binary_success_prob(x, scn.beta_vec, scn.c)).astype(float)
    if scn.model is ModelKind.CUBIC:
        mean = cubic_mean(x, scn.beta_vec, scn.c)
    elif scn.model is ModelKind.INTERACTION:
        mean = interaction_mean(x, scn.beta_vec, scn.c_triple)
    else:
        mean = bump_mean(x, scn.c)
    return x, mean + scn.sigma_eps * noise


@dataclass(frozen=True, eq=False)
class MCResult:
    """What ``monte_carlo`` measured; the run's inputs stay with the caller."""

    rejection_rate: float
    mc_stderr: float


def mise_weight_values(check, x) -> np.ndarray:
    """Weight values W(x_i) that drive the bandwidth search for a check.

    A score check searches with its own weight; every other check (a
    maximin family, the omnibus test) with sum_l x_l^2.
    """
    if isinstance(check, ScoreCheck):
        return check.weight.evaluate(x)
    return WeightSpec.sum_squares().evaluate(x)


def validate_run(check, alpha: float, reps: int = 1, seed: int = 0, p: int | None = None,
                 n: int | None = None) -> None:
    """Raise ConfigError for a level, replicate count or seed the check
    cannot run with, an omnibus grid it cannot build at dimension
    ``p`` (when given), and, at sample size ``n`` (when given), grid phases
    that may overflow or a fixed ``h`` with n h <= 1 (``narrow_bandwidth``);
    touches no data, so a front end can call it before any work."""
    reps = integer("reps", reps)
    stream_seed(seed)
    if reps < 1:
        raise ConfigError(f"replications must be >= 1, got {reps}")
    if reps > 2**32:  # replicate r seeds its stream with one 32-bit word
        raise ConfigError(f"a line takes at most 2^32 replications, got {reps}")
    if not 0.0 < number("alpha", alpha) < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if n is not None and check.h is not None:
        reason = narrow_bandwidth(n, check.h)
        if reason is not None:
            raise ConfigError(reason)
    if isinstance(check, OmnibusCheck):
        BootstrapConfig(m=check.boot_m, alpha=alpha)
        if p is not None:
            gamma_grid(p, check.grid_bound, check.grid_per_axis)
            # standardized covariates satisfy |z_l| <= sqrt(n), so |gamma'z| <= p bound sqrt(n)
            if n is not None and not math.isfinite(p * check.grid_bound * math.sqrt(n)):
                raise ConfigError(f"grid bound {check.grid_bound} overflows the phases gamma'z")


def apply_check(data: Dataset, check, alpha: float, seed: int = 0):
    """Run one check on one dataset and return ``(report, h1)``: the block
    of one of ``run_block``."""
    reports, h1 = run_block(data.x[None], data.y[None], check, alpha, [seed])
    return reports[0], None if h1 is None else float(h1[0])


def run_block(x, y, check, alpha: float, seeds):
    """Run one check on each dataset of a stack, x (B, n, p) and y (B, n),
    and return its B reports and pilot bandwidths h1 (None when the check
    fixes ``h``).

    A check is any object with ``h``, ``label`` and ``run(block, alpha,
    seeds)``, which returns one report per dataset of a ``Block``; seed i
    seeds dataset i's omnibus bootstrap.  Fits the least-squares index of
    every dataset and picks each bandwidth by the MISE search unless the
    check fixes ``h``, in one pass over the stack.
    """
    block, h1 = _fitted_block(x, y, check)
    return check.run(block, alpha, seeds), h1


def decide_block(x, y, check, alpha: float, seeds) -> list[bool]:
    """The ``reject`` of each report of ``run_block``.  A check may also
    have ``decisions(block, alpha, seeds)``, which returns them
    without the rest of the reports; any other check decides through
    ``run``."""
    block, _ = _fitted_block(x, y, check)
    decisions = getattr(check, "decisions", None)
    if decisions is None:
        return [bool(report.reject) for report in check.run(block, alpha, seeds)]
    return [bool(reject) for reject in decisions(block, alpha, seeds)]


def _fitted_block(x, y, check):
    """The ``Block`` of a stack and its pilot bandwidths h1 (None when the
    check fixes ``h``)."""
    _, _, slots = fit_stack(x, y)
    h1, h = None, np.full(len(x), check.h)
    if check.h is None:
        h1, h = select_bandwidths(y, slots, mise_weight_values(check, x))
    return Block(x, y, slots, h), h1


def _draw_block(scn: Scenario, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Covariates (B, n, p), responses (B, n) and bootstrap seeds of replicates
    lo, ..., hi - 1.  Replicate r draws from the stream ``default_rng([seed,
    r])``: x, then the response, then its seed; one hash seeds every stream."""
    rngs = list(_generators(_stream_words([scn.seed], lo, hi)[0]))
    x, y = _draw(scn, rngs)
    return x, y, [int(rng.integers(2**63)) for rng in rngs]


def _block_rejects(scn: Scenario, check, alpha: float, lo: int, hi: int) -> list[bool]:
    """Decisions of replicates lo, ..., hi - 1, run as one block.  When the
    block fails, each replicate runs as a block of its own, so that the
    error names the first replicate that fails."""
    try:
        x, y, seeds = _draw_block(scn, lo, hi)
        return decide_block(x, y, check, alpha, seeds)
    except Exception as exc:
        if hi - lo == 1:
            raise RuntimeError(f"replicate {lo} failed for scenario {scn}: {exc}") from exc
        for r in range(lo, hi):
            _block_rejects(scn, check, alpha, r, r + 1)
        raise RuntimeError(
            f"replicates {lo} to {hi - 1} failed as one block for scenario {scn}: {exc}"
        ) from exc


def block_size(n: int, check) -> int:
    """Replicates per block of a line of size n running ``check``, at least one.

    An omnibus block, and every block of a line from ``THREADED_MIN_N`` up,
    holds as many replicates as one pass of the pilot search holds at every
    bandwidth (``search_rows``): an omnibus block holds min(16K, 8m) n_int +
    32m bytes of bootstrap per dataset, and a threaded line needs many
    blocks for its threads to split.  Any other block holds as many as one
    pass holds at ``PASS_BANDWIDTHS`` bandwidths: 176 at n = 50, 43 at
    n = 200 and 9 at n = 999.  A block's fixed cost (the stream hash and
    the batched fit, search and score sums: about 1 ms at n = 50, against
    60 us a replicate) then fades, while each search pass stays within the
    workspace.  On a 2-vCPU VM with BLAS on one thread (best of 5), a
    1000-replicate n = 50 score line took 97 ms at blocks of 29, 82 ms at
    50, 69-76 ms at 100 to 300 and 70-75 ms at 882, one bandwidth per
    pass; a 440-replicate n = 200 line took 189 ms at 7 and 108-123 ms at
    20 to 147.
    """
    grid = default_bandwidth_grid(n)
    wide = n >= THREADED_MIN_N or isinstance(check, OmnibusCheck)
    return max(1, search_rows(n, grid) // (grid.size if wide else PASS_BANDWIDTHS))


#: Bandwidths per search pass that size a serial score or maximin block
#: (``block_size``).
PASS_BANDWIDTHS = 5


#: Smallest line size n that runs on threads.  Below it a block is many
#: short Python and numpy calls that serialise on the GIL: on 2 vCPUs with
#: BLAS on one thread, 2 threads taking whole blocks ran score, maximin and
#: omnibus (m = 500) lines at n = 50 and 400 at 0.75 to 1.0 times serial
#: speed, at 1.0 to 1.35 times at n = 1000 and 1.4 to 1.7 times at
#: n = 2000 (the README gives the table).
THREADED_MIN_N = 1000


def monte_carlo(
    scn: Scenario, check, reps: int, alpha: float = DEFAULT_ALPHA, threads: int = 1
) -> MCResult:
    """Rejection rate of a check over ``reps`` seeded replicates at level
    ``alpha``, with its binomial standard error.

    The replicates run in blocks of ``block_size(scn.n, check)`` consecutive ones.
    ``threads`` caps the worker count, as do the block count and the CPU
    count; each worker takes whole blocks.  A line with ``scn.n`` below
    ``THREADED_MIN_N`` runs in the calling thread and starts no pool.  Any
    replicate-level failure aborts the run with the replicate index and
    scenario attached.
    """
    validate_run(check, alpha, reps, p=scn.p, n=scn.n)
    if integer("threads", threads) < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    size = block_size(scn.n, check)
    blocks = [(lo, min(lo + size, reps)) for lo in range(0, reps, size)]
    if scn.n < THREADED_MIN_N:
        threads = 1
    threads = min(threads, len(blocks), os.cpu_count() or 1)  # never more workers than CPUs

    def one(block) -> list[bool]:
        return _block_rejects(scn, check, alpha, *block)

    if threads == 1:
        parts = [one(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, blocks))
    rate = sum(map(sum, parts)) / reps
    return MCResult(rejection_rate=rate, mc_stderr=math.sqrt(rate * (1.0 - rate) / reps))
