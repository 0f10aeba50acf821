import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sicheck import (
    BootstrapConfig,
    ConfigError,
    DataError,
    Dataset,
    GammaGrid,
    SmootherConfig,
    bootstrap_critical_value,
    cf_process,
    fit_from_direction,
    fit_index_ols,
    gamma_grid,
    omnibus_test,
    standardize_columns,
)
from sicheck import omnibus
from sicheck.omnibus import SUP_INTERIOR_MARGIN
from sicheck.smoother import DEFAULT_ALPHA, Block, LatticeSmoother, residual_core

from helpers import brute_cf, brute_multiplier_sup, brute_residuals, brute_smoothed


def pipeline_data(rng, n=40, p=2):
    x = rng.standard_normal((n, p))
    y = (x @ np.resize([1.0, -1.0], p) / np.sqrt(p)) ** 3 + rng.standard_normal(n)
    data = Dataset(x=x, y=y)
    return data, fit_index_ols(data)


def test_default_grid_contains_origin_and_is_symmetric():
    grid = gamma_grid(2)
    assert grid.size == 49
    assert np.any(np.all(grid.points == 0.0, axis=1))
    as_set = {tuple(row) for row in grid.points}
    assert {tuple(-row) for row in grid.points} == as_set


def test_grid_even_per_axis_gains_origin():
    grid = gamma_grid(1, per_axis=6)
    assert np.any(grid.points == 0.0)
    assert grid.size == 7


def test_grid_noninteger_bound_symmetric():
    grid = gamma_grid(2, bound=2.5, per_axis=7)
    assert grid.size == 49


def test_grid_high_dimension_quasirandom():
    grid = gamma_grid(5)
    assert grid.size == 2001
    assert np.all(np.abs(grid.points) <= 3.0)
    as_set = {tuple(row) for row in grid.points}
    assert {tuple(-row) for row in grid.points} == as_set


@pytest.mark.parametrize("p, per_axis", [(1, 10**6), (2, 51)])
def test_grid_finer_than_dense_limit_has_no_per_axis_count(p, per_axis):
    # the quasi-random grid claims no per-axis count, and no axis of the
    # requested size is built before the grid falls back to it
    grid = gamma_grid(p, 3.0, per_axis)
    assert grid.size == 2001 and grid.per_axis is None
    assert grid.summary()["per_axis"] is None
    assert gamma_grid(2, 3.0, 7).summary()["per_axis"] == 7


def _halton_point(index, base):
    """The per-point van der Corput loop the vectorised grid must reproduce."""
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


@pytest.mark.parametrize("p", [5, 25])
def test_quasirandom_grid_is_bit_identical_to_point_loop(p):
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97)
    half = np.array([[_halton_point(i, primes[k]) for k in range(p)] for i in range(1, 1001)])
    half = (2.0 * half - 1.0) * 3.0
    expected = np.vstack([np.zeros((1, p)), half, -half])
    grid = gamma_grid(p)
    assert grid.points.shape == expected.shape
    assert grid.points.tobytes() == expected.tobytes()


def test_grid_is_cached_and_read_only():
    assert gamma_grid(5, 3.0, 7) is gamma_grid(5, 3.0, 7)
    assert gamma_grid(3) is gamma_grid(3, 3.0, 7) is gamma_grid(3, bound=3.0, per_axis=7)
    assert gamma_grid(2, 2.0, 5) is not gamma_grid(2, 2.0, 7)
    assert isinstance(gamma_grid(2), GammaGrid)
    for p in (2, 5):
        with pytest.raises(ValueError):
            gamma_grid(p).points[0, 0] = 1.0
        with pytest.raises(ValueError):
            gamma_grid(p).half_points[0, 0] = 1.0


def test_grid_validation():
    with pytest.raises(ConfigError):
        gamma_grid(0)
    with pytest.raises(ConfigError):
        gamma_grid(2, bound=0.0)
    with pytest.raises(ConfigError, match="grid bound must be finite"):
        gamma_grid(2, bound=np.inf)
    with pytest.raises(ConfigError):
        gamma_grid(2, per_axis=1)


def test_cf_process_at_origin(rng):
    eps = rng.standard_normal(9)
    x = rng.standard_normal((9, 2))
    val = cf_process(eps, x, np.zeros(2))
    assert val.imag == pytest.approx(0.0)
    assert val.real == pytest.approx(eps.sum() / 3.0)


def test_cf_process_conjugate_symmetry(rng):
    eps = rng.standard_normal(7)
    x = rng.standard_normal((7, 3))
    g = np.array([0.4, -1.1, 2.0])
    assert cf_process(eps, x, -g) == pytest.approx(np.conj(cf_process(eps, x, g)))


def test_cf_process_single_point_modulus():
    val = cf_process([1.0], np.array([[0.3, -2.0]]), np.array([1.5, 0.7]))
    assert abs(val) == pytest.approx(1.0)


def test_cf_process_matches_brute(rng):
    for _ in range(50):
        n, p = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        eps = rng.standard_normal(n)
        x = rng.standard_normal((n, p))
        g = rng.standard_normal(p)
        assert cf_process(eps, x, g) == pytest.approx(brute_cf(eps, x, g), rel=1e-12)


def test_cf_process_shape_mismatch(rng):
    with pytest.raises(DataError):
        cf_process(np.ones(3), np.ones((4, 2)), np.ones(2))


def zero_response_report(rng):
    x = rng.standard_normal((20, 2))
    data = Dataset(x=x, y=np.zeros(20))
    fit = fit_from_direction(data, np.ones(2))
    return omnibus_test(data, fit, SmootherConfig(h=0.1), BootstrapConfig(m=100, seed=3))


def test_sup_statistic_zero_residuals(rng):
    assert zero_response_report(rng).statistic == 0.0


def test_sup_statistic_origin_column(rng):
    # at gamma = 0 the weights are 1, centered by their own smooth; the origin
    # column of the library's full-grid summands matches the explicit loops,
    # and the sup covers it
    data, fit = pipeline_data(rng, n=30)
    h = 0.1
    cfg = SmootherConfig(h=h)
    grid = gamma_grid(2)
    rep = omnibus_test(data, fit, cfg, BootstrapConfig(m=100), grid)
    core = residual_core(data, fit, cfg, margin=SUP_INTERIOR_MARGIN)
    origin = np.flatnonzero(np.all(grid.points == 0.0, axis=1))
    assert origin.size == 1
    weights = np.exp(1j * (standardize_columns(data.x) @ grid.points[origin].T))
    column = core.eps[core.keep] * core.centered(weights)[:, 0]
    u = fit.ranks_u
    eps = brute_residuals(data.y, u, h)
    centered = 1.0 - brute_smoothed(np.ones(30), u, h)
    keep = (u > 3 * h) & (u <= 1 - 3 * h + 1e-12)
    expected = abs((eps * centered)[keep].sum()) / np.sqrt(keep.sum())
    assert abs(column.sum()) / np.sqrt(column.size) == pytest.approx(expected, rel=1e-12)
    assert rep.statistic >= expected * (1 - 1e-12)


def _sorted_rows(pts):
    return pts[np.lexsort(pts.T)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5], ids=["p1", "p2", "p3", "p4", "p5-halton"])
def test_half_points_pair_every_frequency_with_its_negation(p):
    # the p = 5 Halton grid holds 0.0 in half its pairs and -0.0 in the other
    grid = gamma_grid(p)
    half = grid.half_points
    assert 2 * half.shape[0] - 1 == grid.size
    origin = np.all(half == 0.0, axis=1)
    assert origin.sum() == 1
    both = np.vstack([half, -half[~origin]])
    assert np.array_equal(_sorted_rows(both), _sorted_rows(grid.points))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_half_points_keep_the_grid_order(p):
    # the documented rule, point by point: the origin and every point whose
    # first nonzero coordinate is positive, in the order of the full grid
    grid = gamma_grid(p)
    kept = [row for row in grid.points if all(row == 0.0) or row[np.flatnonzero(row)[0]] > 0.0]
    assert grid.half_points.tobytes() == np.array(kept).tobytes()


def test_sup_statistic_half_grid_lossless(rng):
    # the sup and every replicate sup over the full grid, from the library
    # smoother, against omnibus_test, which evaluates half the grid
    data, fit = pipeline_data(rng, n=200, p=3)
    cfg = SmootherConfig(h=0.1)
    boot = BootstrapConfig(m=100, seed=4)
    grid = gamma_grid(3)
    rep = omnibus_test(data, fit, cfg, boot, grid)
    core = residual_core(data, fit, cfg, margin=SUP_INTERIOR_MARGIN)
    eps = core.eps[core.keep]
    summands = eps[:, None] * core.centered(np.exp(1j * (standardize_columns(data.x) @ grid.points.T)))
    scale = np.sqrt(eps.size)
    assert rep.statistic == pytest.approx(np.abs(summands.sum(axis=0)).max() / scale, rel=1e-12)
    reps = [
        np.abs(np.random.default_rng([4, r]).standard_normal(eps.size) @ summands).max() / scale
        for r in range(boot.m)
    ]
    assert rep.critical_value == pytest.approx(bootstrap_critical_value(reps, 0.05), rel=1e-12)
    assert rep.p_value == (1 + sum(v >= rep.statistic for v in reps)) / (boot.m + 1)


@given(m=st.integers(100, 5000), first=st.integers(1, 100), fit=st.integers(0, 3000))
def test_row_blocks_tile_the_rows_within_the_budget(m, first, fit):
    # the early blocks start at `first` rows and no block is wider than the
    # budget's own partition allows
    blocks = omnibus._row_blocks(m, first, fit)
    widest = max(hi - lo for lo, hi in omnibus._blocks(m, fit))
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == m
    assert all(0 < hi - lo <= widest for lo, hi in blocks)
    if first < widest:
        assert blocks[0] == (0, first)


def test_one_column_chunks_match_one_chunk(rng, monkeypatch):
    # under a one-byte budget each FFT pass smooths one column; at m = 200 the
    # p = 3 grid's 172 half-grid columns outweigh E, which is held while they
    # stream in blocks of MIN_BLOCK, and the p = 2 grid's 25 are held while E
    # streams in blocks of MIN_BLOCK rows
    for p in (3, 2):
        data, fit = pipeline_data(rng, n=300, p=p)
        args = (data, fit, SmootherConfig(h=0.1), BootstrapConfig(m=200, seed=8))
        monkeypatch.setattr(omnibus, "WORKSPACE_BYTES", 64 << 20)
        whole = omnibus_test(*args)
        monkeypatch.setattr(omnibus, "WORKSPACE_BYTES", 1)
        split = omnibus_test(*args)
        assert split.statistic == pytest.approx(whole.statistic, rel=1e-12)
        assert split.critical_value == pytest.approx(whole.critical_value, rel=1e-12)
        assert (split.p_value, split.reject) == (whole.p_value, whole.reject)
        assert split.diagnostics == whole.diagnostics


def _block(rng, n, p, count, tied=False):
    """A block of ``count`` pipeline datasets at h = 0.1, their covariates
    rounded to 0.5 when ``tied`` is set."""
    x, y = [], []
    for _ in range(count):
        data, _ = pipeline_data(rng, n=n, p=p)
        x.append(np.round(2.0 * data.x) / 2.0 if tied else data.x)
        y.append(data.y)
    slots = [fit_index_ols(Dataset(x=xb, y=yb)).slots for xb, yb in zip(x, y)]
    return Block(np.stack(x), np.stack(y), np.stack(slots), np.full(count, 0.1))


def _part(block, lo, hi):
    return Block(block.x[lo:hi], block.y[lo:hi], block.slots[lo:hi], block.h[lo:hi])


def _statistics_and_sups(block, m, first=0):
    """Each dataset's statistic and replicate sups, as its report sees them;
    dataset b runs m replicates from seed first + b."""
    def collect(runs, *_):
        runs = list(runs)
        return runs[0][0], np.concatenate([sups for _, sups in runs])

    seeds = range(first, first + len(block.x))
    return omnibus._per_dataset(block, m, DEFAULT_ALPHA, seeds, None, collect)


def test_a_block_builds_one_smoother(rng, monkeypatch):
    # the block's residual core also smooths every dataset's frequency
    # columns: at p = 2 each dataset holds its summands (2K = 50 <= m), at
    # p = 3 it holds E (2K = 344 > 100) or, at m = 400, its summands
    built = []
    init = LatticeSmoother.__init__

    def counting(self, slots, h):
        built.append(np.shape(slots))
        init(self, slots, h)

    monkeypatch.setattr(LatticeSmoother, "__init__", counting)
    for p, m in ((2, 100), (3, 100), (3, 400)):
        block = _block(rng, 80, p, 5)
        for run in (omnibus.omnibus_reports, omnibus.omnibus_decisions):
            built.clear()
            run(block, m, DEFAULT_ALPHA, range(5))
            assert built == [(5, 80)]


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
def test_held_multipliers_and_held_summands_agree(rng, tied):
    # at p = 3 (K = 172) m = 343 holds E while the summands stream by
    # columns, and m = 344 holds the summands while E streams by rows; replicate
    # r draws the same stream either way, so each dataset's statistic and first
    # 343 sups agree, alone and in a block of four
    assert gamma_grid(3).half_points.shape[0] == 172
    block = _block(rng, 150, 3, 4, tied)
    assert any(np.unique(row).size < 150 for row in block.slots) == tied
    held_e = _statistics_and_sups(block, 343)
    runs = [_statistics_and_sups(block, 344)]
    for m in (343, 344):
        runs.append([_statistics_and_sups(_part(block, b, b + 1), m, b)[0] for b in range(4)])
    for run in runs:
        for (t, sups), (t_e, sups_e) in zip(run, held_e):
            assert t == pytest.approx(t_e, rel=1e-12)
            assert sups[:343] == pytest.approx(sups_e, rel=1e-12)


def _omnibus_peak(data, fit, m):
    tracemalloc.start()
    try:
        omnibus_test(data, fit, SmootherConfig(h=0.05), BootstrapConfig(m=m))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_omnibus_memory_does_not_grow_with_m():
    # E alone would be 8 m n_int bytes: 5.6 MB at m = 100 and 56 MB at m = 1000
    rng = np.random.default_rng(21)
    data, fit = pipeline_data(rng, n=10_000, p=2)
    assert _omnibus_peak(data, fit, 1000) <= 1.25 * _omnibus_peak(data, fit, 100)


@pytest.mark.parametrize(
    "n, p, m, count",
    [(50, 3, 500, 4), (600, 3, 500, 4), (50, 4, 100, 4), (50, 4, 500, 4), (50, 1, 100, 4),
     (50, 5, 500, 4), (50, 4, 500, 29)],
    ids=["p3-held-summands", "p3-n600", "p4-held-multipliers", "p4-m500", "p1",
         "p5-quasi-random", "p4-block-of-29"])
def test_a_dataset_is_computed_as_in_its_block_of_one(n, p, m, count):
    # bit for bit: at p = 4 BLAS rounds a few phases gamma'z by the width of
    # the product that holds them, so a block takes them in the passes of a
    # block of one, and its column blocks do not depend on its size; at
    # n = 600 a block of one takes 54 columns a pass and a block of four 13.
    # p = 5 is the quasi-random grid (K = 1001), so its datasets hold E at m = 500
    for seed in range(3):
        block = _block(np.random.default_rng(seed), n, p, count)
        for b, (t, sups) in enumerate(_statistics_and_sups(block, m)):
            alone, alone_sups = _statistics_and_sups(_part(block, b, b + 1), m, b)[0]
            assert t == alone
            assert np.array_equal(sups, alone_sups)


def test_a_block_holding_every_multiplier_matrix_stays_bounded():
    # a simulate-sized block of 29 at n = 50 and p = 4 holds every dataset's
    # E (2K = 2402 > m = 500) while their summands stream by columns in step
    block = _block(np.random.default_rng(5), 50, 4, 29)
    tracemalloc.start()
    try:
        reports = omnibus.omnibus_reports(block, 500, DEFAULT_ALPHA, range(29))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 29
    assert peak < 16 * 2**20


def test_dense_p4_grid_memory_is_bounded():
    # the full 10^4 x 2401 complex frequency stack alone would be 384 MB
    rng = np.random.default_rng(12)
    x = rng.standard_normal((10_000, 4))
    data = Dataset(x=x, y=np.sin(x.sum(axis=1)) + rng.standard_normal(10_000))
    fit = fit_index_ols(data)
    tracemalloc.start()
    try:
        rep = omnibus_test(data, fit, SmootherConfig(h=0.05), BootstrapConfig(m=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.grid["size"] == 2401
    assert np.isfinite(rep.p_value)
    assert peak < 256 * 2**20


def test_sup_bounded_by_absolute_residual_sum(rng):
    eps = rng.standard_normal(15)
    x = rng.standard_normal((15, 2))
    grid = gamma_grid(2)
    bound = np.abs(eps).sum() / np.sqrt(15)
    vals = np.abs(eps @ np.exp(1j * (x @ grid.points.T))) / np.sqrt(15)
    assert np.all(vals <= bound + 1e-12)


def test_bootstrap_replicate_zero_cases(rng):
    # vanishing residuals make every replicate zero as well
    rep = zero_response_report(rng)
    assert rep.critical_value == 0.0
    assert rep.p_value == 1.0


def brute_omnibus(data, fit, h, grid, boot):
    """(t_tilde, n_interior, critical value, p-value) from the explicit loops."""
    u = fit.ranks_u
    eps = brute_residuals(data.y, u, h)
    z = (data.x - data.x.mean(axis=0)) / data.x.std(axis=0)
    w = np.exp(1j * (z @ grid.points.T))
    centered = np.column_stack(
        [w[:, k] - brute_smoothed(w[:, k], u, h) for k in range(grid.size)]
    )
    keep = [j for j in range(data.n) if 3 * h < u[j] <= 1 - 3 * h + 1e-12]
    if len(keep) < 5:
        keep = list(range(data.n))
    eps, centered = eps[keep], centered[keep]
    t_tilde = brute_multiplier_sup(eps, centered, np.ones(len(keep)))
    reps = sorted(
        brute_multiplier_sup(
            eps, centered, np.random.default_rng([boot.seed, r]).standard_normal(len(keep))
        )
        for r in range(boot.m)
    )
    # the largest count c of replicates at or above t with (1 + c) / (m + 1) <= alpha
    c = math.floor(Fraction(str(boot.alpha)) * (boot.m + 1)) - 1
    critical = reps[boot.m - 1 - c]
    p_value = (1 + sum(v >= t_tilde for v in reps)) / (boot.m + 1)
    return t_tilde, len(keep), critical, p_value


def test_omnibus_matches_brute_force(rng):
    grid = gamma_grid(2)
    # (n, h, interior count); the first falls back to all observations
    for n, h, n_interior in ((20, 0.16, 20), (30, 0.1, 12), (40, 0.05, 28)):
        data, fit = pipeline_data(rng, n=n)
        boot = BootstrapConfig(m=100, alpha=0.05, seed=n)
        rep = omnibus_test(data, fit, SmootherConfig(h=h), boot, grid)
        t_tilde, n_int, critical, p_value = brute_omnibus(data, fit, h, grid, boot)
        assert n_int == n_interior
        assert rep.diagnostics["n_interior"] == n_int
        assert rep.statistic == pytest.approx(t_tilde, rel=1e-12)
        assert rep.critical_value == pytest.approx(critical, rel=1e-12)
        assert rep.p_value == pytest.approx(p_value, rel=1e-12)
        assert rep.reject == (p_value <= boot.alpha) == (t_tilde > critical)


def test_bootstrap_replicate_two_point_hand_case():
    # the multiplier-sup oracle above, on one frequency; centered weights i
    # and 1; multipliers (1, -1)
    eps = np.array([1.0, 2.0])
    centered = np.array([[1j], [1.0 + 0.0j]])
    out = brute_multiplier_sup(eps, centered, np.array([1.0, -1.0]))
    # |1*1*i + (-1)*2*1| / sqrt(2) = |(-2 + i)| / sqrt(2)
    assert out == pytest.approx(np.sqrt(5.0) / np.sqrt(2.0))


def test_bootstrap_critical_value_order_statistic():
    # p = (1 + #{r >= t}) / 1001 <= 0.05 allows 49 replicates at or above t:
    # t must exceed the 951st smallest
    values = np.arange(1.0, 1001.0)
    assert bootstrap_critical_value(values, 0.05) == 951.0
    assert (1 + np.count_nonzero(values >= 951.5)) / 1001 <= 0.05
    assert (1 + np.count_nonzero(values >= 951.0)) / 1001 > 0.05
    # at m = 10 and alpha = 0.05 even p = 1/11 is above alpha
    with pytest.raises(ConfigError):
        bootstrap_critical_value(values[:10], 0.05)
    assert bootstrap_critical_value(values[:10], 0.999) == 1.0


def test_bootstrap_critical_value_counts_exact_decimal_levels():
    # alpha (m + 1) in binary can round off a whole number; the count is the
    # floor of the exact decimal product, less one
    for m in (170, 500, 1000, 20000, *range(100, 1000, 37)):
        values = np.arange(1.0, m + 1.0)
        for step in range(1, 100):
            alpha = step / 100
            c = math.floor(Fraction(str(alpha)) * (m + 1)) - 1
            if c >= 0:
                assert bootstrap_critical_value(values, alpha) == float(m - c), (m, alpha)
    assert bootstrap_critical_value(np.arange(1.0, 100.0), 0.05) == 95.0
    assert bootstrap_critical_value(np.arange(1.0, 501.0), 0.07) == 466.0
    assert bootstrap_critical_value(np.arange(1.0, 171.0), 0.3) == 120.0


def test_bootstrap_config_validation():
    with pytest.raises(ConfigError):
        BootstrapConfig(m=50)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=100, alpha=0.005)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=200, alpha=1.2)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=200, seed=-1)


@pytest.mark.parametrize("field", ["m", "seed"])
def test_bootstrap_config_refuses_a_non_integral_count_or_seed(field):
    # a NumPy integer is read as a Python int; a float or a bool is refused
    assert type(getattr(BootstrapConfig(**{field: np.int64(200)}), field)) is int
    for value in (200.0, 3.5, True, "200"):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}"):
            BootstrapConfig(**{field: value})


@pytest.mark.parametrize("field", ["p", "per_axis"])
def test_grid_refuses_a_non_integral_dimension_or_axis_count(field):
    # a NumPy integer is read as a Python int; a float, None or a bool is refused
    settings = {"p": 2, "bound": 3.0, "per_axis": 7}
    grid = gamma_grid(*dict(settings, **{field: np.int64(settings[field])}).values())
    assert type(getattr(grid, field)) is int
    for value in (3.0, 7.5, None, False):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            GammaGrid(**dict(settings, **{field: value}))
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            gamma_grid(*dict(settings, **{field: value}).values())


@pytest.mark.parametrize("seeds, message", [
    ([0, -1], "seed must be an unsigned 64-bit integer, got -1"),
    ([0, 2**64], "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
    ([0, 1.5], "seed must be an integer, got 1.5"),
    ([0], "a block of 2 datasets takes 2 seeds, got 1"),
])
def test_omnibus_blocks_refuse_seeds_outside_64_bits_or_one_per_dataset(rng, seeds, message):
    block = _block(rng, 50, 2, 2)
    for run in (omnibus.omnibus_reports, omnibus.omnibus_decisions):
        with pytest.raises(ConfigError, match=message):
            run(block, 100, DEFAULT_ALPHA, seeds)


def test_bootstrap_config_refuses_more_streams_than_one_seed_word():
    BootstrapConfig(m=2**32)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=2**32 + 1)


def _stream_rows(seed, m, n):
    return np.stack([np.random.default_rng([seed, r]).standard_normal(n) for r in range(m)])


_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)


@pytest.mark.parametrize(
    "seed, lo, hi",
    [pytest.param(seed, 0, m, id=f"{seed}-{m}") for seed in _SEEDS for m in (1, 100, 1000)]
    + [pytest.param(seed, lo, hi, id=f"{seed}-{lo}:{hi}")
       for seed in (0, 2**64 - 1) for lo, hi in ((1, 2), (37, 140), (999, 1000))],
)
def test_multipliers_are_the_default_rng_streams(seed, lo, hi):
    e = omnibus._multipliers(omnibus._stream_words([seed], lo, hi)[0], 5)
    assert e.shape == (hi - lo, 5)
    assert e.tobytes() == _stream_rows(seed, hi, 5)[lo:].tobytes()


@settings(max_examples=30)
@given(seed=st.integers(0, 2**64 - 1), m=st.sampled_from([1, 100, 1000]))
def test_multipliers_are_the_default_rng_streams_for_any_seed(seed, m):
    e = omnibus._multipliers(omnibus._stream_words([seed], 0, m)[0], 3)
    assert e.tobytes() == _stream_rows(seed, m, 3).tobytes()


def test_one_hash_seeds_the_streams_of_seeds_of_one_and_two_words():
    # a seed below 2^32 is one entropy word, one at or above it two
    seeds = [0, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1]
    words = omnibus._stream_words(seeds, 3, 40)
    assert words.shape == (len(seeds), 37, 4)
    for seed, rows in zip(seeds, words):
        assert omnibus._multipliers(rows, 5).tobytes() == _stream_rows(seed, 40, 5)[3:].tobytes()


def test_standardize_columns(rng):
    x = rng.standard_normal((30, 3)) * np.array([2.0, 0.5, 7.0]) + np.array([1.0, -4.0, 0.0])
    z = standardize_columns(x)
    assert z.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-12)
    assert z.std(axis=0) == pytest.approx(np.ones(3))
    const = np.column_stack([np.ones(10), np.arange(10.0)])
    zc = standardize_columns(const)
    assert zc[:, 0] == pytest.approx(np.zeros(10))


def test_omnibus_deterministic(rng):
    data, fit = pipeline_data(rng)
    cfg = SmootherConfig(h=0.25)
    boot = BootstrapConfig(m=150, alpha=0.05, seed=99)
    a = omnibus_test(data, fit, cfg, boot)
    b = omnibus_test(data, fit, cfg, boot)
    assert a.statistic == b.statistic
    assert a.critical_value == b.critical_value
    assert a.p_value == b.p_value
    assert a.reject == b.reject


def test_overflowing_sums_are_refused_naming_h(rng):
    # at n h <= 1 the bandwidth is refused before the tied slot mates, weighted
    # K(0) / ((n - 1) h), can push the sums past the float range
    x = np.rint(rng.standard_normal((200, 2)))
    data = Dataset(x=x, y=(x @ np.ones(2)) ** 3 + rng.standard_normal(200))
    with pytest.raises(DataError, match="h=1e-300"):
        omnibus_test(data, fit_index_ols(data), SmootherConfig(h=1e-300), BootstrapConfig(m=100))


def test_omnibus_report_contract(rng):
    data, fit = pipeline_data(rng)
    boot = BootstrapConfig(m=150, alpha=0.05, seed=5)
    rep = omnibus_test(data, fit, SmootherConfig(h=0.25), boot)
    assert 0.0 < rep.p_value <= 1.0
    assert rep.statistic >= 0.0
    assert rep.m == 150 and rep.seed == 5
    assert rep.grid["size"] == 49
    assert rep.grid["standardized_covariates"] is True
    js = rep.to_json_dict()
    assert js["calibration"] == "bootstrap-m=150"
    assert js["weight_kinds"] == ["cf"]
    assert "n_interior" in js["diagnostics"]


def test_omnibus_pvalue_convention(rng):
    data, fit = pipeline_data(rng)
    boot = BootstrapConfig(m=120, alpha=0.05, seed=11)
    rep = omnibus_test(data, fit, SmootherConfig(h=0.25), boot)
    assert rep.p_value * (boot.m + 1) == pytest.approx(round(rep.p_value * (boot.m + 1)))


def test_omnibus_grid_dimension_mismatch(rng):
    data, fit = pipeline_data(rng)
    boot = BootstrapConfig(m=120, alpha=0.05, seed=1)
    with pytest.raises(DataError):
        omnibus_test(data, fit, SmootherConfig(h=0.25), boot, grid=gamma_grid(3))


def test_multiplier_replicates_center_on_zero(rng):
    # sign-flip symmetry: per-frequency replicate values average near zero
    data, fit = pipeline_data(rng, n=30)
    cfg = SmootherConfig(h=0.3)
    from sicheck.smoother import loo_matrix

    s = loo_matrix(fit.ranks_u, cfg.h)
    eps = data.y - data.y @ s
    z = standardize_columns(data.x)
    g = np.array([0.8, -0.4])
    w = np.exp(1j * (z @ g))
    centered = w - w @ s
    m = 600
    draws = np.empty(m, dtype=complex)
    for r in range(m):
        e = np.random.default_rng([7, r]).standard_normal(30)
        draws[r] = (e * eps * centered).sum() / np.sqrt(30)
    sd = draws.real.std()
    assert abs(draws.real.mean()) < 3 * sd / np.sqrt(m)
