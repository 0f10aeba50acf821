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
from sicheck.smoother import residual_core

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
    assert gamma_grid(2, 2.0, 5) is not gamma_grid(2, 2.0, 7)
    for p in (2, 5):
        with pytest.raises(ValueError):
            gamma_grid(p).points[0, 0] = 1.0


def test_grid_validation():
    with pytest.raises(ConfigError):
        gamma_grid(0)
    with pytest.raises(ConfigError):
        gamma_grid(2, bound=0.0)
    with pytest.raises(ConfigError, match="grid bound must be finite"):
        gamma_grid(2, bound=np.inf)
    with pytest.raises(ConfigError):
        gamma_grid(2, per_axis=1)
    with pytest.raises(ConfigError):
        GammaGrid(points=np.array([[1.0, 0.0]]), bound=1.0, per_axis=3)
    with pytest.raises(ConfigError):
        GammaGrid(points=np.array([[0.0, 0.0], [1.0, 0.3]]), bound=1.0, per_axis=3)
    with pytest.raises(ConfigError, match="points must be finite"):
        GammaGrid(points=np.array([[0.0, 0.0], [np.nan, 1.0], [np.nan, -1.0]]), bound=1.0,
                  per_axis=None)


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
    assert zero_response_report(rng).t_tilde == 0.0


def test_sup_statistic_origin_grid(rng):
    # at gamma = 0 the weights are 1, centered by their own smooth
    data, fit = pipeline_data(rng, n=30)
    h = 0.1
    grid = GammaGrid(points=np.zeros((1, 2)), bound=1.0, per_axis=2)
    rep = omnibus_test(data, fit, SmootherConfig(h=h), BootstrapConfig(m=100), grid)
    u = fit.ranks_u
    eps = brute_residuals(data.y, u, h)
    centered = 1.0 - brute_smoothed(np.ones(30), u, h)
    keep = (u > 3 * h) & (u <= 1 - 3 * h + 1e-12)
    expected = abs((eps * centered)[keep].sum()) / np.sqrt(keep.sum())
    assert rep.t_tilde == pytest.approx(expected, rel=1e-12)


def _sorted_rows(pts):
    return pts[np.lexsort(pts.T)]


@pytest.mark.parametrize(
    "grid",
    [gamma_grid(p) for p in (1, 2, 3, 4, 5)]
    + [GammaGrid(points=np.array([[0.0, 0.0], [1.0, -2.0], [-1.0, 2.0], [0.0, -0.5],
                                  [0.0, 0.5], [-3.0, 0.0], [3.0, 0.0]]),
                 bound=3.0, per_axis=3)],
    ids=["p1", "p2", "p3", "p4", "p5-halton", "hand-built"],
)
def test_half_points_pair_every_frequency_with_its_negation(grid):
    # the p = 5 Halton grid holds 0.0 in half its pairs and -0.0 in the other
    half = grid.half_points
    assert 2 * half.shape[0] - 1 == grid.size
    origin = np.all(half == 0.0, axis=1)
    assert origin.sum() == 1
    both = np.vstack([half, -half[~origin]])
    assert np.array_equal(_sorted_rows(both), _sorted_rows(grid.points))


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
    assert rep.t_tilde == pytest.approx(np.abs(summands.sum(axis=0)).max() / scale, rel=1e-12)
    reps = [
        np.abs(np.random.default_rng([4, r]).standard_normal(eps.size) @ summands).max() / scale
        for r in range(boot.m)
    ]
    assert rep.critical_value == pytest.approx(bootstrap_critical_value(reps, 0.05), rel=1e-12)
    assert rep.p_value == (1 + sum(v >= rep.t_tilde for v in reps)) / (boot.m + 1)


def test_one_column_chunks_match_one_chunk(rng, monkeypatch):
    data, fit = pipeline_data(rng, n=300, p=3)
    args = (data, fit, SmootherConfig(h=0.1), BootstrapConfig(m=200, seed=8))
    whole = omnibus_test(*args)
    monkeypatch.setattr(omnibus, "CHUNK_BYTES", 1)
    split = omnibus_test(*args)
    assert split.t_tilde == pytest.approx(whole.t_tilde, rel=1e-12)
    assert split.critical_value == pytest.approx(whole.critical_value, rel=1e-12)
    assert (split.p_value, split.reject) == (whole.p_value, whole.reject)
    assert split.diagnostics == whole.diagnostics


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
    critical = reps[int((1 - boot.alpha) * boot.m) - 1]
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
        assert rep.t_tilde == pytest.approx(t_tilde, rel=1e-12)
        assert rep.critical_value == pytest.approx(critical, rel=1e-12)
        assert rep.p_value == pytest.approx(p_value, rel=1e-12)


def test_bootstrap_replicate_two_point_hand_case():
    # the multiplier-sup oracle above, on one frequency; centered weights i
    # and 1; multipliers (1, -1)
    eps = np.array([1.0, 2.0])
    centered = np.array([[1j], [1.0 + 0.0j]])
    out = brute_multiplier_sup(eps, centered, np.array([1.0, -1.0]))
    # |1*1*i + (-1)*2*1| / sqrt(2) = |(-2 + i)| / sqrt(2)
    assert out == pytest.approx(np.sqrt(5.0) / np.sqrt(2.0))


def test_bootstrap_critical_value_order_statistic():
    values = np.arange(1.0, 1001.0)
    assert bootstrap_critical_value(values, 0.05) == 950.0
    with pytest.raises(ConfigError):
        bootstrap_critical_value(values[:10], 0.999)


def test_bootstrap_critical_value_counts_exact_decimal_levels():
    # (1 - alpha) m in binary rounds just below a whole number at these
    # levels; the order statistic is floor of the exact decimal product
    for m in (170, 500, 1000, 20000, *range(100, 1000, 37)):
        values = np.arange(1.0, m + 1.0)
        for step in range(1, 100):
            alpha = step / 100
            k = math.floor((1 - Fraction(str(alpha))) * m)
            if k >= 1:
                assert bootstrap_critical_value(values, alpha) == float(k), (m, alpha)
    assert bootstrap_critical_value(np.arange(1.0, 501.0), 0.07) == 465.0
    assert bootstrap_critical_value(np.arange(1.0, 171.0), 0.3) == 119.0


def test_bootstrap_config_validation():
    with pytest.raises(ConfigError):
        BootstrapConfig(m=50)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=100, alpha=0.005)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=200, alpha=1.2)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=200, seed=-1)


def test_bootstrap_config_refuses_more_streams_than_one_seed_word():
    BootstrapConfig(m=2**32)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=2**32 + 1)


def _stream_rows(seed, m, n):
    return np.stack([np.random.default_rng([seed, r]).standard_normal(n) for r in range(m)])


@pytest.mark.parametrize("m", [1, 100, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1])
def test_multipliers_are_the_default_rng_streams(seed, m):
    e = omnibus._multipliers(seed, m, 5)
    assert e.shape == (m, 5)
    assert e.tobytes() == _stream_rows(seed, m, 5).tobytes()


@settings(max_examples=30)
@given(seed=st.integers(0, 2**64 - 1), m=st.sampled_from([1, 100, 1000]))
def test_multipliers_are_the_default_rng_streams_for_any_seed(seed, m):
    assert omnibus._multipliers(seed, m, 3).tobytes() == _stream_rows(seed, m, 3).tobytes()


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
    assert a.t_tilde == b.t_tilde
    assert a.critical_value == b.critical_value
    assert a.p_value == b.p_value
    assert a.reject == b.reject


def test_omnibus_report_contract(rng):
    data, fit = pipeline_data(rng)
    boot = BootstrapConfig(m=150, alpha=0.05, seed=5)
    rep = omnibus_test(data, fit, SmootherConfig(h=0.25), boot)
    assert 0.0 < rep.p_value <= 1.0
    assert rep.t_tilde >= 0.0
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
