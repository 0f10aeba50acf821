import numpy as np
import pytest

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
from sicheck.omnibus import SUP_INTERIOR_MARGIN
from sicheck.smoother import residual_core

from helpers import brute_cf, brute_multiplier_sup, brute_residuals, brute_smoothed


def pipeline_data(rng, n=40, p=2):
    x = rng.standard_normal((n, p))
    y = (x @ np.array([1.0, -1.0]) / np.sqrt(2)) ** 3 + rng.standard_normal(n)
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


def test_grid_validation():
    with pytest.raises(ConfigError):
        gamma_grid(0)
    with pytest.raises(ConfigError):
        gamma_grid(2, bound=0.0)
    with pytest.raises(ConfigError):
        gamma_grid(2, per_axis=1)
    with pytest.raises(ConfigError):
        GammaGrid(points=np.array([[1.0, 0.0]]), bound=1.0, per_axis=3)
    with pytest.raises(ConfigError):
        GammaGrid(points=np.array([[0.0, 0.0], [1.0, 0.3]]), bound=1.0, per_axis=3)


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


def test_sup_statistic_half_grid_lossless(rng):
    # T(-gamma) is the conjugate of T(gamma), so half the grid attains the sup
    data, fit = pipeline_data(rng)
    cfg = SmootherConfig(h=0.1)
    grid = gamma_grid(2)
    full = omnibus_test(data, fit, cfg, BootstrapConfig(m=100), grid).t_tilde
    pts = grid.points
    first_axis = pts[:, 0] + 1e-9 * pts[:, 1]  # lexicographic sign
    half = pts[first_axis >= 0.0]
    core = residual_core(data, fit, cfg, margin=SUP_INTERIOR_MARGIN)
    w = np.exp(1j * (standardize_columns(data.x) @ half.T))
    eps = core.eps[core.keep]
    vals = np.abs(eps @ core.centered(w)) / np.sqrt(eps.size)
    assert float(vals.max()) == pytest.approx(full, rel=1e-12)


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


def test_bootstrap_config_validation():
    with pytest.raises(ConfigError):
        BootstrapConfig(m=50)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=100, alpha=0.005)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=200, alpha=1.2)
    with pytest.raises(ConfigError):
        BootstrapConfig(m=200, seed=-1)


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
