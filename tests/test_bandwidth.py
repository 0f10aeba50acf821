import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sicheck import (
    ConfigError,
    DataError,
    Dataset,
    IndexFit,
    ModelKind,
    Scenario,
    WeightSpec,
    default_bandwidth_grid,
    fit_from_direction,
    fit_index_ols,
    generate,
    mise,
    rank_transform,
    select_bandwidth,
)
from sicheck import bandwidth
from sicheck.bandwidth import mise_curve
from sicheck.smoother import LatticeSmoother, kernel_radius

from helpers import brute_residuals


def triple():
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([1.0, 2.0, 3.0]))
    return data, fit_from_direction(data, np.array([1.0]))


def test_mise_zero_when_residuals_vanish():
    data, fit = triple()
    zero = Dataset(x=data.x, y=np.zeros(3))
    assert mise(zero, fit, np.ones(3), 0.4) == 0.0


def test_mise_zero_weights():
    data, fit = triple()
    assert mise(data, fit, np.zeros(3), 0.4) == 0.0


def test_mise_frozen_value():
    # residual oracle applied to the n = 3 instance with weights [1, 0.5, 2]
    data, fit = triple()
    w = np.array([1.0, 0.5, 2.0])
    assert mise(data, fit, w, 0.4) == pytest.approx(32.1602738305865, rel=1e-12)
    eps = brute_residuals(data.y, fit.ranks_u, 0.4)
    assert mise(data, fit, w, 0.4) == pytest.approx(float(np.sum(eps**2 * w**2)))


def test_mise_rejects_bad_bandwidth():
    data, fit = triple()
    with pytest.raises(ConfigError):
        mise(data, fit, np.ones(3), 0.0)


def test_undersmoothing_exponent():
    assert (-1 / 3 + 1 / 5) == pytest.approx(-2 / 15)
    data, fit = triple()
    h1, h = select_bandwidth(data, fit, np.ones(3))
    assert h1 in default_bandwidth_grid(3)
    assert h == pytest.approx(h1 * 3 ** (-2 / 15), rel=1e-15)


def test_undersmoothing_hand_value():
    # n = 100, h1 = 0.5 -> 0.5 * 100^(-2/15)
    assert 0.5 * 100 ** (-2 / 15) == pytest.approx(0.2706, abs=5e-5)


def test_select_breaks_ties_to_smallest():
    # zero response: every bandwidth scores zero, smallest must win
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.zeros(3))
    fit = fit_from_direction(data, np.array([1.0]))
    h1, _ = select_bandwidth(data, fit, np.ones(3))
    assert h1 == default_bandwidth_grid(3)[0]


def test_select_undersmooths(rng):
    x = rng.standard_normal((40, 2))
    data = Dataset(x=x, y=rng.standard_normal(40))
    fit = fit_from_direction(data, np.ones(2))
    h1, h = select_bandwidth(data, fit, np.abs(x).sum(axis=1))
    assert 0 < h < h1 <= 1.0


def test_select_refuses_a_curve_that_overflows():
    # the squared residuals of responses near 1e160 overflow every MISE value
    data = generate(Scenario(model=ModelKind.CUBIC, n=50, p=2, seed=39))
    w = np.abs(data.x).sum(axis=1)
    h1, _ = select_bandwidth(data, fit_index_ols(data), w)
    assert h1 > default_bandwidth_grid(50)[0]
    large = Dataset(x=data.x, y=1e160 * data.y)
    with pytest.raises(DataError, match="the bandwidth search overflows: the covariates or "
                                        "responses are too large for the float range"):
        select_bandwidth(large, fit_index_ols(large), w)


def test_default_grid_shape():
    grid = default_bandwidth_grid(50)
    assert grid.size == 30
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == pytest.approx(0.3 * 50 ** (-0.2))
    assert grid[-1] <= 1.0
    # large n keeps the 3x rate multiplier below 1
    assert default_bandwidth_grid(100000)[-1] == pytest.approx(3 * 100000 ** (-0.2))


@pytest.mark.parametrize("n", [2, 50, 243, 100000])
def test_default_grid_is_cached_read_only_geomspace(n):
    scale = n ** (-0.2)
    upper = min(3.0 * scale, 1.0)
    fresh = np.geomspace(min(0.3 * scale, upper), upper, 30)
    grid = default_bandwidth_grid(n)
    assert grid.tobytes() == fresh.tobytes()
    assert default_bandwidth_grid(n) is grid
    with pytest.raises(ValueError):
        grid[0] = 1.0


def test_default_grid_rejects_tiny_n():
    with pytest.raises(ConfigError):
        default_bandwidth_grid(1)


def test_mise_is_continuous_in_h(rng):
    x = rng.standard_normal((25, 2))
    data = Dataset(x=x, y=rng.standard_normal(25))
    fit = fit_from_direction(data, np.ones(2))
    w = np.abs(x).sum(axis=1)
    delta = 1e-4
    for h in np.linspace(0.2, 0.95, 12):
        a, b = mise(data, fit, w, h), mise(data, fit, w, h + delta)
        assert abs(a - b) < 0.02 * (1.0 + abs(a))


def _mise_by_smoother(data, fit, w, h):
    resid = data.y - LatticeSmoother(fit.slots, h).smooth(data.y)
    return float(np.sum(resid**2 * w**2))


@st.composite
def search_cases(draw):
    """Data whose ranks tie when the projections are rounded, weights, and
    a grid of free bandwidths, bandwidths with n h a whole number of slots,
    windows narrower than one slot (every window empty) and, for n <= 243,
    the default grid capped at h = 1."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.standard_normal(n)
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        t = np.round(t, decimals)
    data = Dataset(x=t[:, None], y=rng.uniform(-10.0, 10.0, n))
    fit = IndexFit(beta_hat=np.array([1.0]), projections=t, ranks_u=rank_transform(t))
    grid = draw(st.lists(st.floats(1.0 / (4 * n), 1.0), min_size=1, max_size=8))
    grid += [d / n for d in draw(st.lists(st.integers(1, n), max_size=4))]
    grid += draw(st.sampled_from([[], [1.0 / (2 * n)], [1.0], list(default_bandwidth_grid(n))]))
    return data, fit, rng.uniform(0.0, 3.0, n), np.array(grid)


@given(case=search_cases())
def test_mise_curve_matches_per_bandwidth_smooths(case):
    data, fit, w, grid = case
    ref = np.array([_mise_by_smoother(data, fit, w, h) for h in grid])
    assert mise_curve(data, fit, w, grid) == pytest.approx(ref, rel=1e-12, abs=1e-12)
    # the search picks the argmin of the curve on the default grid
    default = default_bandwidth_grid(data.n)
    h1, _ = select_bandwidth(data, fit, w)
    assert h1 == default[np.argmin(mise_curve(data, fit, w, default))]


def test_mise_curve_one_row_blocks_match_one_block(monkeypatch, rng):
    x = rng.standard_normal((300, 2))
    data = Dataset(x=x, y=(x @ np.array([0.6, -0.8])) ** 3 + rng.standard_normal(300))
    fit = fit_from_direction(data, np.array([0.6, -0.8]))
    w = np.abs(x).sum(axis=1)
    grid = rng.permutation(default_bandwidth_grid(300))
    whole = mise_curve(data, fit, w, grid)
    monkeypatch.setattr(bandwidth, "WORKSPACE_BYTES", 1)
    rows = mise_curve(data, fit, w, grid)
    assert rows == pytest.approx(whole, rel=1e-12, abs=1e-12)
    assert rows == pytest.approx([_mise_by_smoother(data, fit, w, h) for h in grid], rel=1e-12)


def test_mise_curve_empty_window_fits_exactly_zero(rng):
    # 399 observations tied at the top rank and one alone at rank 1/n: its
    # window is empty at both bandwidths, and with all the weight on it the
    # MISE is exactly y^2 w^2 only if FFT round-off stays out of its fit
    n = 400
    t = np.ones(n)
    t[0] = 0.0
    y = rng.uniform(-10.0, 10.0, n)
    y[0] = 1.0
    data = Dataset(x=t[:, None], y=y)
    fit = IndexFit(beta_hat=np.array([1.0]), projections=t, ranks_u=rank_transform(t))
    w = np.zeros(n)
    w[0] = 2.0
    assert mise_curve(data, fit, w, [0.5, 0.01]).tolist() == [4.0, 4.0]


@pytest.mark.parametrize("n, stack, budget", [
    (50, 29, None), (50, 30, None), (300, 3, None), (2000, 1, None), (300, 4, 1), (300, 2, 200_000),
])
def test_every_search_pass_fits_the_workspace(monkeypatch, rng, n, stack, budget):
    # a pass smooths B datasets at `rows` bandwidths, B x rows x 48 (n + r)
    # bytes with r the grid's widest radius: within the budget, or one row
    # per dataset; the first pass is as wide as the budget allows, and the
    # passes cover the grid once
    if budget is not None:
        monkeypatch.setattr(bandwidth, "WORKSPACE_BYTES", budget)
    passes = []

    def recorded(slots, h):
        passes.append((slots.shape[0], np.asarray(h)))
        return LatticeSmoother(slots, h)

    monkeypatch.setattr(bandwidth, "LatticeSmoother", recorded)
    y = rng.standard_normal((stack, n))
    slots = np.array([rng.permutation(n) + 1 for _ in range(stack)])
    bandwidth.select_bandwidths(y, slots, np.ones((stack, n)))
    grid = default_bandwidth_grid(n)
    r = kernel_radius(n, grid.max())
    for b, hs in passes:
        assert b == stack and hs.shape[0] == 1
        rows = hs.shape[1]
        assert b * rows * 48 * (n + r) <= bandwidth.WORKSPACE_BYTES or rows == 1
    widest = max(1, bandwidth.WORKSPACE_BYTES // (stack * 48 * (n + r)))
    assert passes[0][1].shape[1] == min(widest, grid.size)
    assert sorted(np.concatenate([hs[0] for _, hs in passes])) == sorted(grid)


def test_search_memory_is_bounded_by_the_workspace():
    # a one-row pass is 48 (n + r) bytes, 0.7 MB at n = 10^4, so every pass
    # fits the 4 MB budget; a 16 MB search budget peaked at 8.8 MB here
    data = generate(Scenario(model=ModelKind.CUBIC, n=10**4, p=2, seed=1))
    fit = fit_index_ols(data)
    w = WeightSpec.sum_abs().evaluate(data.x)
    select_bandwidth(data, fit, w)  # the grid is cached
    tracemalloc.start()
    try:
        select_bandwidth(data, fit, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("grid", [[], [0.5, -0.1], [0.1, -0.2], [0.1, np.nan], [0.0], [0.1, np.inf]])
def test_mise_curve_rejects_bad_grids(grid):
    data, fit = triple()
    with pytest.raises(ConfigError):
        mise_curve(data, fit, np.ones(3), grid)


def test_mise_curve_rejects_bad_inputs():
    data, fit = triple()
    with pytest.raises(ConfigError):
        mise_curve(data, fit, np.ones(2), [0.5])
    with pytest.raises(DataError):
        mise_curve(Dataset(x=data.x[:2], y=data.y[:2]), fit, np.ones(2), [0.5])
