import numpy as np
import pytest
from hypothesis import given, strategies as st

from sicheck import (
    ConfigError,
    DataError,
    Dataset,
    IndexFit,
    default_bandwidth_grid,
    fit_from_direction,
    mise,
    rank_transform,
    select_bandwidth,
)
from sicheck import bandwidth
from sicheck.bandwidth import mise_curve
from sicheck.smoother import LatticeSmoother

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
    h1, h = select_bandwidth(data, fit, np.ones(3), grid=[0.5])
    assert h1 == 0.5
    assert h == pytest.approx(0.5 * 3 ** (-2 / 15))


def test_undersmoothing_hand_value():
    # n = 100, h1 = 0.5 -> 0.5 * 100^(-2/15)
    assert 0.5 * 100 ** (-2 / 15) == pytest.approx(0.2706, abs=5e-5)


def test_select_is_grid_permutation_invariant(rng):
    x = rng.standard_normal((30, 2))
    data = Dataset(x=x, y=rng.standard_normal(30))
    fit = fit_from_direction(data, np.ones(2))
    w = np.abs(x).sum(axis=1)
    grid = np.linspace(0.1, 0.9, 9)
    a = select_bandwidth(data, fit, w, grid=grid)
    b = select_bandwidth(data, fit, w, grid=grid[::-1])
    c = select_bandwidth(data, fit, w, grid=rng.permutation(grid))
    assert a == b == c


def test_select_breaks_ties_to_smallest():
    # zero response: every bandwidth scores zero, smallest must win
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.zeros(3))
    fit = fit_from_direction(data, np.array([1.0]))
    h1, _ = select_bandwidth(data, fit, np.ones(3), grid=[0.7, 0.2, 0.5])
    assert h1 == 0.2


def test_select_undersmooths(rng):
    x = rng.standard_normal((40, 2))
    data = Dataset(x=x, y=rng.standard_normal(40))
    fit = fit_from_direction(data, np.ones(2))
    h1, h = select_bandwidth(data, fit, np.abs(x).sum(axis=1))
    assert 0 < h < h1 <= 1.0


def test_select_rejects_bad_grids():
    data, fit = triple()
    with pytest.raises(ConfigError):
        select_bandwidth(data, fit, np.ones(3), grid=[])
    with pytest.raises(ConfigError):
        select_bandwidth(data, fit, np.ones(3), grid=[0.0, 0.5])


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
    # the search picks the reference's argmin, or a candidate that only
    # round-off separates from it
    curve = ref[np.argsort(grid, kind="stable")]
    h1, _ = select_bandwidth(data, fit, w, grid=grid)
    assert h1 in np.sort(grid)[np.isclose(curve, curve.min(), rtol=1e-12, atol=1e-12)]


def test_mise_curve_one_row_blocks_match_one_block(monkeypatch, rng):
    x = rng.standard_normal((300, 2))
    data = Dataset(x=x, y=(x @ np.array([0.6, -0.8])) ** 3 + rng.standard_normal(300))
    fit = fit_from_direction(data, np.array([0.6, -0.8]))
    w = np.abs(x).sum(axis=1)
    grid = rng.permutation(default_bandwidth_grid(300))
    whole = mise_curve(data, fit, w, grid)
    monkeypatch.setattr(bandwidth, "BLOCK_BYTES", 1)
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
