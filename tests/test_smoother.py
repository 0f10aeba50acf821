import math

import numpy as np
import pytest

from sicheck import (
    ConfigError,
    DataError,
    Dataset,
    InsufficientDataError,
    SmootherConfig,
    fit_from_direction,
    fit_index_ols,
    interior_mask,
    loo_matrix,
    residuals,
    smoothed_weights,
)
from sicheck.smoother import Block, LatticeSmoother, fft_length

from helpers import brute_residuals, brute_smoothed, random_small_case

# leave-one-out fits for y = [1, 2, 3] on ranks [1/3, 2/3, 1] with h = 0.4,
# frozen from the double-loop oracle
TRIPLE_RESIDUALS = [0.7811776620370371, 1.5623553240740742, 2.781177662037037]


def small_fit(rng, n=12, p=2):
    x = rng.standard_normal((n, p))
    data = Dataset(x=x, y=rng.standard_normal(n))
    return data, fit_from_direction(data, np.ones(p))


def test_config_validates_bandwidth():
    with pytest.raises(ConfigError):
        SmootherConfig(h=0.0)
    with pytest.raises(ConfigError):
        SmootherConfig(h=1.5)
    SmootherConfig(h=1.0)


def triple_fit():
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([1.0, 2.0, 3.0]))
    return data, fit_from_direction(data, np.array([1.0]))


def test_loo_smooth_empty_window():
    # ranks 1/3 apart, h = 0.05: every window holds only its own point
    _, fit = triple_fit()
    out = smoothed_weights([1.0, 2.0, 3.0], fit, SmootherConfig(h=0.05))
    assert out.tolist() == [0.0, 0.0, 0.0]


def test_loo_smooth_two_points():
    # two tied ranks: each fit sees the other point at distance 0, weight K(0)
    s = loo_matrix([1.0, 1.0], 1.0)
    assert np.array([7.0, 2.0]) @ s == pytest.approx([1.875, 6.5625])


def test_loo_smooth_zero_values():
    _, fit = triple_fit()
    out = smoothed_weights(np.zeros((3, 2)), fit, SmootherConfig(h=0.5))
    assert out.shape == (3, 2)
    assert np.all(out == 0.0)


def test_loo_smooth_rejects_single_point():
    with pytest.raises(InsufficientDataError):
        loo_matrix([1.0], 0.5)


def test_loo_smooth_rejects_bad_index():
    # values must have one entry (or row) per ranked observation
    _, fit = triple_fit()
    with pytest.raises(DataError):
        smoothed_weights(np.ones(5), fit, SmootherConfig(h=0.5))
    with pytest.raises(DataError):
        smoothed_weights(np.ones((2, 3)), fit, SmootherConfig(h=0.5))


def test_residuals_zero_response(rng):
    data, fit = small_fit(rng)
    data0 = Dataset(x=data.x, y=np.zeros(data.n))
    out = residuals(data0, fit, SmootherConfig(h=0.3))
    assert out == pytest.approx(np.zeros(data.n))


def test_residuals_tiny_bandwidth_returns_response():
    # all windows empty when h is below the minimal rank gap
    x = np.linspace(1, 3, 3).reshape(3, 1)
    data = Dataset(x=x, y=np.array([4.0, -1.0, 2.5]))
    fit = fit_from_direction(data, np.array([1.0]))
    out = residuals(data, fit, SmootherConfig(h=0.2))
    assert out == pytest.approx(data.y)
    core = Block.of(data, fit, SmootherConfig(h=0.2)).core()
    assert core.diagnostics[0]["empty_windows"] == 3


def test_residuals_frozen_triple():
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([1.0, 2.0, 3.0]))
    fit = fit_from_direction(data, np.array([1.0]))
    out = residuals(data, fit, SmootherConfig(h=0.4))
    assert out == pytest.approx(TRIPLE_RESIDUALS, rel=1e-12)
    assert out == pytest.approx(brute_residuals(data.y, fit.ranks_u, 0.4), rel=1e-12)


def test_smoothed_weights_zero():
    data = Dataset(x=np.arange(8.0).reshape(4, 2), y=np.zeros(4))
    fit = fit_from_direction(data, np.ones(2))
    out = smoothed_weights(np.zeros(4), fit, SmootherConfig(h=0.5))
    assert out == pytest.approx(np.zeros(4))


def test_smoothed_weights_frozen_instance():
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([1.0, 2.0, 3.0]))
    fit = fit_from_direction(data, np.array([1.0]))
    w = np.array([1.0, 0.5, 2.0])
    out = smoothed_weights(w, fit, SmootherConfig(h=0.4))
    assert out == pytest.approx(
        [0.05470558449074074, 0.3282335069444444, 0.05470558449074074], rel=1e-12
    )
    assert out == pytest.approx(brute_smoothed(w, fit.ranks_u, 0.4), rel=1e-12)


def test_smoothed_weights_two_points():
    data = Dataset(x=np.array([[1.0], [2.0]]), y=np.zeros(2))
    fit = fit_from_direction(data, np.array([1.0]))
    out = smoothed_weights(np.array([7.0, 2.0]), fit, SmootherConfig(h=1.0))
    # each fit sees only the other point at rank distance 1/2
    k_half = (15 / 16) * (1 - 0.25) ** 2
    assert out == pytest.approx([2.0 * k_half, 7.0 * k_half])


def test_brute_force_equivalence_small_n(rng):
    for _ in range(200):
        x, y, beta, h = random_small_case(rng)
        data = Dataset(x=x, y=y)
        fit = fit_from_direction(data, beta)
        cfg = SmootherConfig(h=h)
        assert residuals(data, fit, cfg) == pytest.approx(
            brute_residuals(y, fit.ranks_u, h), rel=1e-12, abs=1e-12
        )


def test_scale_and_sign_invariance(rng):
    x = rng.standard_normal((25, 3))
    data = Dataset(x=x, y=rng.standard_normal(25))
    beta = rng.standard_normal(3)
    cfg = SmootherConfig(h=0.3)
    base = residuals(data, fit_from_direction(data, beta), cfg)
    for c in (2.5, 0.1):
        out = residuals(data, fit_from_direction(data, c * beta), cfg)
        assert np.array_equal(out, base)
    for c in (-1.0, -3.7):
        # reflected ranks (n + 1 - k)/n round differently from k/n by one
        # ulp, so sign flips are exact only up to that representation noise
        out = residuals(data, fit_from_direction(data, c * beta), cfg)
        assert out == pytest.approx(base, rel=1e-12, abs=1e-13)


def test_monotone_transform_invariance(rng):
    x = rng.standard_normal((20, 2))
    data = Dataset(x=x, y=rng.standard_normal(20))
    fit = fit_from_direction(data, np.array([1.0, -0.5]))
    cfg = SmootherConfig(h=0.4)
    base = residuals(data, fit, cfg)
    from sicheck import IndexFit, rank_transform

    transformed = IndexFit(
        beta_hat=fit.beta_hat,
        projections=fit.projections,
        ranks_u=rank_transform(np.exp(fit.projections)),
    )
    assert np.array_equal(residuals(data, transformed, cfg), base)


def test_residual_map_is_linear(rng):
    x = rng.standard_normal((15, 2))
    y1 = rng.standard_normal(15)
    y2 = rng.standard_normal(15)
    fit = fit_from_direction(Dataset(x=x, y=y1), np.ones(2))
    cfg = SmootherConfig(h=0.35)
    r1 = residuals(Dataset(x=x, y=y1), fit, cfg)
    r2 = residuals(Dataset(x=x, y=y2), fit, cfg)
    r12 = residuals(Dataset(x=x, y=y1 + y2), fit, cfg)
    assert r12 == pytest.approx(r1 + r2, rel=1e-12, abs=1e-12)


def test_constant_reproduction_interior():
    n = 1000
    x = np.linspace(0.0, 1.0, n).reshape(n, 1)
    data = Dataset(x=x, y=np.full(n, 2.0))
    fit = fit_from_direction(data, np.array([1.0]))
    h = n ** (-1 / 3)
    fits = smoothed_weights(data.y, fit, SmootherConfig(h=h))
    inner = (fit.ranks_u > 2 * h) & (fit.ranks_u <= 1 - 2 * h)
    assert np.max(np.abs(fits[inner] - 2.0)) < 0.05


def test_loo_fit_all_handles_columns_and_complex(rng):
    # smoothed_weights smooths an (n, d) stack and complex values column by column
    x = rng.standard_normal((10, 2))
    data = Dataset(x=x, y=rng.standard_normal(10))
    fit = fit_from_direction(data, np.ones(2))
    cfg = SmootherConfig(h=0.5)
    mat = rng.standard_normal((10, 3))
    cols = smoothed_weights(mat, fit, cfg)
    for k in range(3):
        assert cols[:, k] == pytest.approx(smoothed_weights(mat[:, k], fit, cfg))
    z = mat[:, 0] + 1j * mat[:, 1]
    zf = smoothed_weights(z, fit, cfg)
    assert zf == pytest.approx(
        smoothed_weights(mat[:, 0], fit, cfg) + 1j * smoothed_weights(mat[:, 1], fit, cfg)
    )
    zcols = smoothed_weights(np.column_stack([z, 2.0 * z]), fit, cfg)
    assert zcols[:, 0] == pytest.approx(zf)
    assert zcols[:, 1] == pytest.approx(2.0 * zf)


def test_loo_matrix_allows_large_bandwidth():
    u = np.array([0.25, 0.5, 0.75, 1.0])
    s = loo_matrix(u, 2.0)
    assert s.shape == (4, 4)
    assert np.all(np.diag(s) == 0.0)


def test_interior_mask_margins():
    u = np.linspace(0.1, 1.0, 10)
    keep = interior_mask(u, 0.15)
    assert keep.tolist() == [False, True, True, True, True, True, True, True, False, False]
    # margin too wide for the sample: falls back to everything
    assert interior_mask(u, 0.45).all()


def test_one_dataset_is_its_block_of_one(rng):
    # four datasets, the second and fourth tied, at bandwidths on four padded
    # lengths: each dataset's residuals and smoothed weights are exactly its
    # row of the stack's
    n, h = 200, np.array([0.02, 0.3, 0.1, 0.6])
    assert len({fft_length(n + math.ceil(n * hb) - 1) for hb in h}) == 4
    data = []
    for j in range(4):
        x = rng.standard_normal((n, 2))
        data.append(Dataset(x=np.round(2.0 * x) / 2.0 if j % 2 else x, y=rng.standard_normal(n)))
    fits = [fit_index_ols(d) for d in data]
    assert [np.unique(f.slots).size < n for f in fits] == [False, True, False, True]
    block = Block(np.stack([d.x for d in data]), np.stack([d.y for d in data]),
                  np.stack([f.slots for f in fits]), h)
    eps = block.core().eps
    weights = np.exp(1j * block.x)  # a complex column stack per dataset
    smooth = LatticeSmoother(block.slots, block.h).smooth(weights)
    for j, (d, f) in enumerate(zip(data, fits)):
        cfg = SmootherConfig(h=h[j])
        assert np.array_equal(residuals(d, f, cfg), eps[j])
        assert np.array_equal(smoothed_weights(weights[j], f, cfg), smooth[j])
