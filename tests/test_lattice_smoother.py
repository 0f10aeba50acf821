"""The exact rank-lattice smoother against the dense reference, and guards
that keep every n x n array off the production path."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sicheck import (
    ConfigError,
    DataError,
    Dataset,
    IndexFit,
    MaximinCheck,
    OmnibusCheck,
    ScoreCheck,
    WeightSpec,
    loo_matrix,
    rank_transform,
)
from sicheck.simulate import apply_check
from sicheck.smoother import LatticeSmoother, fft_length, kernel_table, sums_guard

RADIUS = 127  # narrow windows reach |d| <= RADIUS slots, wide ones beyond


@st.composite
def lattice_cases(draw, width):
    """Ranks (tied when the projections are rounded), a bandwidth and a few
    more for a block; ``width`` picks n and h so that the window's radius is
    at most RADIUS slots ("narrow") or beyond it ("wide").  The block may
    hold a window narrower than one slot; without one, untied ranks leave no
    window empty and the smoother skips its empty-window count."""
    if width == "narrow":
        n = draw(st.integers(2, 400))
        h = draw(st.floats(1.0 / (2 * n), min(2.0, (RADIUS + 0.5) / n)))
    else:
        n = draw(st.integers(RADIUS + 2, 400))
        h = draw(st.floats((RADIUS + 1.5) / n, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.standard_normal(n)
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        t = np.round(t, decimals)
    block = [h] + draw(st.lists(st.floats(1.0 / n, 2.0), max_size=3))
    if draw(st.booleans()):
        block.append(1.0 / (2 * n))
    return rank_transform(t), h, rng, rng.permutation(block)


def _values(rng, n, kind):
    if kind == "vector":
        return rng.uniform(-10.0, 10.0, n)
    if kind == "stack":
        return rng.uniform(-10.0, 10.0, (n, 3))
    return rng.uniform(-10.0, 10.0, (n, 2)) + 1j * rng.uniform(-10.0, 10.0, (n, 2))


def _dense(values, u, h):
    s = loo_matrix(u, h)
    return (values @ s if values.ndim == 1 else s.T @ values), s.sum(axis=0) == 0.0


def _on_window_edge(n, h):
    # A rank distance within round-off of h: the dense reference's float
    # differences k_j/n - k_i/n disagree among themselves about membership.
    nh = n * h
    return abs(nh - round(nh)) <= 1e-9 * nh


def _check_case(case, kind):
    u, h, rng, block = case
    n = u.size
    values = _values(rng, n, kind)
    ref, dense_empty = _dense(values, u, h)
    slots = np.rint(u * n).astype(np.intp)
    smoother = LatticeSmoother(slots[None], [h])
    out = smoother.smooth(values[None])[0]
    assert out.shape == values.shape and out.dtype == ref.dtype
    assert out == pytest.approx(ref, rel=1e-12, abs=1e-12)
    if not _on_window_edge(n, h):
        assert np.array_equal(smoother.empty[0], dense_empty)
        assert np.all(out[dense_empty] == 0.0)
    # a block of bandwidths: one row per bandwidth, each the single smooth
    rows = LatticeSmoother(slots[None], [block])
    fits = rows.smooth(values[None])[0]
    assert fits.shape == (block.size,) + values.shape and fits.dtype == ref.dtype
    assert rows.empty[0].shape == (block.size, n)
    for row, empty, hb in zip(fits, rows.empty[0], block):
        single = LatticeSmoother(slots[None], [hb])
        assert row == pytest.approx(single.smooth(values[None])[0], rel=1e-12, abs=1e-12)
        assert np.array_equal(empty, single.empty[0])
        assert np.all(row[empty] == 0.0)


@pytest.mark.parametrize("kind", ["vector", "stack", "complex"])
@given(case=lattice_cases("narrow"))
def test_lattice_matches_dense_narrow_windows(case, kind):
    _check_case(case, kind)


@pytest.mark.parametrize("kind", ["vector", "stack", "complex"])
@given(case=lattice_cases("wide"))
def test_lattice_matches_dense_wide_windows(case, kind):
    _check_case(case, kind)


@pytest.mark.parametrize("h", [np.inf, [0.3, np.inf]])
def test_lattice_smoother_refuses_infinite_bandwidths(h):
    with pytest.raises(ConfigError, match="positive and finite"):
        LatticeSmoother(np.arange(1, 11)[None], [h])


def test_lattice_smoother_refuses_unstacked_slots():
    # one fit is a stack of one: (1, n) slots, not (n,)
    message = r"^rank slots must be a \(B, n\) stack of fits, got shape \(10,\)$"
    with pytest.raises(ConfigError, match=message):
        LatticeSmoother(np.arange(1, 11), [0.3])


def test_fft_length_is_smallest_5_smooth_at_least_k():
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(15) for b in range(10) for c in range(7)
        if 2**a * 3**b * 5**c <= 10_000
    )
    for k in range(1, 5001):
        assert fft_length(k) == next(v for v in smooth if v >= k)


@pytest.mark.parametrize("kind", ["vector", "stack", "complex"])
def test_every_window_empty_at_half_a_slot(kind):
    rng = np.random.default_rng(3)
    n = 300
    u = rank_transform(rng.standard_normal(n))
    values = _values(rng, n, kind)
    for h in (1.0 / (2 * n), [1.0 / (2 * n), 1.0 / (3 * n)]):
        smoother = LatticeSmoother(np.rint(u * n).astype(np.intp)[None], [h])
        assert np.all(smoother.smooth(values[None]) == 0.0)
        assert smoother.empty.all()


def _stack(rng, n, h):
    """Rank slots of len(h) fits, every other one tied, whose radii
    ceil(n h) - 1 fall on three padded lengths or more."""
    assert len({fft_length(n + min(math.ceil(n * hb), n) - 1) for hb in h}) >= 3
    t = rng.standard_normal((len(h), n))
    t[::2] = np.round(t[::2], 1)
    return np.rint([rank_transform(row) * n for row in t]).astype(np.intp)


@pytest.mark.parametrize("block", [False, True], ids=["one_h", "block_of_h"])
@pytest.mark.parametrize("kind", ["vector", "stack", "complex"])
def test_a_stacked_fit_does_not_depend_on_its_stack(kind, block):
    rng = np.random.default_rng(7)
    n, h = 200, np.array([0.02, 0.3, 0.1, 0.6, 0.005, 0.1])
    slots = _stack(rng, n, h)
    hs = np.stack([h, h / 3], axis=1) if block else h
    values = np.stack([_values(rng, n, kind) for _ in h])
    smoother = LatticeSmoother(slots, hs)
    assert smoother.empty.any()  # the empty-window mask is exercised
    for fit, s, hb, v in zip(smoother.smooth(values), slots, hs, values):
        assert np.array_equal(fit, LatticeSmoother(s[None], [hb]).smooth(v[None])[0])


def test_a_smooth_transforms_only_the_values(monkeypatch):
    rfft, shapes = np.fft.rfft, []

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    rng = np.random.default_rng(8)
    n, h = 200, np.array([0.02, 0.3, 0.1, 0.6, 0.02, 0.1])
    slots = _stack(rng, n, h)
    shapes.clear()
    smoother = LatticeSmoother(slots, h)
    sizes = {fft_length(n + math.ceil(n * hb) - 1) for hb in h}
    assert len(shapes) == len(sizes)  # one per padded length: the kernel tables
    values = rng.uniform(-10.0, 10.0, (h.size, n, 2))
    fits = []
    for _ in range(2):
        shapes.clear()
        fits.append(smoother.smooth(values))
        assert len(shapes) == len(sizes)  # one per padded length: the values
        assert all(shape[1:] == (n, 2) for shape in shapes)
    assert np.array_equal(*fits)


@pytest.mark.parametrize("n", [7, 200, 1001])
def test_sums_guard_refuses_exactly_the_bandwidths_of_radius_zero(n):
    for h in (0.001 / n, 0.5 / n, 1.0 / n, float(np.nextafter(1.0 / n, 1.0)), 1.0001 / n, 1.5 / n):
        reaches = kernel_table(n, np.array([h])).shape[1] > 1  # radius ceil(n h) - 1 >= 1
        if reaches:
            with sums_guard(n, h):
                pass
        else:
            with pytest.raises(DataError, match=f"h={h!r} reaches no neighbouring rank at n={n}"):
                with sums_guard(n, h):
                    pass


@pytest.mark.parametrize("h", [0.5, 0.01, [0.5, 0.01]])
@pytest.mark.parametrize("kind", ["vector", "stack", "complex"])
def test_isolated_observation_fits_exactly_zero(kind, h):
    # 399 observations tied at the top rank and one alone at rank 1/n: its
    # window is empty, and FFT round-off must not leak into its fit
    n = 400
    ranks = np.ones(n)
    ranks[0] = 1.0 / n
    values = _values(np.random.default_rng(4), n, kind)
    smoother = LatticeSmoother(np.rint(ranks * n).astype(np.intp)[None], [h])
    fits = smoother.smooth(values[None]).reshape((-1,) + values.shape)
    for out, hb in zip(fits, np.ravel(h)):
        assert np.all(out[0] == 0.0)
        assert out[1:] == pytest.approx(_dense(values, ranks, hb)[0][1:], rel=1e-12, abs=1e-12)
    assert smoother.empty.reshape(-1, n).tolist() == [[True] + [False] * (n - 1)] * fits.shape[0]


@given(
    n=st.integers(2, 200),
    shift=st.floats(1e-3, 0.999),
    which=st.integers(0, 199),
)
def test_index_fit_rejects_off_lattice_ranks(n, shift, which):
    ranks = np.arange(1, n + 1) / n
    ranks[which % n] = (which % n + shift) / n  # strictly between k/n and (k+1)/n
    with pytest.raises(DataError, match="lattice"):
        IndexFit(beta_hat=np.array([1.0]), projections=np.arange(n, dtype=float), ranks_u=ranks)


def test_index_fit_slots_are_integer_ranks():
    t = np.array([0.3, -1.0, 0.3, 2.0, 0.1])
    fit = IndexFit(beta_hat=np.array([1.0]), projections=t, ranks_u=rank_transform(t))
    assert fit.slots.tolist() == [4, 1, 4, 5, 2]
    assert fit.slots.dtype == np.intp


def _sample(n, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = (x @ np.array([0.6, -0.8])) ** 3 + rng.standard_normal(n)
    return Dataset(x=x, y=y)


CHECKS = [
    ScoreCheck(weight=WeightSpec.sum_abs()),
    MaximinCheck(weights=(WeightSpec.sum_abs(), WeightSpec.sum_squares())),
    OmnibusCheck(boot_m=100),
]


@pytest.mark.parametrize("h", [None, 0.2])
@pytest.mark.parametrize("check", CHECKS, ids=["score", "maximin", "omnibus"])
def test_pipeline_never_builds_the_dense_matrix(monkeypatch, check, h):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense leave-one-out matrix built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sicheck" and getattr(module, "loo_matrix", None) is loo_matrix:
            monkeypatch.setattr(module, "loo_matrix", forbidden)
    check = dataclasses.replace(check, h=h)
    report, h1 = apply_check(_sample(300), check, 0.05, seed=1)
    assert (h1 is None) == (h is not None)
    assert report.diagnostics["n_interior"] > 0


@pytest.mark.parametrize("check", CHECKS[:2], ids=["score", "maximin"])
def test_large_n_check_memory_is_linear(check):
    data = _sample(100_000, seed=6)
    tracemalloc.start()
    try:
        report, _ = apply_check(data, check, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.p_value)
    assert peak < 64 * 2**20
