import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sicheck import (
    DataError,
    Dataset,
    DegenerateDirectionError,
    InsufficientDataError,
    OmnibusCheck,
    SingularDesignError,
    fit_from_direction,
    fit_index_ols,
    project,
    rank_transform,
)
from sicheck.index import fit_stack, rank_slots
from sicheck.simulate import apply_check


def test_fit_ols_exact_line():
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([2.0, 4.0, 6.0]))
    fit = fit_index_ols(data)
    assert fit.beta_hat == pytest.approx([1.0])


def test_fit_ols_exact_plane(rng):
    x = rng.standard_normal((40, 2))
    data = Dataset(x=x, y=x[:, 0] - x[:, 1])
    fit = fit_index_ols(data)
    assert fit.beta_hat == pytest.approx(np.array([1.0, -1.0]) / np.sqrt(2), abs=1e-10)


def test_fit_ols_constant_response(rng):
    data = Dataset(x=rng.standard_normal((12, 2)), y=np.full(12, 3.0))
    with pytest.raises(DegenerateDirectionError):
        fit_index_ols(data)


def test_fit_ols_insufficient_rows():
    data = Dataset(x=np.eye(3), y=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InsufficientDataError):
        fit_index_ols(data)


def test_fit_ols_singular_design(rng):
    col = rng.standard_normal(20)
    data = Dataset(x=np.column_stack([col, 2.0 * col]), y=rng.standard_normal(20))
    with pytest.raises(SingularDesignError):
        fit_index_ols(data)


def test_fit_ols_sign_convention(rng):
    x = rng.standard_normal((60, 2))
    data = Dataset(x=x, y=-x[:, 0] + 0.01 * rng.standard_normal(60))
    fit = fit_index_ols(data)
    assert fit.beta_hat[0] > 0


def test_fit_ols_survives_a_slope_whose_squared_norm_overflows(rng):
    # responses of order 1e160: |slope|^2 leaves the float range, |slope| does not
    x = rng.standard_normal((200, 2))
    big = Dataset(x=x, y=1e160 * ((x @ np.array([1.0, -1.0])) ** 3 + rng.standard_normal(200)))
    check = OmnibusCheck(boot_m=200, h=0.1)
    report, _ = apply_check(big, check, 0.05, seed=3)  # the norm's RuntimeWarning fails the run
    scaled, _ = apply_check(Dataset(x=x, y=big.y / 1e150), check, 0.05, seed=3)
    assert (report.reject, report.p_value) == (scaled.reject, scaled.p_value)


def test_fit_ols_refuses_a_non_finite_slope_naming_the_response_scale(rng):
    x = 1e-3 * rng.standard_normal((50, 2))
    data = Dataset(x=x, y=1e308 * np.sign(x[:, 0]))  # slope about 1e311
    with pytest.raises(DataError, match=r"\|y\| = 1e\+308"):
        fit_index_ols(data)


def _lstsq_fit(x, y):
    """The per-dataset reference of ``fit_stack``: ``np.linalg.lstsq`` on the
    design (1, x), its rank rule, and the unit slope signed by its first
    entry above 1e-10; returns the direction and the rank slots."""
    design = np.column_stack([np.ones(len(x)), x])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise SingularDesignError("rank deficient")
    norm = np.linalg.norm(coef[1:])
    if norm < 1e-10:
        raise DegenerateDirectionError("zero slope")
    unit = coef[1:] / norm
    lead = unit[np.abs(unit) > 1e-10][0]
    unit = -unit if lead < 0 else unit
    return unit, rank_slots(x @ unit)


_COVARIATES = {
    "continuous": lambda x: x,
    "rounded": lambda x: np.round(x, 1),
    "integer": lambda x: np.clip(np.round(x) + 1.0, 0.0, 2.0),  # ties and rank deficiency
}


@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 5), n=st.integers(12, 200),
       p=st.integers(1, 4), kind=st.sampled_from(sorted(_COVARIATES)))
def test_fit_stack_is_each_datasets_block_of_one_and_the_lstsq_fit(seed, b, n, p, kind):
    rng = np.random.default_rng(seed)
    x = _COVARIATES[kind](rng.standard_normal((b, n, p)))
    y = (x @ rng.standard_normal(p)) ** 3 + rng.standard_normal((b, n))
    refs = []
    for i in range(b):
        try:
            refs.append(_lstsq_fit(x[i], y[i]))
        except (SingularDesignError, DegenerateDirectionError) as exc:
            refs.append(type(exc))
            with pytest.raises(type(exc)):
                fit_stack(x[i:i + 1], y[i:i + 1])
    failed = [ref for ref in refs if isinstance(ref, type)]
    if failed:  # the first failing dataset names the block's error
        with pytest.raises(failed[0]):
            fit_stack(x, y)
        return
    stacked = fit_stack(x, y)
    for i, (beta, slots) in enumerate(refs):
        alone = fit_stack(x[i:i + 1], y[i:i + 1])
        for whole, one in zip(stacked, alone):
            assert np.array_equal(whole[i], one[0])
        assert np.array_equal(stacked[2][i], slots)
        np.testing.assert_allclose(stacked[0][i], beta, rtol=0.0, atol=1e-12)


def _spoil(x, y, i, how):
    if how == "singular":
        x[i, :, 1] = 2.0 * x[i, :, 0]
    elif how == "constant":
        y[i] = 3.0
    else:  # a slope of about 1e311
        x[i] *= 1e-3
        y[i] = 1e308 * np.sign(x[i, :, 0])


@pytest.mark.parametrize("how, error", [("singular", SingularDesignError),
                                        ("constant", DegenerateDirectionError),
                                        ("overflow", DataError)])
def test_fit_stack_raises_a_failing_datasets_own_error(rng, how, error):
    x = rng.standard_normal((4, 50, 2))
    y = x[..., 0] ** 3 + rng.standard_normal((4, 50))
    _spoil(x, y, 2, how)
    with pytest.raises(error) as alone:
        fit_stack(x[2:3], y[2:3])
    with pytest.raises(error) as block:
        fit_stack(x, y)
    assert str(block.value) == str(alone.value)
    # a later dataset failing otherwise does not change the block's error
    _spoil(x, y, 3, "constant" if how == "singular" else "singular")
    with pytest.raises(error) as block:
        fit_stack(x, y)
    assert str(block.value) == str(alone.value)


def test_fit_stack_rescales_a_slope_whose_squared_norm_overflows_in_a_block(rng):
    x = rng.standard_normal((3, 200, 2))
    y = (x @ np.array([1.0, -1.0])) ** 3 + rng.standard_normal((3, 200))
    y[1] *= 1e160
    stacked = fit_stack(x, y)
    for whole, one in zip(stacked, fit_stack(x[1:2], y[1:2])):
        assert np.array_equal(whole[1], one[0])
    np.testing.assert_allclose(stacked[0][1], fit_stack(x[1:2], y[1:2] / 1e160)[0][0],
                               rtol=1e-12)


def test_project_basis_rows():
    data = Dataset(x=np.vstack([np.eye(2)] * 5), y=np.zeros(10))
    out = project(data, np.array([1.0, 0.0]))
    assert out == pytest.approx(data.x[:, 0])


def test_project_zero_direction():
    data = Dataset(x=np.ones((4, 3)), y=np.zeros(4))
    assert project(data, np.zeros(3)) == pytest.approx(np.zeros(4))


def test_project_hand_value():
    data = Dataset(x=np.array([[1.0, 2.0]]), y=np.array([0.0]))
    assert project(data, np.array([3.0, -1.0])) == pytest.approx([1.0])


def test_project_dimension_mismatch():
    data = Dataset(x=np.ones((4, 3)), y=np.zeros(4))
    with pytest.raises(DataError):
        project(data, np.array([1.0, 2.0]))


def test_rank_transform_distinct():
    assert rank_transform([3.0, 1.0, 2.0]) == pytest.approx([1.0, 1 / 3, 2 / 3])


def test_rank_transform_single_point():
    assert rank_transform([5.7]) == pytest.approx([1.0])


def test_rank_transform_ties_take_max_rank():
    assert rank_transform([1.0, 1.0, 2.0]) == pytest.approx([2 / 3, 2 / 3, 1.0])


def test_rank_transform_rejects_bad_input():
    with pytest.raises(DataError):
        rank_transform([])
    with pytest.raises(DataError):
        rank_transform([1.0, float("nan")])


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=30), st.floats(0.1, 20))
def test_rank_scale_invariance(values, c):
    t = np.array(values)
    # Rounded multiplication is only weakly monotone: it can merge distinct
    # values (0.5 * 5e-324 == 0.0), and then the ranks rightly tie.
    assume(np.unique(c * t).size == np.unique(t).size)
    assert np.array_equal(rank_transform(c * t), rank_transform(t))


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=30))
def test_rank_monotone_invariance(scaled):
    # a coarse value grid keeps distinct inputs distinct under the transforms
    t = np.array(scaled, dtype=float) / 100.0
    base = rank_transform(t)
    for g in (lambda v: 3.0 * v + 7.0, np.exp, lambda v: v**3):
        assert np.array_equal(rank_transform(g(t)), base)


@given(
    st.lists(
        st.floats(-100, 100), min_size=2, max_size=30, unique=True
    )
)
def test_rank_reflection_for_distinct(values):
    t = np.array(values)
    n = t.size
    assert rank_transform(-t) == pytest.approx((n + 1) / n - rank_transform(t))


def test_fit_from_direction_normalizes(rng):
    x = rng.standard_normal((15, 2))
    data = Dataset(x=x, y=rng.standard_normal(15))
    fit = fit_from_direction(data, np.array([3.0, 4.0]))
    assert fit.beta_hat == pytest.approx([0.6, 0.8])
    assert np.all(fit.ranks_u > 0) and np.all(fit.ranks_u <= 1)


def test_fit_from_direction_rejects_zero():
    data = Dataset(x=np.ones((4, 2)), y=np.zeros(4))
    with pytest.raises(DegenerateDirectionError):
        fit_from_direction(data, np.zeros(2))


def test_direction_recovery_large_sample(rng):
    beta = np.array([1.0, -1.0]) / np.sqrt(2)
    x = rng.standard_normal((2000, 2))
    y = x @ beta + 0.1 * rng.standard_normal(2000)
    fit = fit_index_ols(Dataset(x=x, y=y))
    assert np.linalg.norm(fit.beta_hat - beta) < 0.1
