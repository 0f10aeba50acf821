import math

import numpy as np
import pytest

from sicheck import (
    ConfigError,
    DataError,
    Dataset,
    DegenerateVarianceError,
    MaximinCheck,
    NearSingularCovarianceError,
    SmootherConfig,
    WeightSpec,
    covariance_matrix,
    fit_from_direction,
    fit_index_ols,
    maximin_statistic,
    maximin_test,
    score_statistic,
    standardized_test,
    variance_estimate,
)
from sicheck import simulate
from sicheck.score_test import _scores
from sicheck.smoother import Block
from sicheck.special import chisq_quantile

from helpers import brute_covariance, random_small_case


def pipeline_data(rng, n=40, p=2):
    x = rng.standard_normal((n, p))
    y = (x @ np.array([1.0, -1.0]) / np.sqrt(2)) ** 3 + rng.standard_normal(n)
    data = Dataset(x=x, y=y)
    return data, fit_index_ols(data)


def test_score_statistic_cancellation():
    assert score_statistic([1.0, -1.0, 0.0], [1.0, 1.0, 1.0]) == 0.0


def test_score_statistic_single_point():
    assert score_statistic([2.0], [3.0]) == pytest.approx(6.0)


def test_score_statistic_four_ones():
    assert score_statistic([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]) == pytest.approx(2.0)


def test_score_statistic_length_mismatch():
    with pytest.raises(DataError):
        score_statistic([1.0, 2.0], [1.0])


def test_variance_zero_residuals():
    assert variance_estimate(np.zeros(5), np.ones(5), np.zeros(5)) == 0.0


def test_variance_perfect_projection():
    w = np.array([1.0, 2.0, 3.0])
    assert variance_estimate(np.array([1.0, -2.0, 0.5]), w, w) == 0.0


def test_variance_hand_value():
    assert variance_estimate([2.0], [3.0], [1.0]) == pytest.approx(16.0)


def test_covariance_reduces_to_variance(rng):
    eps = rng.standard_normal(8)
    w = rng.standard_normal(8)
    wbar = rng.standard_normal(8)
    cov = covariance_matrix(eps, w[:, None], wbar[:, None])
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(variance_estimate(eps, w, wbar))


def test_covariance_zero_residuals():
    vals = np.arange(6.0).reshape(3, 2)
    assert covariance_matrix(np.zeros(3), vals, np.zeros((3, 2))) == pytest.approx(
        np.zeros((2, 2))
    )


def test_covariance_frozen_two_by_two():
    # n = 3 instance frozen from the double-loop oracle
    data = Dataset(x=np.array([[1.0], [2.0], [3.0]]), y=np.array([1.0, 2.0, 3.0]))
    fit = fit_from_direction(data, np.array([1.0]))
    from sicheck import residuals, smoothed_weights

    cfg = SmootherConfig(h=0.4)
    eps = residuals(data, fit, cfg)
    vals = np.column_stack([[1.0, 0.5, 2.0], [3.0, -1.0, 0.5]])
    smooth = np.column_stack(
        [smoothed_weights(vals[:, 0], fit, cfg), smoothed_weights(vals[:, 1], fit, cfg)]
    )
    cov = covariance_matrix(eps, vals, smooth)
    frozen = np.array(
        [[9.962560204323877, 3.46116955433355], [3.46116955433355, 4.480349669003281]]
    )
    np.testing.assert_allclose(cov, frozen, rtol=1e-12)
    np.testing.assert_allclose(cov, brute_covariance(eps, vals, smooth), rtol=1e-12)


def test_covariance_positive_semidefinite_fuzz(rng):
    for _ in range(50):
        n, d = int(rng.integers(3, 12)), int(rng.integers(1, 4))
        eps = rng.standard_normal(n)
        vals = rng.standard_normal((n, d))
        smooth = rng.standard_normal((n, d))
        cov = covariance_matrix(eps, vals, smooth)
        assert cov == pytest.approx(cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


@pytest.mark.parametrize("weights", [(WeightSpec.sum_abs(),),
                                     (WeightSpec.sum_abs(), WeightSpec.sum_squares())],
                         ids=["d1", "d2"])
def test_block_score_sums_are_each_datasets_own(weights):
    # replicates 130-149 of a bump line; replicate 136 keeps fewer than
    # MIN_INTERIOR interior points, so all n enter its sums
    scn = simulate.Scenario(model=simulate.ModelKind.BUMP, n=50, p=2, c=0.5, sigma_eps=0.3,
                            seed=11)
    x, y, _ = simulate._draw_block(scn, 130, 150)
    block, _ = simulate._fitted_block(x, y, simulate.ScoreCheck())
    core, t_vec, sigma = _scores(block, weights, 0.05)
    assert core.keep[6].all() and not core.keep.all()
    for b in range(len(x)):
        one = Block(x[b:b + 1], y[b:b + 1], block.slots[b:b + 1], block.h[b:b + 1])
        one_core, one_t, one_sigma = _scores(one, weights, 0.05)
        assert one_t[0].tobytes() == t_vec[b].tobytes()
        assert one_sigma[0].tobytes() == sigma[b].tobytes()
        # the per-dataset interior form: the sums over the interior rows alone
        keep, eps = one_core.keep[0], one_core.eps[0][one_core.keep[0]]
        values = np.stack([w.evaluate(x[b]) for w in weights], axis=-1)
        smoothed = one_core.smoother.smooth(values[None])[0]
        centered = (values - smoothed)[keep]
        assert t_vec[b] == pytest.approx(centered.T @ eps / math.sqrt(eps.size), rel=1e-12)
        assert sigma[b] == pytest.approx(covariance_matrix(eps, values[keep], smoothed[keep]),
                                         rel=1e-12)


def test_standardized_test_report_fields(rng):
    data, fit = pipeline_data(rng)
    rep = standardized_test(data, fit, WeightSpec.sum_abs(), SmootherConfig(h=0.3))
    assert rep.n == data.n
    assert 0.0 <= rep.p_value <= 1.0
    assert rep.sigma_n2 > 0
    assert rep.t_bar == pytest.approx(rep.t_hat / np.sqrt(rep.sigma_n2))
    assert rep.reject == (rep.p_value <= rep.alpha)
    js = rep.to_json_dict()
    for key in ("statistic", "p_value", "alpha", "reject", "h", "n", "d",
                "weight_kinds", "diagnostics", "calibration"):
        assert key in js
    assert js["d"] == 1
    assert js["calibration"] == "normal"
    assert "n_interior" in js["diagnostics"]


def test_standardized_test_degenerate_variance(rng):
    x = rng.standard_normal((20, 2))
    data = Dataset(x=x, y=np.zeros(20))
    fit = fit_from_direction(data, np.ones(2))
    with pytest.raises(DegenerateVarianceError):
        standardized_test(data, fit, WeightSpec.sum_abs(), SmootherConfig(h=0.3))


def test_standardized_test_rejects_bad_alpha(rng):
    data, fit = pipeline_data(rng)
    with pytest.raises(ConfigError):
        standardized_test(data, fit, WeightSpec.sum_abs(), SmootherConfig(h=0.3), alpha=1.5)


def tied_cubic_data(rng, n=200):
    x = np.rint(rng.standard_normal((n, 2)))  # integer covariates: many tied ranks
    y = (x @ np.ones(2)) ** 3 + rng.standard_normal(n)
    data = Dataset(x=x, y=y)
    return data, fit_index_ols(data)


@pytest.mark.parametrize("h", [1e-300, 1e-100])
@pytest.mark.parametrize("run", [
    lambda data, fit, cfg: standardized_test(data, fit, WeightSpec.sum_abs(), cfg),
    lambda data, fit, cfg: maximin_test(
        data, fit, [WeightSpec.sum_abs(), WeightSpec.sum_squares()], cfg),
], ids=["score", "maximin"])
def test_overflowing_sums_are_refused_naming_h(rng, run, h):
    # at n h <= 1 the bandwidth is refused before the tied slot mates, weighted
    # K(0) / ((n - 1) h), can overflow the squared sums
    data, fit = tied_cubic_data(rng)
    with pytest.raises(DataError, match=f"h={h!r}"):
        run(data, fit, SmootherConfig(h=h))


def test_decision_invariant_to_weight_scaling(rng):
    data, fit = pipeline_data(rng)
    cfg = SmootherConfig(h=0.3)
    base = standardized_test(data, fit, WeightSpec.sum_abs(), cfg)
    for c in (4.0, -2.5, 0.01):
        scaled = WeightSpec.linear_combo([(c, WeightSpec.sum_abs())])
        rep = standardized_test(data, fit, scaled, cfg)
        assert abs(rep.t_bar) == pytest.approx(abs(base.t_bar), rel=1e-12)
        assert rep.reject == base.reject


def test_maximin_statistic_identity_covariance():
    assert maximin_statistic([1.0, 1.0], np.eye(2)) == pytest.approx(2.0)


def test_maximin_single_weight_matches_scalar(rng):
    data, fit = pipeline_data(rng)
    cfg = SmootherConfig(h=0.3)
    scalar = standardized_test(data, fit, WeightSpec.sum_abs(), cfg)
    vector = maximin_test(data, fit, [WeightSpec.sum_abs()], cfg)
    assert vector.statistic == pytest.approx(scalar.t_bar**2, rel=1e-12)
    assert vector.c_alpha == pytest.approx(3.841459, abs=1e-5)
    assert vector.reject == scalar.reject


def test_maximin_report_fields(rng):
    data, fit = pipeline_data(rng)
    rep = maximin_test(
        data, fit, [WeightSpec.sum_abs(), WeightSpec.sum_squares()], SmootherConfig(h=0.3)
    )
    assert rep.d == 2
    assert rep.sigma_mat == pytest.approx(rep.sigma_mat.T, abs=1e-10)
    assert rep.statistic >= 0
    assert rep.c_alpha == pytest.approx(chisq_quantile(0.95, 2))
    js = rep.to_json_dict()
    assert js["d"] == 2
    assert js["calibration"] == "chi-square"
    assert js["weight_kinds"] == ["sumabs", "sumsq"]


def test_maximin_rejects_dependent_weights(rng):
    data, fit = pipeline_data(rng)
    dup = WeightSpec.linear_combo([(2.0, WeightSpec.sum_abs())])
    with pytest.raises(NearSingularCovarianceError) as err:
        maximin_test(data, fit, [WeightSpec.sum_abs(), dup], SmootherConfig(h=0.3))
    assert "sumabs" in str(err.value)


def test_zero_score_variance_names_the_weight(rng):
    data, fit = pipeline_data(rng)
    cfg = SmootherConfig(h=0.3)
    zero = WeightSpec("zero", lambda x: np.zeros(x.shape[:-1]))
    with pytest.raises(DegenerateVarianceError, match="weight 'zero' has zero score variance"):
        standardized_test(data, fit, zero, cfg)
    family = [WeightSpec.sum_abs(), zero, WeightSpec.sum_squares()]
    with pytest.raises(DegenerateVarianceError, match="weight 'zero' has zero score variance"):
        maximin_test(data, fit, family, cfg)
    # vanishing residuals: every variance is zero, and the first weight is named
    null = Dataset(x=data.x, y=np.zeros(data.n))
    with pytest.raises(DegenerateVarianceError, match="weight 'sumabs'"):
        maximin_test(null, fit_from_direction(null, np.ones(2)), family[::2], cfg)


def test_maximin_failed_factorization_is_the_singular_refusal(rng, monkeypatch):
    from sicheck import score_test

    def fail(t_vec, sigma_mat):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(score_test, "maximin_statistic", fail)
    data, fit = pipeline_data(rng)
    with pytest.raises(NearSingularCovarianceError, match="numerically singular") as err:
        maximin_test(
            data, fit, [WeightSpec.sum_abs(), WeightSpec.sum_squares()], SmootherConfig(h=0.3)
        )
    assert "'sumabs' and 'sumsq'" in str(err.value)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_maximin_rejects_iff_p_is_at_most_alpha_at_the_critical_value(rng, monkeypatch, d, alpha):
    # the decision is the p-value's and c_alpha its edge: a c_alpha bisected on
    # the cdf read reject = true with p = 0.05000000000000012 at alpha = 0.05
    from sicheck import score_test

    data, fit = pipeline_data(rng)
    family = [WeightSpec("x1", lambda x: x[..., 0]), WeightSpec("x2", lambda x: x[..., 1]),
              WeightSpec.sum_abs(), WeightSpec.sum_squares()][:d]
    c_alpha = maximin_test(data, fit, family, SmootherConfig(h=0.3), alpha).c_alpha
    below, above = math.nextafter(c_alpha, 0.0), math.nextafter(c_alpha, math.inf)
    for statistic, reject in ((below, False), (c_alpha, True), (above, True)):
        monkeypatch.setattr(score_test, "maximin_statistic",
                            lambda t_vec, sigma_mat, s=statistic: np.array([s]))
        rep = maximin_test(data, fit, family, SmootherConfig(h=0.3), alpha)
        assert rep.statistic == statistic and rep.c_alpha == c_alpha
        assert rep.reject == reject == (rep.p_value <= alpha) == (rep.statistic >= rep.c_alpha)


def test_maximin_recombination_invariance(rng):
    data, fit = pipeline_data(rng, n=50)
    cfg = SmootherConfig(h=0.3)
    base_specs = [WeightSpec.sum_abs(), WeightSpec.sum_squares()]
    base = maximin_test(data, fit, base_specs, cfg)
    a = np.array([[2.0, -1.0], [0.5, 3.0]])
    mixed = [
        WeightSpec.linear_combo(
            [(a[i, 0], WeightSpec.sum_abs()), (a[i, 1], WeightSpec.sum_squares())]
        )
        for i in range(2)
    ]
    rep = maximin_test(data, fit, mixed, cfg)
    assert rep.statistic == pytest.approx(base.statistic, rel=1e-8)


def test_maximin_empty_family(rng):
    # the scalar test and its check refuse an empty family in the same words
    data, fit = pipeline_data(rng)
    message = "^maximin test needs at least one weight function$"
    with pytest.raises(ConfigError, match=message):
        maximin_test(data, fit, [], SmootherConfig(h=0.3))
    with pytest.raises(ConfigError, match=message):
        MaximinCheck(weights=())


def test_score_ops_match_brute_force_fuzz(rng):
    from helpers import brute_score, brute_variance

    for _ in range(100):
        x, y, beta, h = random_small_case(rng)
        eps = rng.standard_normal(len(y))
        w = np.abs(x).sum(axis=1)
        wbar = rng.standard_normal(len(y))
        assert score_statistic(eps, w) == pytest.approx(brute_score(eps, w), rel=1e-12, abs=1e-12)
        assert variance_estimate(eps, w, wbar) == pytest.approx(
            brute_variance(eps, w, wbar), rel=1e-12, abs=1e-12
        )
