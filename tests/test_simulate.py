import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from sicheck import (
    ConfigError,
    MaximinCheck,
    ModelKind,
    OmnibusCheck,
    Scenario,
    ScoreCheck,
    WeightSpec,
    binary_success_prob,
    bump_mean,
    cubic_mean,
    default_beta,
    generate,
    interaction_mean,
    monte_carlo,
)
from sicheck import simulate
from sicheck.simulate import mise_weight_values


class Stub:
    """A check that skips the test: ``decide(seed)`` is its decision."""

    h = None
    label = "stub"

    def __init__(self, decide):
        self.decide = decide

    def run(self, data, fit, cfg, alpha, seed):
        return SimpleNamespace(reject=self.decide(seed))


def flip(seed):
    return seed % 2 == 1


def test_default_beta_matches_convention():
    assert default_beta(2) == pytest.approx(np.array([1.0, -1.0]) / np.sqrt(2))
    assert default_beta(3) == pytest.approx(np.array([1.0, -1.0, 1.0]) / np.sqrt(3))


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario(model=ModelKind.INTERACTION, n=50, p=2)
    with pytest.raises(ConfigError):
        Scenario(model=ModelKind.BUMP, n=50, p=3)
    with pytest.raises(ConfigError):
        Scenario(model=ModelKind.CUBIC, n=50, p=2, beta=(1.0, 1.0))
    with pytest.raises(ConfigError):
        Scenario(model=ModelKind.CUBIC, n=50, p=2, seed=-3)
    with pytest.raises(ConfigError):
        Scenario(model=ModelKind.CUBIC, n=50, p=2, c_interaction=(1.0, 1.0, 1.0))
    for triple in ((0.5, 0.5), (0.5, 0.5, 0.5, 0.5)):
        with pytest.raises(ConfigError, match="c_interaction takes 3 values"):
            Scenario(model=ModelKind.INTERACTION, n=50, p=3, c_interaction=triple)
    with pytest.raises(ConfigError):
        Scenario(model=ModelKind.BUMP, n=50, p=2, beta=(1.0, 0.0))
    with pytest.raises(ConfigError):
        Scenario(model=ModelKind.BUMP, n=50, p=2, sigma_eps=0.0)
    with pytest.raises(ConfigError, match="sigma_eps"):
        Scenario(model=ModelKind.BINARY, n=50, p=2, sigma_eps=2.0)
    Scenario(model=ModelKind.BINARY, n=50, p=2, sigma_eps=1.0)
    with pytest.raises(ConfigError, match="n > p \\+ 1"):  # what the index fit needs
        Scenario(model=ModelKind.CUBIC, n=3, p=2)
    Scenario(model=ModelKind.CUBIC, n=4, p=2)
    for field, value in (("beta", (np.nan, 1.0)), ("c", np.nan), ("sigma_eps", np.inf),
                         ("c_interaction", (0.5, np.inf, 0.0))):
        model = ModelKind.INTERACTION if field == "c_interaction" else ModelKind.CUBIC
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            Scenario(model=model, n=50, p=3, **{field: value})


def test_generate_deterministic():
    scn = Scenario(model=ModelKind.CUBIC, n=30, p=2, c=1.0, seed=77)
    a = generate(scn)
    b = generate(scn)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_cubic_zero_noise_hook():
    scn = Scenario(model=ModelKind.CUBIC, n=25, p=2, c=0.0, seed=3)
    x = np.random.default_rng(3).standard_normal((25, 2))
    assert cubic_mean(x, scn.beta_vec, scn.c) == pytest.approx((x @ scn.beta_vec) ** 3)


def test_cubic_projection_variance_unit():
    scn = Scenario(model=ModelKind.CUBIC, n=5000, p=2, c=0.0, seed=11)
    data = generate(scn)
    proj = data.x @ scn.beta_vec
    assert abs(proj.var() - 1.0) < 0.06


def test_cubic_mean_of_response_near_zero():
    scn = Scenario(model=ModelKind.CUBIC, n=10000, p=2, c=0.0, seed=13)
    data = generate(scn)
    assert abs(data.y.mean()) < 4 / np.sqrt(10000) * np.sqrt(16.0)


def test_binary_values_and_probability():
    scn = Scenario(model=ModelKind.BINARY, n=2000, p=2, c=0.0, seed=5)
    data = generate(scn)
    assert set(np.unique(data.y)) <= {0.0, 1.0}
    # origin covariates give success probability one half
    assert binary_success_prob(np.zeros((1, 2)), scn.beta_vec, 0.0)[0] == pytest.approx(0.5)


def test_binary_matches_conditional_probability():
    scn = Scenario(model=ModelKind.BINARY, n=10000, p=2, c=0.5, seed=7)
    data = generate(scn)
    pi = binary_success_prob(data.x, scn.beta_vec, scn.c)
    assert abs(data.y.mean() - pi.mean()) < 0.02


def test_binary_zero_noise_returns_probability():
    scn = Scenario(model=ModelKind.BINARY, n=50, p=2, c=0.0, seed=9)
    x = np.random.default_rng(9).standard_normal((50, 2))
    logistic = 1.0 / (1.0 + np.exp(x @ scn.beta_vec))
    assert binary_success_prob(x, scn.beta_vec, scn.c) == pytest.approx(logistic)


def test_interaction_reduces_to_cubic():
    scn_i = Scenario(model=ModelKind.INTERACTION, n=40, p=3, c=0.0, seed=21)
    scn_c = Scenario(model=ModelKind.CUBIC, n=40, p=3, c=0.0, seed=21)
    x = np.random.default_rng(21).standard_normal((40, 3))
    a = interaction_mean(x, scn_i.beta_vec, scn_i.c_triple)
    assert a == pytest.approx(cubic_mean(x, scn_c.beta_vec, scn_c.c))


def test_interaction_hand_value():
    x = np.array([[1.0, 1.0, 1.0]])
    beta = np.array([1.0, -1.0, 1.0]) / np.sqrt(3)
    m = interaction_mean(x, beta, (1.0, 1.0, 1.0))
    assert m[0] == pytest.approx((1 / np.sqrt(3)) ** 3 + 3.0)
    assert m[0] == pytest.approx(3.1925, abs=5e-4)


def test_interaction_part_is_even(rng):
    x = rng.standard_normal((20, 3))
    beta = default_beta(3)
    part = lambda v: interaction_mean(v, beta, (1.0, 2.0, 0.5)) - (v @ np.asarray(beta)) ** 3
    assert part(x) == pytest.approx(part(-x))


def test_bump_hand_values():
    assert bump_mean(np.array([[0.0, 0.0]]), 0.0)[0] == pytest.approx(4.0)
    assert bump_mean(np.array([[1.0, 0.0]]), 1.0)[0] == pytest.approx(
        2.0 + 4.0 * np.exp(-1.0)
    )
    assert bump_mean(np.array([[1.0, 0.0]]), 1.0)[0] == pytest.approx(3.4715, abs=5e-5)


def test_bump_is_single_index_at_null():
    a = bump_mean(np.array([[1.0, 0.5]]), 0.0)
    b = bump_mean(np.array([[-0.3, 1.8]]), 0.0)
    assert a[0] == pytest.approx(b[0])


def test_bump_noise_scale():
    scn = Scenario(model=ModelKind.BUMP, n=20000, p=2, c=0.0, sigma_eps=0.3, seed=17)
    data = generate(scn)
    noise = data.y - bump_mean(data.x, 0.0)
    assert abs(noise.std() - 0.3) < 0.01


@pytest.mark.parametrize("model, p, mean", [
    (ModelKind.CUBIC, 2, lambda x, s: cubic_mean(x, s.beta_vec, s.c)),
    (ModelKind.INTERACTION, 3, lambda x, s: interaction_mean(x, s.beta_vec, s.c_triple)),
    (ModelKind.BUMP, 2, lambda x, s: bump_mean(x, s.c)),
], ids=["cubic", "interaction", "bump"])
@pytest.mark.parametrize("seed", [0, 19])
def test_generate_stream_contract(model, p, mean, seed):
    # x first, then the noise scaled by sigma_eps, from default_rng(seed)
    scn = Scenario(model=model, n=40, p=p, c=0.7, sigma_eps=0.3, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, p))
    z = rng.standard_normal(40)
    data = generate(scn)
    assert np.array_equal(data.x, x)
    assert np.array_equal(data.y, mean(x, scn) + 0.3 * z)


@pytest.mark.parametrize("seed", [0, 19])
def test_generate_stream_contract_binary(seed):
    scn = Scenario(model=ModelKind.BINARY, n=40, p=2, c=0.7, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, 2))
    u = rng.random(40)
    data = generate(scn)
    assert np.array_equal(data.x, x)
    assert np.array_equal(data.y, (u < binary_success_prob(x, scn.beta_vec, 0.7)).astype(float))


def test_cubic_mean_helper(rng):
    x = rng.standard_normal((10, 2))
    beta = default_beta(2)
    assert cubic_mean(x, beta, 2.0) == pytest.approx(
        (x @ np.asarray(beta)) ** 3 + 2.0 * np.abs(x).sum(axis=1)
    )


def test_monte_carlo_stub_always_rejects():
    scn = Scenario(model=ModelKind.CUBIC, n=30, p=2, seed=1)
    res = monte_carlo(scn, Stub(lambda seed: True), reps=12)
    assert res.rejection_rate == 1.0
    assert res.mc_stderr == 0.0


def test_monte_carlo_stub_never_rejects():
    scn = Scenario(model=ModelKind.CUBIC, n=30, p=2, seed=1)
    res = monte_carlo(scn, Stub(lambda seed: False), reps=12)
    assert res.rejection_rate == 0.0


def test_monte_carlo_deterministic_across_threads():
    scn = Scenario(model=ModelKind.CUBIC, n=40, p=2, c=0.0, seed=31)
    check = ScoreCheck(weight=WeightSpec.sum_abs())
    a = monte_carlo(scn, check, reps=40, threads=1)
    b = monte_carlo(scn, check, reps=40, threads=3)
    assert a.rejection_rate == b.rejection_rate
    assert a.mc_stderr == b.mc_stderr


@pytest.mark.parametrize(
    "cpus, threads, reps, workers",
    [(3, 100_000, 10, [3]), (3, 100_000, 2, [2]), (8, 4, 10, [4]), (None, 100_000, 10, [])],
)
def test_monte_carlo_never_starts_more_workers_than_cpus(monkeypatch, cpus, threads, reps, workers):
    # a stand-in executor records the pool size and runs serially, so no
    # thread is ever started whatever size is asked for
    started = []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    scn = Scenario(model=ModelKind.CUBIC, n=30, p=2, seed=5)
    serial = monte_carlo(scn, Stub(flip), reps=reps)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
    capped = monte_carlo(scn, Stub(flip), reps=reps, threads=threads)
    assert capped.rejection_rate == serial.rejection_rate
    assert started == workers


def test_monte_carlo_wraps_replicate_errors():
    scn = Scenario(model=ModelKind.CUBIC, n=30, p=2, seed=1)

    def bad(seed):
        raise ValueError("boom")

    with pytest.raises(RuntimeError) as err:
        monte_carlo(scn, Stub(bad), reps=3)
    assert "replicate 0" in str(err.value)


def test_monte_carlo_stderr_formula():
    scn = Scenario(model=ModelKind.CUBIC, n=30, p=2, seed=2)
    res = monte_carlo(scn, Stub(flip), reps=25)
    r = res.rejection_rate
    assert res.mc_stderr == pytest.approx(np.sqrt(r * (1 - r) / 25))


def test_mise_weight_values_selection(rng):
    x = rng.standard_normal((10, 2))
    score = ScoreCheck(weight=WeightSpec.sum_abs())
    assert mise_weight_values(score, x) == pytest.approx(np.abs(x).sum(axis=1))
    for check in (
        MaximinCheck(weights=(WeightSpec.sum_abs(), WeightSpec.sum_squares())),
        OmnibusCheck(),
        Stub(flip),
    ):
        assert mise_weight_values(check, x) == pytest.approx((x**2).sum(axis=1))


def test_checks_pickle_with_a_combination_weight(rng):
    # a worker process would receive its check by pickle
    x = rng.standard_normal((10, 2))
    combo = WeightSpec.linear_combo([(2.0, WeightSpec.sum_abs()), (-1.0, WeightSpec.sum_squares())])
    checks = (ScoreCheck(weight=combo), MaximinCheck(weights=(combo, WeightSpec.sum_squares())),
              OmnibusCheck(boot_m=200, h=0.3))
    score, maximin, omnibus = (pickle.loads(pickle.dumps(check)) for check in checks)
    assert [c.label for c in (score, maximin, omnibus)] == [c.label for c in checks]
    assert score.label == "score[combo(sumabs+sumsq)]" and omnibus.h == 0.3
    expected = 2.0 * np.abs(x).sum(axis=1) - (x**2).sum(axis=1)
    assert np.array_equal(score.weight.evaluate(x), expected)
    assert np.array_equal(maximin.weights[0].evaluate(x), expected)
    assert np.array_equal(maximin.weights[1].evaluate(x), (x**2).sum(axis=1))


def test_monte_carlo_validation():
    scn = Scenario(model=ModelKind.CUBIC, n=30, p=2)
    check = ScoreCheck(weight=WeightSpec.sum_abs())
    with pytest.raises(ConfigError):
        monte_carlo(scn, check, reps=0)
    with pytest.raises(ConfigError):
        monte_carlo(scn, check, reps=10, alpha=2.0)
    with pytest.raises(ConfigError):
        monte_carlo(scn, check, reps=10, threads=0)


def test_monte_carlo_builds_the_omnibus_grid_before_any_replicate(monkeypatch):
    def never(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate, "_replicate_reject", never)
    scn = Scenario(model=ModelKind.CUBIC, n=40, p=26)
    with pytest.raises(ConfigError, match="dimension 26 exceeds the supported maximum 25"):
        monte_carlo(scn, OmnibusCheck(boot_m=100), reps=2)


def test_maximin_null_rate_is_sane():
    scn = Scenario(model=ModelKind.CUBIC, n=50, p=2, c=0.0, seed=42)
    check = MaximinCheck(weights=(WeightSpec.sum_abs(), WeightSpec.sum_squares()))
    res = monte_carlo(scn, check, reps=300, threads=4)
    assert 0.012 <= res.rejection_rate <= 0.088
