import dataclasses
import pickle
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sicheck import (
    ConfigError,
    DegenerateDirectionError,
    MaximinCheck,
    ModelKind,
    OmnibusCheck,
    Scenario,
    ScoreCheck,
    SmootherConfig,
    WeightSpec,
    binary_success_prob,
    bump_mean,
    cubic_mean,
    default_beta,
    fit_index_ols,
    generate,
    interaction_mean,
    maximin_test,
    monte_carlo,
    standardized_test,
)
from sicheck import omnibus, simulate
from sicheck.simulate import mise_weight_values
from sicheck.smoother import WORKSPACE_BYTES


class Stub:
    """A check that skips the test: ``decide(seed)`` is each dataset's decision."""

    h = None
    label = "stub"

    def __init__(self, decide):
        self.decide = decide

    def run(self, block, alpha, seeds):
        return [SimpleNamespace(reject=self.decide(seed)) for seed in seeds]


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
    with pytest.raises(ConfigError, match="c_interaction replaces c; .* got c=0.5"):
        Scenario(model=ModelKind.INTERACTION, n=50, p=3, c=0.5, c_interaction=(1.0, 1.0, 1.0))
    Scenario(model=ModelKind.INTERACTION, n=50, p=3, c=0.0, c_interaction=(1.0, 1.0, 1.0))


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
    "cpus, threads, blocks, workers",
    [(3, 100_000, 10, [3]), (3, 100_000, 2, [2]), (8, 4, 10, [4]), (None, 100_000, 10, [])],
)
def test_monte_carlo_never_starts_more_workers_than_cpus(monkeypatch, cpus, threads, blocks,
                                                         workers):
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

    scn = Scenario(model=ModelKind.CUBIC, n=simulate.THREADED_MIN_N, p=2, seed=5)
    reps = blocks * simulate.block_size(scn.n, Stub(flip))
    serial = monte_carlo(scn, Stub(flip), reps=reps)
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
    capped = monte_carlo(scn, Stub(flip), reps=reps, threads=threads)
    assert capped.rejection_rate == serial.rejection_rate
    assert started == workers


@pytest.mark.parametrize("n, check", [(50, Stub(flip)), (50, OmnibusCheck(boot_m=100)),
                                      (simulate.THREADED_MIN_N, Stub(flip))],
                         ids=["50-stub", "50-omnibus", "1000-stub"])
def test_monte_carlo_blocks_depend_only_on_the_line_size_and_the_check(monkeypatch, n, check):
    # whatever the thread count, a line runs as the same blocks of
    # consecutive replicates, each of block_size(n, check) but the last
    ranges = []
    run_block = simulate._block_rejects

    def record(scn, check, alpha, lo, hi):
        ranges.append((lo, hi))
        return run_block(scn, check, alpha, lo, hi)

    monkeypatch.setattr(simulate, "_block_rejects", record)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    size = simulate.block_size(n, check)
    reps = 2 * size + 1
    scn = Scenario(model=ModelKind.CUBIC, n=n, p=2, seed=5)
    for threads in (1, 3):
        ranges.clear()
        monte_carlo(scn, check, reps=reps, threads=threads)
        assert sorted(ranges) == [(0, size), (size, 2 * size), (2 * size, reps)]


def test_block_sizes_are_pinned():
    # as many replicates as one pass of the pilot search holds under the 4 MB
    # workspace: at 5 bandwidths for a serial score or maximin line, at all 30
    # for an omnibus line (from n = 817 up a block is one) and for every line
    # from THREADED_MIN_N = 1000 up
    ns = (50, 100, 200, 400, 816, 999)
    for check in (ScoreCheck(), MaximinCheck(), Stub(flip)):
        assert [simulate.block_size(n, check) for n in ns] == [176, 87, 43, 22, 12, 9]
    assert [simulate.block_size(n, OmnibusCheck()) for n in ns] == [29, 14, 7, 3, 2, 1]
    for check in (ScoreCheck(), MaximinCheck(), OmnibusCheck()):
        assert [simulate.block_size(n, check) for n in (1000, 2000, 10**5)] == [1, 1, 1]


def test_monte_carlo_runs_a_line_below_the_threshold_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    scn = Scenario(model=ModelKind.CUBIC, n=simulate.THREADED_MIN_N - 1, p=2, seed=5)
    threaded = monte_carlo(scn, Stub(flip), reps=10, threads=100_000)
    assert threaded.rejection_rate == monte_carlo(scn, Stub(flip), reps=10).rejection_rate


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
    # each check is defined once, beside its test, and simulate binds all three: a
    # check pickled under its sicheck.simulate name loads as the one class
    assert [type(c).__module__ for c in checks] == ["sicheck.score_test"] * 2 + ["sicheck.omnibus"]
    assert all(getattr(simulate, type(c).__name__) is type(c) for c in checks)
    for check in checks:
        home = f"c{type(check).__module__}\n".encode()
        raw = pickle.dumps(check, protocol=0)
        assert raw.count(home) == 1
        loaded = pickle.loads(raw.replace(home, b"csicheck.simulate\n"))
        assert type(loaded) is type(check) and loaded.label == check.label


@pytest.mark.parametrize("alpha", ["0.05", None, [0.05]])
@pytest.mark.parametrize("entry", ["monte_carlo", "validate_run", "apply_check",
                                   "standardized_test", "maximin_test"])
def test_a_non_number_alpha_is_refused_by_name(entry, alpha):
    scn = Scenario(model=ModelKind.CUBIC, n=40, p=2, seed=3)
    data = generate(scn)
    fit, cfg = fit_index_ols(data), SmootherConfig(h=0.3)
    run = {
        "monte_carlo": lambda: monte_carlo(scn, ScoreCheck(), reps=2, alpha=alpha),
        "validate_run": lambda: simulate.validate_run(MaximinCheck(), alpha),
        "apply_check": lambda: simulate.apply_check(data, MaximinCheck(), alpha),
        "standardized_test": lambda: standardized_test(data, fit, WeightSpec.sum_abs(), cfg,
                                                       alpha),
        "maximin_test": lambda: maximin_test(data, fit, [WeightSpec.sum_abs()], cfg, alpha),
    }[entry]
    with pytest.raises(ConfigError, match=f"^alpha must be a number, got {re.escape(repr(alpha))}"):
        run()


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

    monkeypatch.setattr(simulate, "_draw_block", never)
    scn = Scenario(model=ModelKind.CUBIC, n=40, p=26)
    with pytest.raises(ConfigError, match="dimension 26 exceeds the supported maximum 25"):
        monte_carlo(scn, OmnibusCheck(boot_m=100), reps=2)


def test_monte_carlo_refuses_an_overflowing_grid_bound_before_any_replicate(monkeypatch):
    def never(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate, "_draw_block", never)
    scn = Scenario(model=ModelKind.CUBIC, n=40, p=2)
    with pytest.raises(ConfigError, match="grid bound 1e\\+308 overflows the phases"):
        monte_carlo(scn, OmnibusCheck(boot_m=100, grid_bound=1e308), reps=2)
    # p * bound * sqrt(n) = 1.3e307 is finite: validation passes and the replicates run
    with pytest.raises(RuntimeError, match="a replicate ran"):
        monte_carlo(scn, OmnibusCheck(boot_m=100, grid_bound=1e306), reps=2)


@pytest.mark.parametrize("check", [ScoreCheck(h=0.004), MaximinCheck(h=0.005),
                                   OmnibusCheck(boot_m=100, h=0.001)])
def test_monte_carlo_refuses_a_fixed_h_reaching_no_neighbour_before_any_replicate(
        monkeypatch, check):
    def never(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate, "_draw_block", never)
    scn = Scenario(model=ModelKind.CUBIC, n=200, p=2)
    with pytest.raises(ConfigError, match=f"h={check.h!r} reaches no neighbouring rank at n=200"):
        monte_carlo(scn, check, reps=2)
    # at n h > 1 validation passes and the replicates run
    with pytest.raises(RuntimeError, match="a replicate ran"):
        monte_carlo(scn, dataclasses.replace(check, h=0.0051), reps=2)


def test_monte_carlo_refuses_more_replicates_than_one_stream_word_holds(monkeypatch):
    # replicate r seeds its stream with r as one 32-bit word: replicate 2^32
    # would reuse replicate 0's stream
    def never(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate, "_draw_block", never)
    scn = Scenario(model=ModelKind.CUBIC, n=40, p=2)
    with pytest.raises(ConfigError, match="at most 2\\^32 replications, got 4294967297"):
        monte_carlo(scn, ScoreCheck(), reps=2**32 + 1)
    simulate.validate_run(ScoreCheck(), 0.05, reps=2**32)  # replicates 0 to 2^32 - 1


@pytest.mark.parametrize("field", ["n", "p", "seed"])
def test_scenario_refuses_a_non_integral_size_or_seed(field):
    # a NumPy integer is read as a Python int; a float or a bool is refused
    settings = {"n": 40, "p": 2, "seed": 7}
    scn = Scenario(model=ModelKind.CUBIC, **dict(settings, **{field: np.int64(settings[field])}))
    assert type(getattr(scn, field)) is int
    for value in (float(settings[field]), 1.5, True):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}"):
            Scenario(model=ModelKind.CUBIC, **dict(settings, **{field: value}))


@pytest.mark.parametrize("field", ["reps", "threads"])
def test_monte_carlo_refuses_a_non_integral_replicate_or_thread_count(monkeypatch, field):
    def never(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate, "_draw_block", never)
    scn = Scenario(model=ModelKind.CUBIC, n=40, p=2)
    for value in (2.0, 10.5, True):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value!r}"):
            monte_carlo(scn, ScoreCheck(), **dict({"reps": 2, "threads": 1}, **{field: value}))


_DRAWN_MODELS = ([(ModelKind.CUBIC, p) for p in range(1, 5)]
                 + [(ModelKind.BINARY, p) for p in range(1, 5)]
                 + [(ModelKind.INTERACTION, 3), (ModelKind.BUMP, 2)])


@given(model_p=st.sampled_from(_DRAWN_MODELS), n=st.sampled_from([12, 50, 200]),
       seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
       lo=st.integers(0, 3 * simulate.block_size(50, ScoreCheck())), size=st.integers(1, 40))
@example(model_p=(ModelKind.BUMP, 2), n=50, seed=2**32,
         lo=simulate.block_size(50, ScoreCheck()) - 3, size=7)
def test_a_block_draw_is_each_replicates_own_stream(model_p, n, seed, lo, size):
    # replicate r of a block is generate() on default_rng([seed, r]), then the
    # stream's next integers(2**63), bit for bit; seeds of one and of two
    # 32-bit words, across block boundaries
    model, p = model_p
    sigma_eps = 1.0 if model is ModelKind.BINARY else 0.3
    scn = Scenario(model=model, n=n, p=p, c=0.5, sigma_eps=sigma_eps, seed=seed)
    x, y, seeds = simulate._draw_block(scn, lo, lo + size)
    assert x.shape == (size, n, p) and y.shape == (size, n) and len(seeds) == size
    for i, r in enumerate(range(lo, lo + size)):
        rng = np.random.default_rng([seed, r])
        data = generate(scn, rng=rng)
        assert x[i].tobytes() == data.x.tobytes()
        assert y[i].tobytes() == data.y.tobytes()
        assert seeds[i] == int(rng.integers(2**63))


def test_maximin_null_rate_is_sane():
    scn = Scenario(model=ModelKind.CUBIC, n=50, p=2, c=0.0, seed=42)
    check = MaximinCheck(weights=(WeightSpec.sum_abs(), WeightSpec.sum_squares()))
    res = monte_carlo(scn, check, reps=300, threads=4)
    assert 0.012 <= res.rejection_rate <= 0.088


def _stacked(scn, replicates, tie=False):
    """Replicates of a line stacked for ``run_block``, with covariates
    rounded to 0.5 when ``tie`` is set."""
    x, y, seeds = simulate._draw_block(scn, replicates.start, replicates.stop)
    return (np.round(2.0 * x) / 2.0 if tie else x), y, seeds


BUMP_11 = Scenario(model=ModelKind.BUMP, n=50, p=2, c=0.5, sigma_eps=0.3, seed=11)
CUBIC_12 = Scenario(model=ModelKind.CUBIC, n=50, p=2, c=0.5, seed=12)
CUBIC_P4 = Scenario(model=ModelKind.CUBIC, n=50, p=4, c=0.5, seed=13)


@pytest.mark.parametrize("scn, tie", [(BUMP_11, False), (CUBIC_12, True), (CUBIC_P4, False)],
                         ids=["bump-seed-11", "tied", "p4"])
@pytest.mark.parametrize("check", [ScoreCheck(), MaximinCheck(), OmnibusCheck(boot_m=100)],
                         ids=["score", "maximin", "omnibus"])
def test_a_replicate_does_not_depend_on_its_block(scn, tie, check):
    # replicates 130-149 of each line, run as one block, as blocks of one and
    # as blocks of 7 and 13: each replicate's report and h1 agree bit for bit.
    # At p = 2 the omnibus bootstrap holds its summands (2K = 50 <= m); at
    # p = 4 it holds E (2K = 2402 > m) while the block's summands stream by
    # columns, all datasets in step
    x, y, seeds = _stacked(scn, range(130, 150), tie)
    if tie:  # the rounded covariates tie projections: the smoother's tied-slot path
        _, _, slots = simulate.fit_stack(x, y)
        assert any(np.unique(row).size < scn.n for row in slots)

    def run(cuts):
        reports, h1 = [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part, part_h1 = simulate.run_block(x[lo:hi], y[lo:hi], check, 0.05, seeds[lo:hi])
            reports += part
            h1 += part_h1.tolist()
        return reports, h1

    whole, h1 = run([0, 20])
    if scn is BUMP_11 and isinstance(check, ScoreCheck):
        # replicate 136 keeps fewer than MIN_INTERIOR interior points: all n enter its sums
        assert whole[6].diagnostics["n_interior"] == scn.n
    for cuts in ([*range(21)], [0, 7, 20]):
        reports, other_h1 = run(cuts)
        assert other_h1 == h1
        assert [rep.to_json_dict() for rep in reports] == [rep.to_json_dict() for rep in whole]


_LARGE_BLOCK_LINES = [(ModelKind.CUBIC, 2), (ModelKind.BINARY, 2), (ModelKind.BUMP, 2),
                      (ModelKind.INTERACTION, 3)]


# a few drawn lines besides the examples; the ci profile's 500 draws 25 of them
@settings(max_examples=settings.default.max_examples // 20)
@given(check=st.sampled_from([ScoreCheck(), MaximinCheck()]), n=st.sampled_from([50, 200]),
       decimals=st.sampled_from([None, 1]), model_p=st.sampled_from(_LARGE_BLOCK_LINES),
       c=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
@example(check=ScoreCheck(), n=50, decimals=None, model_p=(ModelKind.CUBIC, 2), c=0.5, seed=21)
@example(check=ScoreCheck(), n=50, decimals=1, model_p=(ModelKind.CUBIC, 2), c=0.5, seed=21)
@example(check=ScoreCheck(), n=200, decimals=None, model_p=(ModelKind.CUBIC, 2), c=0.5, seed=21)
@example(check=MaximinCheck(), n=50, decimals=None, model_p=(ModelKind.CUBIC, 2), c=0.5, seed=21)
@example(check=MaximinCheck(), n=50, decimals=1, model_p=(ModelKind.CUBIC, 2), c=0.5, seed=21)
@example(check=MaximinCheck(), n=200, decimals=None, model_p=(ModelKind.CUBIC, 2), c=0.5,
         seed=21)
def test_a_large_block_is_each_replicates_block_of_one(check, n, decimals, model_p, c, seed):
    # a score or maximin line's first block, of block_size(n, check) replicates
    # (176 at n = 50, 43 at n = 200), against each replicate run as a block of
    # one: every report and h1 agree bit for bit.  The block's search passes
    # hold 5 bandwidths each, a block of one's all 30; covariates rounded to
    # 0.1 tie the projections, so the smoother's tied-slot path runs too
    model, p = model_p
    scn = Scenario(model=model, n=n, p=p, c=c, seed=seed)
    size = simulate.block_size(n, check)
    x, y, seeds = simulate._draw_block(scn, 0, size)
    if decimals is not None:
        x = np.round(x, decimals)
        assert any(np.unique(row).size < n for row in simulate.fit_stack(x, y)[2])
    reports, h1 = simulate.run_block(x, y, check, 0.05, seeds)
    for i in range(size):
        one, one_h1 = simulate.run_block(x[i:i + 1], y[i:i + 1], check, 0.05, seeds[i:i + 1])
        assert one_h1.tolist() == [h1[i]]
        assert one[0].to_json_dict() == reports[i].to_json_dict()


@pytest.mark.parametrize("n", [50, 200, 999])
@pytest.mark.parametrize("check", [ScoreCheck(), MaximinCheck()], ids=["score", "maximin"])
def test_a_full_block_stays_within_its_memory_bound(check, n):
    # a serial line's full block holds its data and the search's workspace:
    # the traced peak of deciding it stays below twice the workspace budget
    # plus 8 B n (p + 4) bytes for the block's data
    scn = Scenario(model=ModelKind.CUBIC, n=n, p=2, c=0.5, seed=9)
    size = simulate.block_size(n, check)
    x, y, seeds = simulate._draw_block(scn, 0, size)
    tracemalloc.start()
    try:
        simulate.decide_block(x, y, check, 0.05, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * WORKSPACE_BYTES + 8 * size * n * (scn.p + 4)


def test_a_failure_inside_a_block_names_its_replicate(monkeypatch):
    # replicate 7 of a 20-replicate block has a constant response, whose
    # least-squares slope is zero
    draw_block = simulate._draw_block

    def flat_7(scn, lo, hi):
        x, y, seeds = draw_block(scn, lo, hi)
        if lo <= 7 < hi:
            y[7 - lo] = 0.0
        return x, y, seeds

    monkeypatch.setattr(simulate, "_draw_block", flat_7)
    scn = Scenario(model=ModelKind.CUBIC, n=50, p=2, seed=3)
    assert simulate.block_size(scn.n, ScoreCheck()) >= 20
    with pytest.raises(RuntimeError, match="replicate 7 failed for scenario .*: least-squares "
                                           "slope vector is zero") as err:
        monte_carlo(scn, ScoreCheck(), reps=20)
    assert isinstance(err.value.__cause__, DegenerateDirectionError)


def test_a_block_that_fails_only_as_a_whole_names_its_replicates():
    class WholeBlocksFail(Stub):
        def run(self, block, alpha, seeds):
            if len(seeds) > 1:
                raise ValueError("boom")
            return super().run(block, alpha, seeds)

    scn, check = Scenario(model=ModelKind.CUBIC, n=30, p=2, seed=1), WholeBlocksFail(flip)
    assert simulate.block_size(scn.n, check) >= 12
    with pytest.raises(RuntimeError, match="replicates 0 to 11 failed as one block for scenario "
                                           ".*: boom"):
        monte_carlo(scn, check, reps=12)


@pytest.mark.parametrize("check", [ScoreCheck(), MaximinCheck(), OmnibusCheck()],
                         ids=["score", "maximin", "omnibus"])
def test_every_report_of_a_line_rejects_iff_p_is_at_most_alpha(check):
    # replicate 2 of this null line once read "reject" with p = 26/501 > 0.05:
    # its omnibus statistic lay between the 475th and the 476th replicate sups
    scn = Scenario(model=ModelKind.CUBIC, n=50, p=2, c=0.0, seed=103)
    x, y, seeds = _stacked(scn, range(40))
    reports, _ = simulate.run_block(x, y, check, 0.05, seeds)
    assert any(report.reject for report in reports)
    for report in reports:
        assert report.reject == (report.p_value <= report.alpha)
        if isinstance(check, MaximinCheck):
            assert report.reject == (report.statistic >= report.c_alpha)
        if isinstance(check, OmnibusCheck):
            assert report.reject == (report.statistic > report.critical_value)


NULL_103 = Scenario(model=ModelKind.CUBIC, n=50, p=2, c=0.0, seed=103)


def _decisions_and_reports(x, y, check, alpha, seeds):
    reports, _ = simulate.run_block(x, y, check, alpha, seeds)
    return simulate.decide_block(x, y, check, alpha, seeds), [rep.reject for rep in reports]


@pytest.mark.parametrize("scn, replicates, check, alpha, tie", [
    (NULL_103, range(40), OmnibusCheck(), 0.05, False),
    (Scenario(model=ModelKind.CUBIC, n=200, p=2, c=1.0, seed=9), range(8), OmnibusCheck(), 0.05,
     False),
    (Scenario(model=ModelKind.CUBIC, n=50, p=4, c=0.0, seed=4), range(6), OmnibusCheck(), 0.05,
     False),
    (Scenario(model=ModelKind.CUBIC, n=50, p=2, c=0.0, seed=17), range(40),
     OmnibusCheck(boot_m=100), 0.1, False),
    (CUBIC_12, range(130, 150), OmnibusCheck(), 0.05, True),
], ids=["null-n50", "power-n200", "p4-held-multipliers", "alpha-0.1-m100", "tied"])
def test_omnibus_decisions_are_the_reports_decisions(scn, replicates, check, alpha, tie):
    x, y, seeds = _stacked(scn, replicates, tie)
    decisions, rejects = _decisions_and_reports(x, y, check, alpha, seeds)
    assert decisions == rejects
    if scn.c == 1.0:
        assert all(decisions)
    elif scn.p == 4:  # 2K > m: E is held and the bootstrap cannot stop early
        assert 2 * omnibus.gamma_grid(4).half_points.shape[0] > check.boot_m
    else:
        assert True in decisions and False in decisions


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 120), p=st.sampled_from([2, 3]),
       c=st.sampled_from([0.0, 0.25, 0.5, 1.0]), alpha=st.sampled_from([0.01, 0.05, 0.1, 0.3]))
def test_omnibus_decisions_are_the_reports_decisions_on_any_line(seed, n, p, c, alpha):
    # at p = 3 the 172 half-grid columns outweigh E (2K = 344 > m = 100): E is
    # held while the summands stream by columns
    scn = Scenario(model=ModelKind.CUBIC, n=n, p=p, c=c, seed=seed)
    x, y, seeds = _stacked(scn, range(4))
    decisions, rejects = _decisions_and_reports(x, y, OmnibusCheck(boot_m=100), alpha, seeds)
    assert decisions == rejects


def _count_streams(monkeypatch):
    """Rows of E drawn, one entry per draw."""
    drawn = []
    multipliers = omnibus._multipliers

    def counting(words, n_int):
        drawn.append(len(words))
        return multipliers(words, n_int)

    monkeypatch.setattr(omnibus, "_multipliers", counting)
    return drawn


def test_a_retained_replicate_stops_drawing_streams(monkeypatch):
    # replicates 0-39 of a null line, each decided as a block of one: a
    # reject draws all m streams, a clear retain (p > 2 alpha) fewer; a
    # retain near alpha may need the last block too, as replicate 2 does
    drawn = _count_streams(monkeypatch)
    x, y, seeds = _stacked(NULL_103, range(40))
    reports, _ = simulate.run_block(x, y, OmnibusCheck(), 0.05, seeds)
    counts, decisions = [], []
    for i in range(40):
        drawn.clear()
        decisions += simulate.decide_block(x[i:i + 1], y[i:i + 1], OmnibusCheck(), 0.05,
                                           seeds[i:i + 1])
        counts.append(sum(drawn))
    assert decisions == [rep.reject for rep in reports]
    assert True in decisions and False in decisions
    assert (decisions[2], counts[2]) == (False, 500)
    for rep, count in zip(reports, counts):
        if rep.reject:
            assert count == 500
        elif rep.p_value > 0.1:
            assert count < 500
        else:
            assert count <= 500
    assert sum(counts) < 300 * 40
    # the same line through monte_carlo, run twice on one thread and twice
    # on two (the line is below THREADED_MIN_N, so the rule is lowered), draws
    # the same streams each time
    monkeypatch.setattr(simulate, "THREADED_MIN_N", 1)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    assert simulate.block_size(NULL_103.n, OmnibusCheck()) < 40  # two blocks, one per thread
    for threads in (1, 2, 1, 2):
        drawn.clear()
        res = monte_carlo(NULL_103, OmnibusCheck(), reps=40, threads=threads)
        assert res.rejection_rate == sum(decisions) / 40
        assert sum(drawn) == sum(counts)
