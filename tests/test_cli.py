import csv
import json

import numpy as np
import pytest

from sicheck import (
    ConfigError,
    Dataset,
    MaximinCheck,
    ModelKind,
    OmnibusCheck,
    Scenario,
    ScoreCheck,
    WeightSpec,
    generate,
    save_dataset,
)
from sicheck import simulate
from sicheck.cli import build_check, main, run_check, run_simulation
from sicheck.simulate import apply_check
from sicheck.smoother import DEFAULT_ALPHA


@pytest.fixture
def csv_path(tmp_path):
    scn = Scenario(model=ModelKind.CUBIC, n=60, p=2, c=0.0, seed=2024)
    path = tmp_path / "sample.csv"
    save_dataset(generate(scn), path)
    return path


def test_run_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        build_check("score", alpha="0.1")
    with pytest.raises(ConfigError):
        build_check("wrong")
    with pytest.raises(ConfigError):
        build_check("score", ["nope"])
    with pytest.raises(ConfigError):
        build_check("score", h=2.0)
    with pytest.raises(ConfigError):
        build_check("score", ["sumabs", "sumsq"])
    with pytest.raises(TypeError):
        build_check("score", bootm=50)
    with pytest.raises(ConfigError, match=r"unknown test \['score'\]; choose from"):
        build_check(["score"])
    with pytest.raises(ConfigError, match="omnibus test takes no weights"):
        build_check("omnibus", ["sumsq"])
    # omnibus settings are refused on the other tests, named with the test
    for test, given in (("score", {"boot_m": 50, "grid_bound": 0.0}),
                        ("maximin", {"grid_bound": 0})):
        with pytest.raises(ConfigError, match=f"{test} test takes no {', '.join(given)}"):
            build_check(test, **given)
    assert build_check("score", boot_m=None)[1]["boot_m"] is None  # None is left out
    _, settings = build_check("omnibus", boot_m=300.0, grid_bound=2)  # whole numbers
    assert (settings["boot_m"], settings["grid_bound"]) == (300, 2.0)
    assert type(settings["boot_m"]) is int and type(settings["grid_bound"]) is float
    # every value fails before the dataset is read: the file does not exist
    missing = str(tmp_path / "a.csv")
    with pytest.raises(ConfigError):
        run_check(missing, *build_check("score", alpha=1.5))
    for bad in ({"boot_m": 50}, {"grid_per_axis": 1}, {"grid_bound": 0.0},
                {"boot_m": 100, "alpha": 0.005}, {"seed": -1}):
        seed = bad.pop("seed", 0)
        with pytest.raises(ConfigError):
            run_check(missing, *build_check("omnibus", **bad), seed)


def test_run_check_score_fixed_bandwidth(csv_path):
    report = run_check(str(csv_path), *build_check("score", ["sumsq"], h=0.35), seed=4)
    assert report["test"] == "score"
    assert report["h"] == 0.35
    assert report["h1"] is None
    assert report["n"] == 60 and report["p"] == 2
    assert report["calibration"] == "normal"
    assert report["config"]["h"] == 0.35
    assert 0.0 <= report["p_value"] <= 1.0
    assert isinstance(report["reject"], bool)
    assert report["artifact_version"]
    json.dumps(report)  # fully serializable


def test_run_check_auto_bandwidth_reports_pilot(csv_path):
    report = run_check(str(csv_path), *build_check("score"))
    assert report["h1"] is not None
    assert 0 < report["h"] < report["h1"]


def test_run_check_maximin(csv_path):
    report = run_check(str(csv_path), *build_check("maximin"))
    assert report["test"] == "maximin"
    assert report["d"] == 2
    assert report["calibration"] == "chi-square"


def test_run_check_omnibus_scenario_fixed_seed(tmp_path):
    scn = Scenario(model=ModelKind.CUBIC, n=60, p=2, c=0.0, seed=12345)
    path = tmp_path / "scenario.csv"
    save_dataset(generate(scn), path)
    check, settings = build_check("omnibus", alpha=0.05, boot_m=300)
    report = run_check(str(path), check, settings, seed=7)
    # frozen from a direct run of this configuration: the null is retained
    assert report["reject"] is False
    assert report["p_value"] > 0.05
    assert report["calibration"] == "bootstrap-m=300"
    assert report["config"]["input"] == str(path)


def test_run_check_rejects_cf_for_score(csv_path):
    with pytest.raises(ConfigError, match="unknown weight 'cf'"):
        build_check("score", ["cf"])


def test_main_omnibus_config_is_the_library_defaults(tmp_path, csv_path):
    """A bare omnibus check echoes OmnibusCheck's defaults and DEFAULT_ALPHA."""
    out = tmp_path / "report.json"
    assert main(["check", "--input", str(csv_path), "--test", "omnibus", "--out", str(out)]) == 0
    defaults = OmnibusCheck()
    assert json.loads(out.read_text())["config"] == {
        "test": "omnibus", "weights": None, "alpha": DEFAULT_ALPHA, "h": "auto",
        "boot_m": defaults.boot_m, "grid_bound": defaults.grid_bound,
        "grid_per_axis": defaults.grid_per_axis, "seed": 0, "input": str(csv_path),
    }


@pytest.mark.parametrize("test, cls, labels", [
    ("score", ScoreCheck, ["sumabs"]), ("maximin", MaximinCheck, ["sumabs", "sumsq"]),
])
def test_build_check_records_the_class_defaults(test, cls, labels):
    """Weights default on the check class, and the record holds None for the grid."""
    check, settings = build_check(test)
    assert check.label == cls().label
    assert settings == {"test": test, "weights": labels,
                        "alpha": DEFAULT_ALPHA, "h": None,
                        "boot_m": None, "grid_bound": None, "grid_per_axis": None}


def test_build_check_records_no_weights_for_omnibus():
    check, settings = build_check("omnibus", h=0.3, grid_per_axis=5)
    assert settings["weights"] is None
    assert (settings["h"], settings["grid_per_axis"]) == (check.h, check.grid_per_axis) == (0.3, 5)


# rejects on some of replicates 0-3 and not on others, for each test
AGREE_SCN = Scenario(model=ModelKind.CUBIC, n=60, p=2, c=0.3, seed=809)


@pytest.mark.parametrize("test, check", [
    ("score", ScoreCheck(weight=WeightSpec.sum_abs())),
    ("maximin", MaximinCheck(weights=(WeightSpec.sum_abs(), WeightSpec.sum_squares()))),
    ("omnibus", OmnibusCheck()),
])
def test_check_agrees_with_simulate_replicates(tmp_path, test, check):
    """`check` on replicate r's data decides as replicate r of `simulate` does."""
    rejects = simulate._block_rejects(AGREE_SCN, check, 0.05, 0, 4)
    for r in range(4):
        rng = np.random.default_rng([AGREE_SCN.seed, r])
        path, out = tmp_path / f"rep{r}.csv", tmp_path / f"rep{r}.json"
        save_dataset(generate(AGREE_SCN, rng=rng), path)
        boot_seed = int(rng.integers(2**63))  # the replicate's bootstrap seed
        code = main(["check", "--input", str(path), "--test", test,
                     "--seed", str(boot_seed), "--out", str(out)])
        assert code == 0
        reject = json.loads(out.read_text())["reject"]
        assert reject == rejects[r]


COMMON_KEYS = {"test", "statistic", "p_value", "reject", "alpha", "calibration", "h", "n",
               "weight_kinds", "diagnostics"}


@pytest.mark.parametrize("check, own_keys", [
    (ScoreCheck(), {"t_hat", "sigma_n2", "d"}),
    (MaximinCheck(), {"c_alpha", "d", "t_vec", "sigma_mat"}),
    (OmnibusCheck(boot_m=100), {"critical_value", "m", "seed", "grid"}),
], ids=["score", "maximin", "omnibus"])
def test_report_json_is_exactly_its_fields_and_strict_json(check, own_keys):
    data = generate(Scenario(model=ModelKind.CUBIC, n=60, p=2, seed=7))
    report, _ = apply_check(data, check, DEFAULT_ALPHA, seed=3)
    js = report.to_json_dict()
    assert set(js) == COMMON_KEYS | own_keys
    assert json.loads(json.dumps(js, allow_nan=False)) == js  # every value JSON-native


def test_main_score_writes_report(tmp_path, csv_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "check", "--input", str(csv_path), "--test", "score", "--weight", "sumabs",
        "--h", "0.35", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "p_value=" in printed and "calibration=" in printed
    report = json.loads(out.read_text())
    assert report["test"] == "score"
    assert report["h"] == 0.35


def test_main_rejects_bad_alpha(csv_path, capsys):
    code = main([
        "check", "--input", str(csv_path), "--test", "score", "--alpha", "1.5",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_main_reports_missing_file(tmp_path, capsys):
    code = main(["check", "--input", str(tmp_path / "nope.csv"), "--test", "score"])
    assert code != 0


def test_main_refuses_a_cell_beyond_the_csv_field_limit(csv_path, capsys):
    # the csv module reads the header and refuses its 200 002-character first name;
    # numpy's parser reads the body, where a cell that long loads
    lines = csv_path.read_text().split("\n")
    lines[0] = "x" * 200_000 + lines[0]
    csv_path.write_text("\n".join(lines))
    code = main(["check", "--input", str(csv_path), "--test", "score"])
    assert code == 2
    assert "row 1: field larger than field limit" in capsys.readouterr().err


def test_main_bad_h_string(csv_path, capsys):
    code = main(["check", "--input", str(csv_path), "--test", "score", "--h", "soon"])
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (["--grid-bound", "1e308"], "grid bound 1e+308 overflows the phases"),
    (["--weight", "sumsq"], "omnibus test takes no weights"),
])
def test_main_omnibus_refuses_bad_settings(csv_path, capsys, flags, message):
    code = main(["check", "--input", str(csv_path), "--test", "omnibus", *flags])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("test", ["score", "maximin", "omnibus"])
def test_main_check_refuses_a_seed_outside_64_bits_for_every_test(tmp_path, csv_path, capsys,
                                                                  test, seed):
    out = tmp_path / "report.json"
    code = main(["check", "--input", str(csv_path), "--test", test, "--seed", str(seed),
                 "--out", str(out)])
    assert code == 2
    assert f"seed must be an unsigned 64-bit integer, got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("test, flags", [
    ("score", []), ("maximin", []), ("omnibus", ["--boot-m", "100"]),
])
def test_main_refuses_overflowing_sums(tmp_path, capsys, test, flags):
    rng = np.random.default_rng(7)
    x = np.rint(rng.standard_normal((200, 2)))  # integer covariates: many tied ranks
    path, out = tmp_path / "tied.csv", tmp_path / "report.json"
    save_dataset(Dataset(x=x, y=(x @ np.ones(2)) ** 3 + rng.standard_normal(200)), path)
    code = main(["check", "--input", str(path), "--test", test, "--h", "1e-300",
                 "--out", str(out), *flags])
    captured = capsys.readouterr()
    assert code == 2
    # n h <= 1: refused before the tied slot mates can overflow the sums
    assert "h=1e-300 reaches no neighbouring rank at n=200" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
@pytest.mark.parametrize("test, flags", [
    ("score", []), ("maximin", []), ("omnibus", ["--boot-m", "100"]),
])
def test_main_refuses_a_bandwidth_reaching_no_neighbour(tmp_path, capsys, test, flags, tied):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((200, 2))
    if tied:
        x = np.rint(x)
    path, out = tmp_path / "data.csv", tmp_path / "report.json"
    save_dataset(Dataset(x=x, y=(x @ np.ones(2)) ** 3 + rng.standard_normal(200)), path)
    code = main(["check", "--input", str(path), "--test", test, "--h", "0.001",
                 "--out", str(out), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert "h=0.001 reaches no neighbouring rank at n=200" in captured.err
    assert captured.out == "" and not out.exists()


def test_main_simulate_refuses_a_fixed_h_reaching_no_neighbour_before_any_line(
        tmp_path, capsys):
    # line 2's h has n h = 0.8: refused up front, so line 1 writes no row either
    line = {"model": "cubic", "n": 40, "p": 2, "seed": 5, "test": "score", "reps": 2}
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps(line) + "\n" + json.dumps(dict(line, n=200, h=0.004)) + "\n")
    out = tmp_path / "mc.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2: bandwidth h=0.004 reaches no neighbouring rank at n=200" in err
    assert not out.exists()


def test_main_refuses_a_search_that_overflows(tmp_path, capsys):
    # squares of responses near 1e160 overflow the whole MISE curve, whose
    # argmin would then be the grid floor whatever the data
    data = generate(Scenario(model=ModelKind.CUBIC, n=50, p=2, seed=39))
    path, out = tmp_path / "large.csv", tmp_path / "report.json"
    save_dataset(Dataset(x=data.x, y=1e160 * data.y), path)
    code = main(["check", "--input", str(path), "--test", "omnibus", "--boot-m", "200",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "the bandwidth search overflows" in captured.err
    assert "too large for the float range; rescale them" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("test, flags, expected", [
    ("score", [], 2), ("maximin", [], 2), ("omnibus", ["--boot-m", "100"], 0),
])
def test_main_refuses_sums_that_overflow_on_the_data_scale(tmp_path, capsys, test, flags, expected):
    # n h = 20, but the score covariance squares eps (W - Wbar), about 1e165;
    # the omnibus sup takes moduli and never squares, so it runs
    rng = np.random.default_rng(7)
    x = rng.standard_normal((200, 2))
    y = 1e155 * ((x @ np.ones(2)) ** 3 + rng.standard_normal(200))
    path, out = tmp_path / "large.csv", tmp_path / "report.json"
    save_dataset(Dataset(x=1e10 * x, y=y), path)
    code = main(["check", "--input", str(path), "--test", test, "--h", "0.1",
                 "--out", str(out), *flags])
    captured = capsys.readouterr()
    assert code == expected
    if expected == 2:
        assert "overflow at bandwidth h=0.1" in captured.err
        assert captured.out == "" and not out.exists()


BATCH = (
    '{"model": "cubic", "n": 40, "p": 2, "c": 0.0, "seed": 5, '
    '"test": "score", "weight": "sumabs", "reps": 30}\n'
    '{"model": "bump", "n": 40, "p": 2, "c": 0.5, "sigma_eps": 0.5, "seed": 6, '
    '"test": "score", "weight": "sumsq", "reps": 30}\n'
)


def test_run_simulation_batch(tmp_path):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(BATCH)
    out = tmp_path / "results.csv"
    count = run_simulation(batch, out, threads=1)
    assert count == 2
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("model,n,p,beta,c,sigma_eps,seed,test,alpha,reps")
    assert lines[1].split(",")[0] == "cubic"


def test_run_simulation_deterministic_across_threads(tmp_path):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(BATCH)
    out1, out2, out3 = (tmp_path / f"r{i}.csv" for i in range(3))
    run_simulation(batch, out1, threads=1)
    run_simulation(batch, out2, threads=4)
    run_simulation(batch, out3, threads=1)
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_main_simulate_threads_a_line_at_the_threshold(tmp_path, monkeypatch):
    started = []

    class Counting(simulate.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Counting)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
    n = simulate.THREADED_MIN_N
    batch = tmp_path / "batch.jsonl"
    batch.write_text(
        json.dumps({"model": "cubic", "n": n, "p": 2, "seed": 5, "test": "score", "reps": 4})
        + "\n" + json.dumps({"model": "cubic", "n": n, "p": 2, "c": 0.5, "seed": 6,
                              "test": "omnibus", "boot_m": 100, "reps": 3}) + "\n"
    )
    outs = []
    for threads in (1, 2):
        outs.append(tmp_path / f"t{threads}.csv")
        argv = ["simulate", "--batch", str(batch), "--out", str(outs[-1]), "--threads", str(threads)]
        assert main(argv) == 0
    assert started == [2, 2]  # one pool per line, and only at --threads 2
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_run_simulation_empty_batch(tmp_path):
    batch = tmp_path / "empty.jsonl"
    batch.write_text("\n# comment only\n")
    out = tmp_path / "out.csv"
    assert run_simulation(batch, out) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1


def test_run_simulation_reports_bad_line(tmp_path):
    batch = tmp_path / "bad.jsonl"
    batch.write_text('{"model": "cubic", "n": 40, "p": 2, "test": "score"}\nnot json\n')
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError) as err:
        run_simulation(batch, out)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("bad", [
    {"h": 2.0}, {"boot_m": 50}, {"grid_per_axis": 1}, {"reps": 0}, {"alpha": 1.5},
    {"boot_m": 100, "alpha": 0.005},
    # a weight key on a line whose test does not take it
    {"test": "score", "weights": ["sumsq"]}, {"test": "maximin", "weight": "sumsq"},
    {"weights": ["sumsq"]}, {"weight": "sumabs"},
    # numbers are not coerced: fractions, booleans, strings, non-finite values, nulls
    {"n": 50.9}, {"reps": 2.7}, {"seed": 1.9}, {"reps": True}, {"c": True},
    {"n": "50"}, {"c": "0.5"}, {"alpha": "0.1"}, {"beta": [0.6, "0.8"]},
    {"grid_bound": float("inf")}, {"c": 10**400}, {"alpha": None},
    # the index fit needs n > p + 1
    {"n": 3},
    # omnibus settings on another test, and a test name that is not a string
    {"test": "score", "boot_m": 50, "grid_per_axis": 1}, {"test": "maximin", "grid_bound": 0},
    {"test": ["score"]},
    # a c_interaction that is not a triple, and an omnibus grid beyond the supported dimension
    {"model": "interaction", "p": 3, "c_interaction": [0.5, 0.5]}, {"p": 26},
    # a departure size c that c_interaction would silently replace
    {"model": "interaction", "p": 3, "c": 0.5, "c_interaction": [1, 1, 1]},
    # a grid bound whose phases gamma'z may overflow at this n and p
    {"grid_bound": 1e308},
])
def test_run_simulation_validates_every_line_first(tmp_path, bad):
    line = {"model": "cubic", "n": 40, "p": 2, "seed": 5, "test": "omnibus",
            "boot_m": 120, "reps": 2}
    batch = tmp_path / "bad.jsonl"
    batch.write_text(json.dumps(line) + "\n" + json.dumps(dict(line, **bad)) + "\n")
    out = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match="line 2"):
        run_simulation(batch, out)
    assert not out.exists()


def test_main_simulate_unwritable_out_fails_before_any_replicate(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate, "_draw_block", never)
    batch = tmp_path / "batch.jsonl"
    batch.write_text(BATCH.splitlines()[0] + "\n")
    out = tmp_path / "missing" / "mc.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out)])
    assert code == 1
    assert "No such file or directory" in capsys.readouterr().err


def test_main_simulate_keeps_rows_of_finished_lines(tmp_path, capsys, monkeypatch):
    draw_block = simulate._draw_block

    def fail_seed_6(scn, lo, hi):
        if scn.seed == 6:
            raise ValueError("boom")
        return draw_block(scn, lo, hi)

    monkeypatch.setattr(simulate, "_draw_block", fail_seed_6)
    line = {"model": "cubic", "n": 40, "p": 2, "seed": 5, "test": "score", "reps": 2}
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps(line) + "\n" + json.dumps(dict(line, seed=6)) + "\n")
    out = tmp_path / "mc.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out)])
    assert code == 1
    assert "replicate 0 failed" in capsys.readouterr().err
    first = tmp_path / "first.jsonl"
    first.write_text(json.dumps(line) + "\n")
    run_simulation(first, tmp_path / "first.csv")
    assert out.read_bytes() == (tmp_path / "first.csv").read_bytes()  # header and row 1


def test_main_simulate_names_the_failing_replicate_of_a_block(tmp_path, capsys, monkeypatch):
    # the second line's replicate 7 fails inside a block of 20; the first
    # line's row stays written
    draw_block = simulate._draw_block

    def flat_7(scn, lo, hi):
        x, y, seeds = draw_block(scn, lo, hi)
        if scn.seed == 6 and lo <= 7 < hi:
            y[7 - lo] = 0.0
        return x, y, seeds

    monkeypatch.setattr(simulate, "_draw_block", flat_7)
    line = {"model": "cubic", "n": 50, "p": 2, "seed": 5, "test": "score", "reps": 20}
    assert simulate.block_size(50, simulate.ScoreCheck()) >= 20
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps(line) + "\n" + json.dumps(dict(line, seed=6)) + "\n")
    out = tmp_path / "mc.csv"
    assert main(["simulate", "--batch", str(batch), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "replicate 7 failed" in err and "least-squares slope vector is zero" in err
    first = tmp_path / "first.jsonl"
    first.write_text(json.dumps(line) + "\n")
    run_simulation(first, tmp_path / "first.csv")
    assert out.read_bytes() == (tmp_path / "first.csv").read_bytes()  # header and row 1


def test_main_simulate_refuses_undecodable_batch(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    line = BATCH.splitlines()[0]
    batch.write_bytes(b"# caf\xe9 sweep\n" + line.encode() + b"\n")
    out = tmp_path / "mc.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(batch) in err and "UTF-8" in err
    assert not out.exists()


def test_run_simulation_reads_a_byte_order_mark(tmp_path):
    line = BATCH.splitlines()[0]
    plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
    plain.write_text(line + "\n")
    marked.write_bytes(b"\xef\xbb\xbf" + line.encode() + b"\n")
    run_simulation(plain, tmp_path / "a.csv")
    run_simulation(marked, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_simulation_reports_unknown_model(tmp_path):
    batch = tmp_path / "bad.jsonl"
    batch.write_text('{"model": "quartic", "n": 40, "p": 2, "test": "score"}\n')
    with pytest.raises(ConfigError) as err:
        run_simulation(batch, tmp_path / "out.csv")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("misspelt", ["bootm", "rep"])
def test_main_simulate_rejects_unknown_key(tmp_path, capsys, misspelt):
    line = {"model": "cubic", "n": 40, "p": 2, "seed": 5, "test": "omnibus",
            "boot_m": 120, "reps": 2}
    batch = tmp_path / "bad.jsonl"
    batch.write_text(json.dumps(line) + "\n" + json.dumps(dict(line, **{misspelt: 50})) + "\n")
    out = tmp_path / "out.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and repr(misspelt) in err
    assert not out.exists()


def test_main_simulate_rejects_repeated_key(tmp_path, capsys):
    batch = tmp_path / "bad.jsonl"
    batch.write_text('{"model": "cubic", "n": 40, "p": 2, "test": "score", "reps": 2}\n'
                     '{"model": "cubic", "n": 40, "p": 2, "test": "score", "reps": 2, "reps": 7,'
                     ' "seed": 1}\n')
    out = tmp_path / "out.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and "'reps' is repeated" in err
    assert not out.exists()


def test_main_simulate_rejects_binary_noise_scale(tmp_path, capsys):
    line = {"model": "binary", "n": 40, "p": 2, "seed": 5, "test": "score", "reps": 2}
    batch = tmp_path / "bad.jsonl"
    batch.write_text(json.dumps(line) + "\n" + json.dumps(dict(line, sigma_eps=2)) + "\n")
    out = tmp_path / "out.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and "sigma_eps" in err
    assert not out.exists()


def test_run_simulation_rows_record_fixed_values(tmp_path):
    base = {"model": "cubic", "n": 40, "p": 2, "seed": 5, "reps": 2}
    lines = [
        dict(base, test="score", h=0.3),
        dict(base, test="score", h=0.5),
        dict(base, test="maximin"),
        dict(base, test="omnibus", boot_m=100, grid_bound=2.0, grid_per_axis=5),
        dict(base, test="omnibus", boot_m=100, h=0.4),
    ]
    batch = tmp_path / "batch.jsonl"
    batch.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "out.csv"
    run_simulation(batch, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fixed = [(row["h"], row["grid_bound"], row["grid_per_axis"]) for row in rows]
    assert fixed == [
        ("0.3", "", ""),
        ("0.5", "", ""),
        ("", "", ""),
        ("", "2.0", "5"),
        ("0.4", "3.0", "7"),
    ]


def test_run_simulation_rows_record_c_interaction(tmp_path):
    line = {"model": "interaction", "n": 40, "p": 3, "seed": 5, "test": "maximin", "reps": 2}
    batch = tmp_path / "batch.jsonl"
    batch.write_text(json.dumps(line) + "\n"
                     + json.dumps(dict(line, c_interaction=[3, 3, 0.5])) + "\n")
    out = tmp_path / "out.csv"
    run_simulation(batch, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["c"] for row in rows] == ["0.0", "0.0"]
    assert [row["c_interaction"] for row in rows] == ["", "3.0;3.0;0.5"]


def test_main_simulate_refuses_zero_threads_before_writing(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(BATCH)
    out = tmp_path / "mc.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out), "--threads", "0"])
    assert code == 2
    assert "thread count" in capsys.readouterr().err
    assert not out.exists()


def test_main_simulate_roundtrip(tmp_path, capsys):
    batch = tmp_path / "batch.jsonl"
    batch.write_text(BATCH.splitlines()[0] + "\n")
    out = tmp_path / "mc.csv"
    code = main(["simulate", "--batch", str(batch), "--out", str(out), "--threads", "2"])
    assert code == 0
    assert out.exists()
    assert "wrote 1 result rows" in capsys.readouterr().out


PINNED_BATCH = """\
{"model": "cubic", "p": 2, "c": 0.0, "test": "score", "weight": "sumabs", "n": 50, "seed": 11, "reps": 300}
{"model": "binary", "p": 2, "c": 0.0, "test": "score", "weight": "sumabs", "n": 50, "seed": 12, "reps": 300}
{"model": "cubic", "p": 2, "c": 0.0, "test": "omnibus", "boot_m": 500, "n": 50, "seed": 13, "reps": 100}
{"model": "bump", "p": 2, "c": 0.5, "sigma_eps": 0.3, "test": "score", "weight": "sumabs", "n": 50, "seed": 14, "reps": 300}
{"model": "interaction", "p": 3, "c": 1.0, "test": "maximin", "n": 50, "seed": 15, "reps": 300}
{"model": "cubic", "p": 2, "c": 1.0, "test": "omnibus", "n": 200, "seed": 16, "reps": 50}
"""


def test_main_simulate_reproduces_pinned_rejection_rates(tmp_path):
    # Rates of the reference implementation, with one MISE evaluation per
    # bandwidth and one default_rng per bootstrap stream: a flipped
    # bandwidth argmin or a drifted stream changes them.
    batch = tmp_path / "batch.jsonl"
    batch.write_text(PINNED_BATCH)
    out = tmp_path / "mc.csv"
    assert main(["simulate", "--batch", str(batch), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rates = [row["rejection_rate"] for row in csv.DictReader(fh)]
    assert rates == [
        "0.043333333333333335",
        "0.04666666666666667",
        "0.08",
        "0.5066666666666667",
        "0.85",
        "0.98",
    ]
