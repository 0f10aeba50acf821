#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``sicheck check`` and ``sicheck simulate``.

Usage, from the repository root:

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 25 --trace 0

Workloads (each a closed loop with one client; see README.md for why):

    check-large   ``check --h auto`` cycling score, maximin, omnibus on p = 2,
                  n = 2000 CSVs mixing cubic c = 0, cubic c = 1 and a tied
                  set with covariates rounded to one decimal.
    omnibus-wide  ``check --test omnibus --h 0.05 --boot-m 1000`` on p = 3
                  interaction-model CSVs (c in {0, 1}), n = 2000, 343
                  frequencies.
    mc-small      ``simulate`` on five n = 50 scenarios, each batch line run
                  at ``--threads 1`` and at ``--threads`` = CPU count.

Every operation gets its own input, generated from ``--seed`` and written
before timing starts.  The loop runs in a fresh worker process with BLAS
pinned to one thread.  Afterwards every output is checked (and a sample
against the brute-force oracle in oracle.py); any failure counts in
``failed``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from spans.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  ``--tiny`` shrinks every
input for a quick self-test (smoke.py).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402  (after pinning BLAS threads)

import oracle  # noqa: E402
from tracer import NAMES, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CPUS = len(os.sched_getaffinity(0))

ALPHA = 0.05
#: A null line's rejection rate may sit this many binomial standard errors
#: from alpha.  At the sizes these n = 50 tests have (0.05 to 0.06 over
#: 600 to 2000 replicates), chance alone trips it about once in 10^5 lines.
BAND_Z = 6.0
CHECK_TESTS = ("score", "maximin", "omnibus")
CHECK_KINDS = ("cubic-c0", "cubic-c1", "tied-c0")
BETA2 = np.array([1.0, -1.0]) / math.sqrt(2.0)
BETA3 = np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0)
WIDE_H = 0.05
WIDE_M = 1000
MC_N = 50
MC_SCENARIOS = (
    {"model": "cubic", "p": 2, "c": 0.0, "test": "score", "weight": "sumabs"},
    {"model": "binary", "p": 2, "c": 0.0, "test": "score", "weight": "sumabs"},
    {"model": "cubic", "p": 2, "c": 0.0, "test": "omnibus", "boot_m": 500},
    {"model": "bump", "p": 2, "c": 0.5, "sigma_eps": 0.3, "test": "score", "weight": "sumabs"},
    {"model": "interaction", "p": 3, "c": 1.0, "test": "maximin"},
)

#: Input sizes: the benchmark proper, and the self-test.
SIZES = {
    False: {"n": 2000, "reps": 100, "omnibus_reps": 40, "setup_runs": 6},
    True: {"n": 60, "reps": 10, "omnibus_reps": 4, "setup_runs": 2},
}

# ---------------------------------------------------------------- inputs


def write_csv(path, x, y) -> None:
    header = ",".join([f"x{j + 1}" for j in range(x.shape[1])] + ["y"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header, comments="", fmt="%.17g")


def check_dataset(rng, n, kind):
    x = rng.standard_normal((n, 2))
    if kind == "tied-c0":
        x = np.round(x, 1)
    c = 1.0 if kind == "cubic-c1" else 0.0
    return x, (x @ BETA2) ** 3 + c * np.abs(x).sum(axis=1) + rng.standard_normal(n)


def wide_dataset(rng, n, c):
    x = rng.standard_normal((n, 3))
    pairs = np.abs(x[:, 0] * x[:, 1]) + np.abs(x[:, 0] * x[:, 2]) + np.abs(x[:, 1] * x[:, 2])
    return x, (x @ BETA3) ** 3 + c * pairs + rng.standard_normal(n)


def plan_check_large(work, seed, seconds, sizes):
    ops = []
    for k in range(pool_size(seconds)):
        test = CHECK_TESTS[k % 3]
        kind = CHECK_KINDS[(k // 3 + seed) % 3]
        path = work / f"op{k}.csv"
        write_csv(path, *check_dataset(np.random.default_rng([seed, k]), sizes["n"], kind))
        out = work / f"op{k}.json"
        argv = ["check", "--input", str(path), "--test", test, "--h", "auto", "--out", str(out)]
        ops.append({"argv": argv, "kind": test, "reps": 1, "first_in_group": k % 3 == 0,
                    "csv": str(path), "out": str(out), "test": test, "n": sizes["n"],
                    "fixed_h": None, "m": 500, "seed": 0})
    warm = work / "warm.csv"
    write_csv(warm, *check_dataset(np.random.default_rng([seed, 2**32 - 1]), 60, "cubic-c0"))
    warmup = [["check", "--input", str(warm), "--test", t, "--out", str(work / "warm.json")]
              for t in CHECK_TESTS]
    probe = {"csv": ops[0]["csv"], "h": 0.3 * sizes["n"] ** (-1.0 / 3.0), "m": 500}
    return ops, warmup, probe


def plan_omnibus_wide(work, seed, seconds, sizes):
    ops = []
    for k in range(pool_size(seconds)):
        rng = np.random.default_rng([seed, k])
        path = work / f"op{k}.csv"
        write_csv(path, *wide_dataset(rng, sizes["n"], float(k % 2)))
        out = work / f"op{k}.json"
        boot_seed = int(rng.integers(2**32))
        argv = ["check", "--input", str(path), "--test", "omnibus", "--h", str(WIDE_H),
                "--boot-m", str(WIDE_M), "--seed", str(boot_seed), "--out", str(out)]
        ops.append({"argv": argv, "kind": "omnibus", "reps": 1, "first_in_group": k % 2 == 0,
                    "csv": str(path), "out": str(out), "test": "omnibus", "n": sizes["n"],
                    "fixed_h": WIDE_H, "m": WIDE_M, "seed": boot_seed})
    warm = work / "warm.csv"
    write_csv(warm, *wide_dataset(np.random.default_rng([seed, 2**32 - 1]), 60, 0.0))
    warmup = [["check", "--input", str(warm), "--test", "omnibus", "--h", str(WIDE_H),
               "--out", str(work / "warm.json")]]
    probe = {"csv": ops[0]["csv"], "h": WIDE_H, "m": WIDE_M}
    return ops, warmup, probe


def mc_line(scenario, seed, reps):
    return dict(scenario, n=MC_N, seed=seed, reps=reps, alpha=ALPHA)


def plan_mc_small(work, seed, seconds, sizes):
    ops = []
    # Today a line takes about 0.3 s at each thread count; 8x the check pool
    # leaves the same tenfold headroom.
    for k in range(8 * pool_size(seconds)):
        scenario = MC_SCENARIOS[k % len(MC_SCENARIOS)]
        reps = sizes["omnibus_reps"] if scenario["test"] == "omnibus" else sizes["reps"]
        line = mc_line(scenario, seed * 1_000_003 + k, reps)
        batch = work / f"line{k}.jsonl"
        batch.write_text(json.dumps(line) + "\n")
        name = f"{scenario['model']}/{scenario['test']}"
        for threads in (1, CPUS):
            out = work / f"line{k}-t{threads}.csv"
            argv = ["simulate", "--batch", str(batch), "--out", str(out), "--threads", str(threads)]
            ops.append({"argv": argv, "kind": f"{name}@{threads}", "reps": line["reps"],
                        "first_in_group": k % len(MC_SCENARIOS) == 0 and threads == 1,
                        "out": str(out), "line": line,
                        "threads": threads})
    warm = work / "warm.jsonl"
    warm.write_text("".join(json.dumps(mc_line(s, k, reps=2)) + "\n"
                            for k, s in enumerate(MC_SCENARIOS)))
    warmup = [["simulate", "--batch", str(warm), "--out", str(work / "warm.csv"),
               "--threads", str(CPUS)]]
    probe_csv = work / "probe.csv"
    write_csv(probe_csv, *check_dataset(np.random.default_rng([seed, 2**32 - 2]), MC_N, "cubic-c0"))
    probe = {"csv": str(probe_csv), "h": 0.3 * MC_N ** (-1.0 / 3.0), "m": 500}
    return ops, warmup, probe


def pool_size(seconds) -> int:
    """Inputs generated per run: room for operations ten times faster than
    today's before the loop runs out of distinct inputs."""
    return 4 * int(seconds) + 6


WORKLOADS = {
    "check-large": plan_check_large,
    "omnibus-wide": plan_omnibus_wide,
    "mc-small": plan_mc_small,
}


# ---------------------------------------------------------------- checks


def check_report(op, report) -> list[str]:
    """Problems with one ``check`` operation's report."""
    problems = []
    if report.get("test") != op["test"] or report.get("n") != op["n"]:
        problems.append(f"test {report.get('test')!r} with n {report.get('n')!r}")
    if not math.isfinite(report["statistic"]):
        problems.append(f"statistic {report['statistic']!r}")
    if not 0.0 <= report["p_value"] <= 1.0:
        problems.append(f"p_value {report['p_value']!r}")
    if op["fixed_h"] is not None:
        if report["h"] != op["fixed_h"] or report["h1"] is not None:
            problems.append(f"h {report['h']!r} / h1 {report['h1']!r} for fixed h {op['fixed_h']}")
    elif not math.isclose(report["h"], report["h1"] * report["n"] ** oracle.UNDERSMOOTH, rel_tol=1e-12):
        problems.append(f"h {report['h']!r} != h1 * n^(-2/15) for h1 {report['h1']!r}")
    return problems


def check_outputs(workload, ops, records) -> tuple[set[int], list[str]]:
    """Indices of failed operations and a message for each problem."""
    failed, messages = set(), []

    def fail(index, text):
        failed.add(index)
        messages.append(f"op {index} ({ops[index]['kind']}): {text}")

    for index, record in enumerate(records):
        if record["error"]:
            fail(index, record["error"].strip().splitlines()[-1])
        elif record["code"] != 0:
            fail(index, f"exit code {record['code']}")
    if workload == "mc-small":
        for index in range(0, len(records) - 1, 2):
            if {index, index + 1} & failed:
                continue
            try:
                serial = Path(ops[index]["out"]).read_bytes()
                if Path(ops[index + 1]["out"]).read_bytes() != serial:
                    fail(index + 1, "CSV differs from the --threads 1 run")
                line = ops[index]["line"]
                rate = float(next(csv.DictReader(serial.decode().splitlines()))["rejection_rate"])
            except (OSError, StopIteration, KeyError, ValueError) as exc:
                fail(index, f"unreadable CSV: {exc!r}")
                continue
            half = BAND_Z * math.sqrt(ALPHA * (1.0 - ALPHA) / line["reps"])
            if line["c"] == 0.0 and abs(rate - ALPHA) > half:
                fail(index, f"null rejection rate {rate} outside {ALPHA} +/- {half:.3g}")
        return failed, messages
    to_sample = list(CHECK_TESTS)  # the oracle checks the first op of each test
    for index in range(len(records)):
        if index in failed:
            continue
        op = ops[index]
        try:
            with open(op["out"]) as fh:
                report = json.load(fh)
            problems = check_report(op, report)
            if not problems and op["test"] in to_sample:
                to_sample.remove(op["test"])
                problems = ["oracle: " + text for text in oracle.check_report(
                    op["csv"], report, op["test"], op["m"], op["seed"], op["fixed_h"])]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"malformed report: {exc!r}"]
        for text in problems:
            fail(index, text)
    return failed, messages


# ---------------------------------------------------------------- metrics


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it.  Below 21 samples that percentile would sit
    under the median, so the maximum stands in for it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def rate(ops, records, keep):
    """Replicates per second over one operation of each kept kind at its
    median time, so that neither the mix of kinds in a run nor one slow
    operation moves the figure."""
    by_kind = {}
    for op, record in zip(ops, records):
        if keep(op):
            by_kind.setdefault(op["kind"], []).append((op["reps"], record["wall"]))
    reps = sum(runs[0][0] for runs in by_kind.values())
    wall = sum(statistics.median(w for _, w in runs) for runs in by_kind.values())
    return reps / wall


def latency_sample(workload, ops, records):
    """Wall times behind check_p50_s and check_tail_s, with their label.

    In mc-small only the --threads 1 lines count: threaded lines vary with
    GIL contention, which mc_reps_per_s already reports.
    """
    if workload == "mc-small":
        return [r["wall"] for op, r in zip(ops, records) if op["threads"] == 1], "--threads 1 ops"
    return [r["wall"] for r in records], "ops"


def end_to_end(workload, ops, records, result, setup):
    mc = workload == "mc-small"
    if mc:
        threaded = rate(ops, records, lambda op: op["threads"] == CPUS)
        serial = rate(ops, records, lambda op: op["threads"] == 1)
    else:
        threaded = serial = rate(ops, records, lambda op: True)
    walls, timed = latency_sample(workload, ops, records)
    value, pct, beyond = tail(walls)
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh interpreters to `import sicheck`"),
        "check_p50_s": (statistics.median(walls), "s", f"median of {len(walls)} {timed}"),
        "check_tail_s": (value, "s", f"p{pct:.1f} of {len(walls)} {timed}, {beyond} beyond"),
        "mc_reps_per_s": (threaded, "1/s", f"--threads {CPUS}" if mc else "checks/s, one thread"),
        "mc_reps_per_s_serial": (serial, "1/s", "--threads 1" if mc else "checks/s, one thread"),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024.0, "MB", "ru_maxrss of the worker process"),
    }


def per_layer(workload, ops, records, result, spans_path):
    data = np.load(spans_path)
    rows, absent = data["rows"], set(data["absent"].tolist())
    code = rows[:, 0].astype(int)
    duration = rows[:, 2] - rows[:, 1]
    own = self_times(rows)
    n_ops = len(records)

    def mask(*names):
        return np.isin(code, [NAMES.index(name) for name in names])

    def present(*names):
        return all(name not in absent for name in names)

    select = mask("bandwidth.select_bandwidth")
    searches = int(select.sum())
    at_floor = int(np.count_nonzero(np.isclose(rows[select, 5], rows[select, 6], rtol=1e-12, atol=0)))
    loo = mask("smoother.loo_matrix")
    generate = mask("simulate.generate")
    simulate_ops = [(op, r) for op, r in zip(ops, records) if op["argv"][0] == "simulate"]
    threaded_ops = [r for op, r in simulate_ops if op["threads"] > 1]
    specials = [n for n in NAMES if n.startswith("special.")]

    # (metric, unit, traced functions it needs, value thunk, note)
    table = [
        ("cli.self_s", "s", ["cli.main"], lambda: own[mask("cli.main")].sum() / n_ops, "per op"),
        ("dataset.load_s", "s", ["dataset.load_dataset"],
         lambda: duration[mask("dataset.load_dataset")].sum() / n_ops, "per op"),
        ("index.fit_s", "s", ["index.fit_index_ols"],
         lambda: duration[mask("index.fit_index_ols")].sum() / n_ops, "per op"),
        ("bandwidth.select_s", "s", ["bandwidth.select_bandwidth"],
         lambda: duration[select].sum() / n_ops, "per op, self + children"),
        ("bandwidth.mise_calls", "count", ["bandwidth.mise", "bandwidth.select_bandwidth"],
         lambda: int(mask("bandwidth.mise").sum()) / max(searches, 1), f"per search, {searches} searches"),
        ("bandwidth.h1_floor_frac", "share", ["bandwidth.select_bandwidth"],
         lambda: None if np.isnan(rows[select, 5:7]).any() else at_floor / max(searches, 1),
         f"{at_floor} of {searches} searches picked the grid floor"),
        ("smoother.loo_s", "s", ["smoother.loo_matrix"], lambda: duration[loo].sum() / n_ops, "per op"),
        ("smoother.loo_calls", "count", ["smoother.loo_matrix"], lambda: int(loo.sum()) / n_ops, "per op"),
        ("smoother.bytes_computed", "bytes", ["smoother.loo_matrix"],
         lambda: float(np.sum(8.0 * rows[loo, 5] ** 2)) / n_ops,
         "per op, computed as 8 n^2 per dense matrix, not measured"),
        ("kernels.quartic_s", "s", ["kernels.quartic_kernel"],
         lambda: duration[mask("kernels.quartic_kernel")].sum() / n_ops, "per op"),
        ("score_test.self_s", "s", ["score_test.standardized_test", "score_test.maximin_test"],
         lambda: own[mask("score_test.standardized_test", "score_test.maximin_test")].sum() / n_ops,
         "per op"),
        ("omnibus.self_s", "s", ["omnibus.omnibus_test"],
         lambda: own[mask("omnibus.omnibus_test")].sum() / n_ops, "per op"),
        ("omnibus.boot_per_rep_s", "s", [], lambda: result["boot_per_rep_s"],
         "(t(m) - t(100)) / (m - 100), median of 3 timings each"),
        ("special.s", "s", specials, lambda: own[mask(*specials)].sum() / n_ops, "per op"),
        ("simulate.generate_s", "s", ["simulate.generate"],
         lambda: duration[generate].sum() / max(int(generate.sum()), 1), "per replicate"),
        ("simulate.cpu_per_wall", "ratio", [],
         lambda: (sum(r["cpu"] for r in threaded_ops) / sum(r["wall"] for r in threaded_ops)
                  if threaded_ops else 0.0), f"--threads {CPUS} simulate ops"),
        ("simulate.thread_speedup", "ratio", [],
         lambda: (rate(ops, records, lambda op: op.get("threads") == CPUS)
                  / rate(ops, records, lambda op: op.get("threads") == 1)
                  if simulate_ops else 0.0), "mc_reps_per_s / mc_reps_per_s_serial, traced"),
        ("trace.check_p50_s", "s", [],
         lambda: statistics.median(latency_sample(workload, ops, records)[0]),
         "traced check_p50_s; minus the untraced one is the tracing overhead"),
    ]
    metrics, missing = {}, []
    for name, unit, needs, value, note in table:
        v = value() if present(*needs) else None
        if v is None or math.isnan(v):
            missing.append(name)
        else:
            metrics[name] = (float(v), unit, note)
    return metrics, missing


# ---------------------------------------------------------------- main


def setup_seconds(runs) -> list[float]:
    """Wall times from interpreter launch to ``import sicheck`` done."""
    code = "import time, sicheck; print(time.monotonic())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout) - start)
    return times


def environment() -> dict:
    return {"cpus": CPUS, **{k: os.environ[k] for k in BLAS_ENV},
            "numpy": np.__version__, "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "sicheck" / "__init__.py").is_file():
        print(f"error: no sicheck sources under {SRC}", file=sys.stderr)
        return 2
    sizes = SIZES[args.tiny]

    # Half the set-up samples before the loop and half after, so that a
    # machine slowing down during the run moves them as it moves the loop.
    setup = setup_seconds(sizes["setup_runs"]) if not args.trace else []
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops, warmup, probe = WORKLOADS[args.workload](work, args.seed, args.seconds, sizes)
        plan = {"root": str(ROOT), "seconds": args.seconds, "trace": bool(args.trace),
                "warmup": warmup, "ops": [{k: op[k] for k in ("argv", "kind", "first_in_group")}
                                          for op in ops],
                "probe": probe, "result": str(work / "result.json"), "spans": str(work / "spans.npz")}
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        worker = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True, timeout=args.seconds + 120)
        if worker.returncode != 0:
            print(f"error: worker exited with code {worker.returncode}\n{worker.stderr[-4000:]}",
                  file=sys.stderr)
            return 1
        if not args.trace:
            setup += setup_seconds(sizes["setup_runs"])
        result = json.loads((work / "result.json").read_text())
        records = result["records"]
        failed, messages = check_outputs(args.workload, ops, records)
        if args.trace:
            metrics, missing = per_layer(args.workload, ops, records, result, plan["spans"])
        else:
            metrics = end_to_end(args.workload, ops, records, result, setup)
            missing = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    attempted = len(records)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in {result['loop_wall']:.1f} s, "
          f"closed loop, one client, trace {args.trace}")
    print("env " + json.dumps(environment()))
    for text in messages:
        print("FAILED " + text)
    for name in missing:
        print(f"absent {name}: a function it measures no longer exists")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<26} {value:<14.6g} {unit:<6} {note}")
    print(f"  {'error_rate':<26} {len(failed) / attempted:<14.6g} {'share':<6} "
          f"{len(failed)} of {attempted} ops failed")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
