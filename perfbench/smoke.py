"""Self-test of the benchmark at minimal input sizes.

Run from the repository root, either directly or under pytest:

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

Each workload runs with ``--tiny`` untraced and traced.  The test asserts
that every metric named in BENCHMARK.json prints with its unit, that no
operation fails, that a removed traced function makes its metrics absent
instead of crashing, that the tracer loses no span under threads, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_output(done, specs):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert any(line.split()[:1] == [spec["name"]] and spec["unit"] in line.split() for line in lines)
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines), done.stdout
    return result


def test_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS)
    for workload in names:
        untraced = check_output(bench(workload, 0), SPEC["end_to_end"])
        traced = check_output(bench(workload, 1), SPEC["per_layer"])
        overhead = traced["metrics"]["trace.check_p50_s"]["value"] / untraced["metrics"]["check_p50_s"]["value"] - 1
        print(f"{workload}: ok, tracing overhead on check_p50_s {overhead:+.1%} (tiny inputs)")


def test_absent_function_is_reported():
    work = HERE / "_work" / "smoke-absent"
    work.mkdir(parents=True, exist_ok=True)
    spans = work / "spans.npz"
    rows = np.array([[tracer.NAMES.index("cli.main"), 0.0, 1.0, -1, 0, np.nan, np.nan]])
    np.savez(spans, rows=rows, names=np.array(tracer.NAMES), absent=np.array(["bandwidth.mise"]))
    ops = [{"argv": ["check"], "kind": "score"}]
    records = [{"wall": 1.0, "cpu": 1.0, "code": 0, "error": None}]
    metrics, missing = run.per_layer("check-large", ops, records, {"boot_per_rep_s": None}, spans)
    assert missing == ["bandwidth.mise_calls", "omnibus.boot_per_rep_s"]
    assert metrics["cli.self_s"][0] == 1.0
    shutil.rmtree(work)


def test_tracer_keeps_every_span_under_threads():
    trace = tracer.Tracer()
    inner = trace._wrap(1, lambda: None, None)
    outer = trace._wrap(0, lambda: [inner() for _ in range(3)], None)
    threads = [threading.Thread(target=lambda: [outer() for _ in range(500)]) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    work = HERE / "_work" / "smoke-threads"
    work.mkdir(parents=True, exist_ok=True)
    try:
        trace.dump(work / "spans.npz")
        rows = np.load(work / "spans.npz")["rows"]
    finally:
        shutil.rmtree(work)
    assert len(rows) == 8 * 500 * 4
    parents = rows[rows[:, 0] == 1, 3].astype(int)
    assert (rows[parents, 0] == 0).all()
    assert np.bincount(parents, minlength=len(rows))[rows[:, 0] == 0].tolist() == [3] * 4000


def test_refuses_without_sources():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        done = bench("check-large", 0, cwd=bare)
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    test_workloads()
    test_absent_function_is_reported()
    test_tracer_keeps_every_span_under_threads()
    test_refuses_without_sources()
    print("smoke: all checks passed")
