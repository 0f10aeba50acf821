"""Timed closed loop of one benchmark workload, run in its own process.

Usage: python3 worker.py PLAN.json

The plan (written by run.py) lists the warm-up commands, the operations
and where to write the results.  Each operation is one ``sicheck``
command line, run in-process through ``sicheck.cli.main``; the next starts
when the previous one returns.  The loop stops at the first group boundary
after ``seconds`` once every operation kind has run.  With ``trace`` set,
layer spans are recorded and the bootstrap cost per replicate is probed
after the loop.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback


def run_op(cli, argv):
    """(exit code, error text) of one command; errors are recorded, not raised."""
    try:
        return cli.main(argv), None
    except (Exception, SystemExit):
        return None, traceback.format_exc()


def boot_per_rep(probe) -> float | None:
    """(t(m) - t(100)) / (m - 100) for ``omnibus_test`` on one input, or None
    when the functions it times no longer exist."""
    try:
        from sicheck.dataset import load_dataset
        from sicheck.index import fit_index_ols
        from sicheck.omnibus import BootstrapConfig, gamma_grid, omnibus_test
        from sicheck.smoother import SmootherConfig

        data = load_dataset(probe["csv"])
        fit = fit_index_ols(data)
        cfg = SmootherConfig(h=probe["h"])
        grid = gamma_grid(data.p)

        def seconds(m):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                omnibus_test(data, fit, cfg, BootstrapConfig(m=m, seed=0), grid)
                times.append(time.perf_counter() - start)
            return statistics.median(times)

        return (seconds(probe["m"]) - seconds(100)) / (probe["m"] - 100)
    except (ImportError, AttributeError, TypeError):
        traceback.print_exc()
        return None


def main(plan_path) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    import sicheck.cli as cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.recording = False
    for argv in plan["warmup"]:
        code, error = run_op(cli, argv)
        if code != 0:
            sys.exit(f"warm-up command {argv} failed with exit code {code}\n{error or ''}")

    kinds = {op["kind"] for op in plan["ops"]}
    seen = set()
    records = []
    if tracer is not None:
        tracer.recording = True
    begin = time.perf_counter()
    for index, op in enumerate(plan["ops"]):
        if op["first_in_group"] and seen >= kinds and time.perf_counter() - begin >= plan["seconds"]:
            break
        if tracer is not None:
            tracer.op = index
        cpu0 = time.process_time()
        start = time.perf_counter()
        code, error = run_op(cli, op["argv"])
        wall = time.perf_counter() - start
        records.append({"wall": wall, "cpu": time.process_time() - cpu0, "code": code, "error": error})
        seen.add(op["kind"])
    loop_wall = time.perf_counter() - begin

    result = {
        "records": records,
        "loop_wall": loop_wall,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "boot_per_rep_s": None,
    }
    if tracer is not None:
        tracer.recording = False
        result["boot_per_rep_s"] = boot_per_rep(plan["probe"])
        tracer.dump(plan["spans"])
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
