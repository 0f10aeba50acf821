"""The names and command lines that the benchmark in perfbench/ relies on.

The benchmark wraps functions by name from outside the program and drives
the CLI in-process, so a renamed function or flag shows there only as a
missing span or a failed run; these checks catch it in the unit suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sicheck.cli import build_parser

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        name for name, module, attr in tracer.TRACED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


@pytest.mark.parametrize("argv", [
    ["check", "--input", "d.csv", "--test", "score", "--h", "auto", "--out", "r.json"],
    ["check", "--input", "d.csv", "--test", "maximin", "--out", "r.json"],
    ["check", "--input", "d.csv", "--test", "omnibus", "--h", "0.05",
     "--boot-m", "1000", "--seed", "7", "--out", "r.json"],
    ["simulate", "--batch", "b.jsonl", "--out", "r.csv", "--threads", "2"],
])
def test_benchmark_command_lines_parse(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
