"""Command-line front end.

Two commands: ``check`` runs one lack-of-fit test on a CSV file and emits
a JSON report; ``simulate`` drives a batch of Monte Carlo size/power runs
described by a JSON-lines file and emits one CSV row per entry.  Both
read a test's settings through one function, ``build_check``: ``check``
passes its flags, and a ``simulate`` line its keys.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import __version__, smoother
from .dataset import load_dataset
from .exceptions import ConfigError, SicheckError
from .simulate import (
    MaximinCheck,
    ModelKind,
    OmnibusCheck,
    Scenario,
    ScoreCheck,
    apply_check,
    monte_carlo,
    validate_run,
)
from .weights import WeightSpec

_WEIGHTS = {"sumabs": WeightSpec.sum_abs, "sumsq": WeightSpec.sum_squares}
#: Each test's weight names when none are given (omnibus reports echo them).
_DEFAULT_WEIGHTS = {"score": ("sumabs",), "maximin": ("sumabs", "sumsq"), "omnibus": ("sumabs",)}
#: A test's other settings: name -> (JSON type, default); h None is the selector.
_SETTINGS = {
    "alpha": (float, smoother.DEFAULT_ALPHA),
    "h": (float, None),
    "boot_m": (int, OmnibusCheck.boot_m),
    "grid_bound": (float, OmnibusCheck.grid_bound),
    "grid_per_axis": (int, OmnibusCheck.grid_per_axis),
}
_OMNIBUS_SETTINGS = ("boot_m", "grid_bound", "grid_per_axis")


def _value(key: str, value, kind):
    """``value`` as ``kind`` (int, float, or list: a tuple of floats), else a ConfigError."""
    if kind is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
        return tuple(_value(f"each entry of {key}", v, float) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return kind(value)


def build_check(test: str, weights=None, **given):
    """The check named by ``test`` and its settings, resolved as reports echo them.

    ``weights`` lists weight names, None for the test's defaults.  A setting
    of ``_SETTINGS`` not in ``given``, or None there, takes its default.
    """
    if not isinstance(test, str) or test not in _DEFAULT_WEIGHTS:
        raise ConfigError(f"unknown test {test!r}; choose from {tuple(_DEFAULT_WEIGHTS)}")
    if not set(given) <= set(_SETTINGS):
        raise TypeError(f"unknown settings {sorted(set(given) - set(_SETTINGS))}")
    foreign = [key for key in _OMNIBUS_SETTINGS if given.get(key) is not None]
    if test != "omnibus" and foreign:
        raise ConfigError(f"the {test} test takes no {', '.join(foreign)}: they set omnibus only")
    weights = _DEFAULT_WEIGHTS[test] if weights is None else weights
    if not isinstance(weights, (list, tuple)):
        raise ConfigError(f"weights must be a list of names, got {weights!r}")
    for name in weights:
        if not isinstance(name, str) or name not in _WEIGHTS:
            raise ConfigError(f"unknown weight {name!r}; choose from {tuple(_WEIGHTS)}")
    specs = tuple(_WEIGHTS[name]() for name in weights)
    settings = {"test": test, "weights": list(weights)}
    for key, (kind, default) in _SETTINGS.items():
        settings[key] = default if given.get(key) is None else _value(key, given[key], kind)
    h = settings["h"]
    if test == "score":
        if len(specs) != 1:
            raise ConfigError("the score test takes exactly one weight")
        return ScoreCheck(weight=specs[0], h=h), settings
    if test == "maximin":
        return MaximinCheck(weights=specs, h=h), settings
    grid = {key: settings[key] for key in _OMNIBUS_SETTINGS}
    return OmnibusCheck(**grid, h=h), settings


def run_check(input_path, check, settings: dict, seed: int = 0) -> dict:
    """Run ``check`` on a CSV file and build the JSON report, whose config
    echoes ``settings``; the level and the seed are checked before the read."""
    validate_run(check, settings["alpha"], seed=seed)
    data = load_dataset(input_path)
    report, h1 = apply_check(data, check, settings["alpha"], seed)
    config = dict(settings, h="auto" if settings["h"] is None else settings["h"], seed=seed,
                  input=input_path, scenario=None)  # input is always a CSV
    return {"artifact_version": __version__, "config": config, "n": data.n, "p": data.p,
            "seed": seed, "h1": h1, **report.to_json_dict()}


#: Scenario's fields besides ``model``, with JSON types; one left out takes its default.
_SCENARIO_KEYS = {"n": int, "p": int, "beta": list, "c": float, "c_interaction": list,
                  "sigma_eps": float, "seed": int}
#: The batch key naming a test's weights; an omnibus line takes neither.
_WEIGHT_KEY = {"score": "weight", "maximin": "weights"}
_MODELS = [kind.value for kind in ModelKind]
_BATCH_KEYS = ("model", *_SCENARIO_KEYS, "test", "weight", "weights", "reps", *_SETTINGS)


def _parse_batch_entry(entry: dict):
    if not isinstance(entry, dict):
        raise ConfigError("batch entry must be a JSON object")
    for key, value in entry.items():
        if key not in _BATCH_KEYS:
            raise ConfigError(f"unknown batch key {key!r}; choose from {_BATCH_KEYS}")
        if value is None:
            raise ConfigError(f"batch key {key!r} is null; leave it out for its default")
    if entry.get("model") not in _MODELS:
        raise ConfigError(f"unknown model {entry.get('model')!r}; choose from {_MODELS}")
    scn = Scenario(model=ModelKind(entry["model"]), **{
        key: _value(key, entry[key], kind) for key, kind in _SCENARIO_KEYS.items() if key in entry
    })
    test = entry.get("test")
    weight_key = _WEIGHT_KEY.get(test) if isinstance(test, str) else None  # a list is unhashable
    weights = entry.get(weight_key)
    if test == "score" and weights is not None:
        weights = [weights]
    check, settings = build_check(test, weights, **{k: entry[k] for k in _SETTINGS if k in entry})
    for key in ("weight", "weights"):
        if key in entry and key != weight_key:
            raise ConfigError(f"{test} lines take no {key!r}; score takes 'weight', "
                              "maximin 'weights'")
    reps = _value("reps", entry.get("reps", 100), int)
    validate_run(check, settings["alpha"], reps, p=scn.p)
    return scn, check, reps, settings["alpha"]


_CSV_COLUMNS = (
    "model", "n", "p", "beta", "c", "sigma_eps", "seed",
    "test", "alpha", "reps", "rejection_rate", "mc_stderr",
    "h", "grid_bound", "grid_per_axis", "c_interaction",
)


def _fixed_values(check) -> list:
    """The line's fixed ``h`` and omnibus grid, empty where they do not apply."""
    h = "" if check.h is None else repr(float(check.h))
    if not isinstance(check, OmnibusCheck):
        return [h, "", ""]
    return [h, repr(float(check.grid_bound)), check.grid_per_axis]


def run_simulation(batch_path, out_path, threads: int = 1) -> int:
    """Run every batch entry and write one CSV row per (scenario, test).

    Every line is parsed and validated, and the output opened, before the
    first replicate runs; each row is written when its line finishes.
    """
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    try:
        with open(batch_path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{batch_path}: not UTF-8 text: {exc}") from None
    entries = []
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            entry = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{batch_path}: line {line_no}: invalid JSON: {exc}") from None
        try:
            entries.append(_parse_batch_entry(entry))
        except (TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise ConfigError(f"{batch_path}: line {line_no}: {exc}") from None
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for scn, check, reps, alpha in entries:
            res = monte_carlo(scn, check, reps, alpha, threads=threads)
            beta, c_int = ("" if v is None else ";".join(map(repr, v))
                           for v in (scn.beta, scn.c_interaction))
            writer.writerow([scn.model.value, scn.n, scn.p, beta, repr(scn.c), repr(scn.sigma_eps),
                             scn.seed, res.test_label, repr(res.alpha), res.replications,
                             repr(res.rejection_rate), repr(res.mc_stderr), *_fixed_values(check),
                             c_int])
            fh.flush()
    return len(entries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sicheck",
        description="Lack-of-fit checks for single-index regression models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one test on a CSV dataset")
    check.add_argument("--input", required=True, help="CSV file with a 'y' column")
    check.add_argument("--test", required=True, choices=tuple(_DEFAULT_WEIGHTS))
    check.add_argument(
        "--weight", action="append", choices=tuple(_WEIGHTS),
        help="weight function; repeat for a maximin family",
    )
    # Settings left out stay None: build_check fills them from _SETTINGS.
    check.add_argument("--alpha", type=float)
    check.add_argument(
        "--h", default="auto",
        help="bandwidth: 'auto' for the data-driven selector or a fixed value",
    )
    check.add_argument("--grid-bound", type=float)
    check.add_argument("--grid-per-axis", type=int)
    check.add_argument("--boot-m", type=int)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--out", help="write the JSON report here instead of stdout")

    sim = sub.add_parser("simulate", help="run a Monte Carlo batch")
    sim.add_argument("--batch", required=True, help="JSON-lines batch file")
    sim.add_argument("--out", required=True, help="CSV output path")
    sim.add_argument("--threads", type=int, default=1)
    return parser


def _parse_h(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--h must be 'auto' or a number, got {text!r}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            flags = dict(vars(args), h=_parse_h(args.h))  # one flag per setting
            check, settings = build_check(
                args.test, args.weight, **{key: flags[key] for key in _SETTINGS}
            )
            report = run_check(args.input, check, settings, args.seed)
            decision = "reject" if report["reject"] else "no rejection"
            print(
                f"{decision}: p_value={report['p_value']:.6g} "
                f"calibration={report['calibration']} alpha={report['alpha']} "
                f"(h={report['h']:.6g}, n={report['n']}, p={report['p']})"
            )
            text = json.dumps(report, indent=2, sort_keys=True)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
        else:
            count = run_simulation(args.batch, args.out, threads=args.threads)
            print(f"wrote {count} result rows to {args.out}")
        return 0
    except SicheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
