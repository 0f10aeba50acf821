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
import dataclasses
import json
import math
import sys

from . import __version__, smoother
from .dataset import load_dataset
from .exceptions import ConfigError, SicheckError, integer
from .omnibus import OmnibusCheck
from .score_test import MaximinCheck, ScoreCheck
from .simulate import ModelKind, Scenario, apply_check, monte_carlo, validate_run
from .weights import WeightSpec

_WEIGHTS = {"sumabs": WeightSpec.sum_abs, "sumsq": WeightSpec.sum_squares}
#: The tests by name; a test takes the fields of its check class, plus alpha.
_CHECKS = {"score": ScoreCheck, "maximin": MaximinCheck, "omnibus": OmnibusCheck}
#: A test's settings besides its weights, with JSON types; h None is the selector.
_SETTINGS = {"alpha": float, "h": float, "boot_m": int, "grid_bound": float, "grid_per_axis": int}


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
    """The check named by ``test`` and the record of its settings that reports echo.

    ``weights`` lists weight names, None for the check's defaults.  A setting
    of ``_SETTINGS`` not in ``given``, or None there, takes its class default
    (alpha: DEFAULT_ALPHA); the record holds None for one the test does not take.
    """
    if not isinstance(test, str) or test not in _CHECKS:
        raise ConfigError(f"unknown test {test!r}; choose from {tuple(_CHECKS)}")
    if not set(given) <= set(_SETTINGS):
        raise TypeError(f"unknown settings {sorted(set(given) - set(_SETTINGS))}")
    fields = {f.name for f in dataclasses.fields(_CHECKS[test])}
    given = {key: value for key, value in given.items() if value is not None}
    foreign = [key for key in given if key not in fields | {"alpha"}]
    if foreign:
        raise ConfigError(f"the {test} test takes no {', '.join(foreign)}")
    kwargs = {key: _value(key, value, _SETTINGS[key]) for key, value in given.items()}
    alpha = kwargs.pop("alpha", smoother.DEFAULT_ALPHA)
    if weights is not None:
        if not fields & {"weight", "weights"}:
            raise ConfigError(f"the {test} test takes no weights: its weights are the frequencies")
        if not isinstance(weights, (list, tuple)):
            raise ConfigError(f"weights must be a list of names, got {weights!r}")
        for name in weights:
            if not isinstance(name, str) or name not in _WEIGHTS:
                raise ConfigError(f"unknown weight {name!r}; choose from {tuple(_WEIGHTS)}")
        specs = tuple(_WEIGHTS[name]() for name in weights)
        if "weights" in fields:
            kwargs["weights"] = specs
        elif len(specs) != 1:
            raise ConfigError(f"the {test} test takes exactly one weight")
        else:
            kwargs["weight"] = specs[0]
    check = _CHECKS[test](**kwargs)
    specs = check.weights if "weights" in fields else [check.weight] if "weight" in fields else []
    settings = {key: getattr(check, key, None) for key in _SETTINGS}
    return check, dict(settings, test=test, alpha=alpha, weights=[w.label for w in specs] or None)


def run_check(input_path, check, settings: dict, seed: int = 0) -> dict:
    """Run ``check`` on a CSV file and build the JSON report, whose config
    echoes ``settings``; the level and the seed are checked before the read."""
    validate_run(check, settings["alpha"], seed=seed)
    data = load_dataset(input_path)
    report, h1 = apply_check(data, check, settings["alpha"], seed)
    config = dict(settings, h="auto" if settings["h"] is None else settings["h"], seed=seed,
                  input=input_path)
    return {"artifact_version": __version__, "config": config, "n": data.n, "p": data.p,
            "seed": seed, "h1": h1, **report.to_json_dict()}


#: Scenario's fields besides ``model``, with JSON types; one left out takes its default.
_SCENARIO_KEYS = {"n": int, "p": int, "beta": list, "c": float, "c_interaction": list,
                  "sigma_eps": float, "seed": int}
_MODELS = [kind.value for kind in ModelKind]
_BATCH_KEYS = ("model", *_SCENARIO_KEYS, "test", "weight", "weights", "reps", *_SETTINGS)


def _json_object(pairs) -> dict:
    """A JSON object whose keys are distinct; json.loads would keep a repeated key's last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"batch key {key!r} is repeated")
        obj[key] = value
    return obj


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
    weights = [entry["weight"]] if "weight" in entry else entry.get("weights")
    check, settings = build_check(entry.get("test"), weights,
                                  **{k: entry[k] for k in _SETTINGS if k in entry})
    for key in ("weight", "weights"):
        if key in entry and not hasattr(check, key):
            raise ConfigError(f"{settings['test']} lines take no {key!r}")
    reps = _value("reps", entry.get("reps", 100), int)
    validate_run(check, settings["alpha"], reps, p=scn.p, n=scn.n)
    return scn, check, reps, settings


_CSV_COLUMNS = (
    "model", "n", "p", "beta", "c", "sigma_eps", "seed",
    "test", "alpha", "reps", "rejection_rate", "mc_stderr",
    "h", "grid_bound", "grid_per_axis", "c_interaction",
)


def run_simulation(batch_path, out_path, threads: int = 1) -> int:
    """Run every batch entry; each CSV row is one line's settings and its measured rate.

    Every line is parsed and validated, and the output opened, before the
    first replicate runs; each row is written when its line finishes.
    """
    if integer("threads", threads) < 1:
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
            entries.append(_parse_batch_entry(json.loads(text, object_pairs_hook=_json_object)))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{batch_path}: line {line_no}: invalid JSON: {exc}") from None
        except (TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise ConfigError(f"{batch_path}: line {line_no}: {exc}") from None
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for scn, check, reps, settings in entries:
            res = monte_carlo(scn, check, reps, settings["alpha"], threads=threads)
            beta, c_int = ("" if v is None else ";".join(map(repr, v))
                           for v in (scn.beta, scn.c_interaction))
            fixed = (settings[key] for key in ("h", "grid_bound", "grid_per_axis"))
            writer.writerow([scn.model.value, scn.n, scn.p, beta, repr(scn.c), repr(scn.sigma_eps),
                             scn.seed, check.label, repr(settings["alpha"]), reps,
                             repr(res.rejection_rate), repr(res.mc_stderr),
                             *("" if v is None else repr(v) for v in fixed), c_int])
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
    check.add_argument("--test", required=True, choices=tuple(_CHECKS))
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
