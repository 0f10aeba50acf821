"""Command-line front end.

Two commands: ``check`` runs one lack-of-fit test on a CSV file and emits
a JSON report; ``simulate`` drives a batch of Monte Carlo size/power runs
described by a JSON-lines file and emits one CSV row per entry.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field

from . import __version__
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
from .smoother import DEFAULT_ALPHA
from .weights import WeightSpec

_WEIGHTS = {"sumabs": WeightSpec.sum_abs, "sumsq": WeightSpec.sum_squares}
_TEST_NAMES = ("score", "maximin", "omnibus")


def _weight_spec(name: str) -> WeightSpec:
    if name not in _WEIGHTS:
        raise ConfigError(f"unknown weight {name!r}; choose from {tuple(_WEIGHTS)}")
    return _WEIGHTS[name]()


def build_check(test: str, weights, h, boot_m, grid_bound, grid_per_axis):
    """The check named by ``test``; the check validates its own values.

    Score takes exactly one weight name, maximin a family; omnibus ignores
    ``weights``, and score and maximin ignore the bootstrap and grid values.
    """
    if test == "score":
        if len(weights) != 1:
            raise ConfigError("the score test takes exactly one weight")
        return ScoreCheck(weight=_weight_spec(weights[0]), h=h)
    if test == "maximin":
        return MaximinCheck(weights=tuple(_weight_spec(w) for w in weights), h=h)
    if test == "omnibus":
        return OmnibusCheck(
            boot_m=boot_m, grid_bound=grid_bound, grid_per_axis=grid_per_axis, h=h
        )
    raise ConfigError(f"unknown test {test!r}; choose from {_TEST_NAMES}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for a single check run, echoed in its report.

    The check is built, and every value validated, when the config is made.
    """

    test: str
    weights: tuple[str, ...]
    input_path: str
    alpha: float = DEFAULT_ALPHA
    h: float | None = None  # None means the data-driven selector
    grid_bound: float = OmnibusCheck.grid_bound
    grid_per_axis: int = OmnibusCheck.grid_per_axis
    boot_m: int = OmnibusCheck.boot_m
    seed: int = 0
    check: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check = build_check(
            self.test, self.weights, self.h, self.boot_m, self.grid_bound, self.grid_per_axis
        )
        validate_run(check, self.alpha, seed=self.seed)
        object.__setattr__(self, "check", check)

    def to_json_dict(self) -> dict:
        return {
            "test": self.test,
            "weights": list(self.weights),
            "alpha": self.alpha,
            "h": "auto" if self.h is None else self.h,
            "grid_bound": self.grid_bound,
            "grid_per_axis": self.grid_per_axis,
            "boot_m": self.boot_m,
            "seed": self.seed,
            "input": self.input_path,
            "scenario": None,  # reports keep their key set; input is always a CSV
        }


def run_check(cfg: RunConfig) -> dict:
    """Execute the full pipeline for one dataset and build the JSON report."""
    data = load_dataset(cfg.input_path)
    report, h1 = apply_check(data, cfg.check, cfg.alpha, cfg.seed)
    out = {
        "artifact_version": __version__,
        "config": cfg.to_json_dict(),
        "n": data.n,
        "p": data.p,
        "seed": cfg.seed,
        "h1": h1,
    }
    out.update(report.to_json_dict())
    return out


_MODEL_BY_NAME = {kind.value: kind for kind in ModelKind}
_BATCH_KEYS = (
    "model", "n", "p", "beta", "c", "c_interaction", "sigma_eps", "seed", "test",
    "weight", "weights", "h", "boot_m", "grid_bound", "grid_per_axis", "reps", "alpha",
)


def _parse_batch_entry(entry: dict):
    if not isinstance(entry, dict):
        raise ConfigError("batch entry must be a JSON object")
    unknown = [key for key in entry if key not in _BATCH_KEYS]
    if unknown:
        raise ConfigError(
            f"unknown batch key {unknown[0]!r}; choose from {_BATCH_KEYS}"
        )
    model_name = entry.get("model")
    if model_name not in _MODEL_BY_NAME:
        raise ConfigError(
            f"unknown model {model_name!r}; choose from {sorted(_MODEL_BY_NAME)}"
        )
    scn = Scenario(
        model=_MODEL_BY_NAME[model_name],
        n=int(entry["n"]),
        p=int(entry["p"]),
        beta=tuple(entry["beta"]) if "beta" in entry else None,
        c=float(entry.get("c", 0.0)),
        c_interaction=(
            tuple(entry["c_interaction"]) if "c_interaction" in entry else None
        ),
        sigma_eps=float(entry.get("sigma_eps", 1.0)),
        seed=int(entry.get("seed", 0)),
    )
    test = entry.get("test")
    if test == "score":
        weights = (entry.get("weight", "sumabs"),)
    else:
        weights = tuple(entry.get("weights", ("sumabs", "sumsq")))
    check = build_check(
        test,
        weights,
        h=float(entry["h"]) if "h" in entry else None,
        boot_m=int(entry.get("boot_m", OmnibusCheck.boot_m)),
        grid_bound=float(entry.get("grid_bound", OmnibusCheck.grid_bound)),
        grid_per_axis=int(entry.get("grid_per_axis", OmnibusCheck.grid_per_axis)),
    )
    reps = int(entry.get("reps", 100))
    alpha = float(entry.get("alpha", DEFAULT_ALPHA))
    validate_run(check, alpha, reps)
    return scn, check, reps, alpha


_CSV_COLUMNS = (
    "model", "n", "p", "beta", "c", "sigma_eps", "seed",
    "test", "alpha", "reps", "rejection_rate", "mc_stderr",
    "h", "grid_bound", "grid_per_axis",
)


def _fixed_values(check) -> list:
    """The line's fixed ``h`` and omnibus grid, empty where they do not apply."""
    h = "" if check.h is None else repr(float(check.h))
    if not isinstance(check, OmnibusCheck):
        return [h, "", ""]
    return [h, repr(float(check.grid_bound)), check.grid_per_axis]


def run_simulation(batch_path, out_path, threads: int = 1) -> int:
    """Run every batch entry and write one CSV row per (scenario, test).

    Every line is parsed and validated before the first replicate runs.
    """
    entries = []
    with open(batch_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                entry = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{batch_path}: line {line_no}: invalid JSON: {exc}") from None
            try:
                entries.append(_parse_batch_entry(entry))
            except (KeyError, TypeError, ValueError, ConfigError) as exc:
                raise ConfigError(f"{batch_path}: line {line_no}: {exc}") from None
    results = [
        monte_carlo(scn, check, reps, alpha, threads=threads)
        for scn, check, reps, alpha in entries
    ]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for (_, check, _, _), res in zip(entries, results):
            scn = res.scenario
            writer.writerow([
                scn.model.value,
                scn.n,
                scn.p,
                "" if scn.beta is None else ";".join(repr(b) for b in scn.beta),
                repr(scn.c),
                repr(scn.sigma_eps),
                scn.seed,
                res.test_label,
                repr(res.alpha),
                res.replications,
                repr(res.rejection_rate),
                repr(res.mc_stderr),
                *_fixed_values(check),
            ])
    return len(results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sicheck",
        description="Lack-of-fit checks for single-index regression models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run one test on a CSV dataset")
    check.add_argument("--input", required=True, help="CSV file with a 'y' column")
    check.add_argument("--test", required=True, choices=_TEST_NAMES)
    check.add_argument(
        "--weight", action="append", choices=tuple(_WEIGHTS),
        help="weight function; repeat for a maximin family",
    )
    check.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    check.add_argument(
        "--h", default="auto",
        help="bandwidth: 'auto' for the data-driven selector or a fixed value",
    )
    check.add_argument("--grid-bound", type=float, default=OmnibusCheck.grid_bound)
    check.add_argument("--grid-per-axis", type=int, default=OmnibusCheck.grid_per_axis)
    check.add_argument("--boot-m", type=int, default=OmnibusCheck.boot_m)
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


def _default_weights(test: str) -> tuple[str, ...]:
    return ("sumabs", "sumsq") if test == "maximin" else ("sumabs",)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            cfg = RunConfig(
                test=args.test,
                weights=tuple(args.weight) if args.weight else _default_weights(args.test),
                alpha=args.alpha,
                h=_parse_h(args.h),
                grid_bound=args.grid_bound,
                grid_per_axis=args.grid_per_axis,
                boot_m=args.boot_m,
                seed=args.seed,
                input_path=args.input,
            )
            report = run_check(cfg)
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
