"""Per-observation weight functions W(x) of the covariate vector.

A weight is a label and a function from an (n, p) matrix to its n row
values, or from a stack of them, (..., n, p), to (..., n).  The functions
are module-level and a combination is a ``functools.partial`` of one, so
weights, and the checks that hold them, pickle.  The built-in weights:

    sumabs      W(x) = sum_l |x_l|
    sumsq       W(x) = sum_l x_l^2
    combo(...)  linear combination of other weights
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import ConfigError, DataError


def _sum_abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x).sum(axis=-1)


def _sum_squares(x: np.ndarray) -> np.ndarray:
    return (x**2).sum(axis=-1)


def _linear_combo(terms, x: np.ndarray) -> np.ndarray:
    return sum(c * spec.function(x) for c, spec in terms)


@dataclass(frozen=True, eq=False)
class WeightSpec:
    label: str
    function: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def sum_abs() -> "WeightSpec":
        return WeightSpec("sumabs", _sum_abs)

    @staticmethod
    def sum_squares() -> "WeightSpec":
        return WeightSpec("sumsq", _sum_squares)

    @staticmethod
    def linear_combo(terms) -> "WeightSpec":
        terms = tuple((float(c), spec) for c, spec in terms)
        if not terms:
            raise ConfigError("linear combination needs at least one term")
        label = "combo(" + "+".join(spec.label for _, spec in terms) + ")"
        return WeightSpec(label, functools.partial(_linear_combo, terms))

    def evaluate(self, x) -> np.ndarray:
        """Per-observation weight values W(x_i) for an (n, p) matrix, or for
        each matrix of a stack (..., n, p)."""
        x = np.asarray(x, dtype=float)
        if x.ndim < 2:
            raise DataError("weight evaluation needs an (n, p) matrix")
        out = np.asarray(self.function(x))
        if out.shape != x.shape[:-1]:
            raise DataError(f"weight {self.label} gave values of shape {out.shape} for "
                            f"covariates of shape {x.shape}; it must reduce the last axis")
        if not np.all(np.isfinite(out)):
            raise DataError(f"weight {self.label} produced non-finite values")
        return out
