"""Declarative per-observation weight functions.

A weight spec describes a scalar function of the covariate vector and is
evaluated row-wise on an (n, p) matrix.  The built-in kinds:

    sumabs     W(x) = sum_l |x_l|
    sumsq      W(x) = sum_l x_l^2
    pointwise  user-supplied value per observation
    combo      linear combination of other specs
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError


class WeightKind(enum.Enum):
    SUM_ABS = "sumabs"
    SUM_SQUARES = "sumsq"
    POINTWISE = "pointwise"
    LINEAR_COMBO = "combo"


@dataclass(frozen=True, eq=False)
class WeightSpec:
    kind: WeightKind
    values: tuple[float, ...] | None = None
    terms: tuple[tuple[float, "WeightSpec"], ...] | None = None

    @staticmethod
    def sum_abs() -> "WeightSpec":
        return WeightSpec(WeightKind.SUM_ABS)

    @staticmethod
    def sum_squares() -> "WeightSpec":
        return WeightSpec(WeightKind.SUM_SQUARES)

    @staticmethod
    def pointwise(values) -> "WeightSpec":
        values = tuple(float(v) for v in values)
        if not values:
            raise ConfigError("pointwise weight needs at least one value")
        return WeightSpec(WeightKind.POINTWISE, values=values)

    @staticmethod
    def linear_combo(terms) -> "WeightSpec":
        terms = tuple((float(c), spec) for c, spec in terms)
        if not terms:
            raise ConfigError("linear combination needs at least one term")
        return WeightSpec(WeightKind.LINEAR_COMBO, terms=terms)

    @property
    def label(self) -> str:
        if self.kind is WeightKind.LINEAR_COMBO:
            inner = "+".join(spec.label for _, spec in self.terms)
            return f"combo({inner})"
        return self.kind.value

    def evaluate(self, x) -> np.ndarray:
        """Per-observation weight values W(x_i) for an (n, p) matrix."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise DataError("weight evaluation needs an (n, p) matrix")
        out = self._evaluate(x)
        if not np.all(np.isfinite(out)):
            raise DataError(f"weight {self.label} produced non-finite values")
        return out

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        if self.kind is WeightKind.SUM_ABS:
            return np.abs(x).sum(axis=1)
        if self.kind is WeightKind.SUM_SQUARES:
            return (x**2).sum(axis=1)
        if self.kind is WeightKind.POINTWISE:
            values = np.asarray(self.values, dtype=float)
            if values.shape != (x.shape[0],):
                raise DataError(
                    f"pointwise weight has {values.size} values for n={x.shape[0]} observations"
                )
            return values
        if self.kind is WeightKind.LINEAR_COMBO:
            return sum(c * spec._evaluate(x) for c, spec in self.terms)
        raise ConfigError(f"unknown weight kind {self.kind!r}")
