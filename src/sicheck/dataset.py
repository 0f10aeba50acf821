"""Tabular (X, y) container plus CSV ingestion and emission.

The CSV contract: a header row, exactly one column named ``y`` holding the
response, and every other column a numeric covariate, kept in file order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError

#: Smallest sample a file may carry: below this neither the index fit nor
#: the smoother produces anything meaningful.
MIN_ROWS = 10


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x p covariate matrix and n response values."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise DataError("covariate matrix must be two-dimensional")
        if y.ndim != 1:
            raise DataError("response must be one-dimensional")
        if x.shape[0] != y.shape[0]:
            raise DataError(
                f"covariate rows ({x.shape[0]}) and responses ({y.shape[0]}) differ"
            )
        if x.shape[0] == 0 or x.shape[1] == 0:
            raise DataError("empty dataset")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def load_dataset(path) -> Dataset:
    """Read a CSV file into a Dataset.

    Raises DataError naming the offending row and column for non-numeric,
    missing or non-finite cells, for ragged rows, and when fewer than
    ``MIN_ROWS`` data rows are present.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [name.strip() for name in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            if header.count("y") != 1:
                raise DataError(f"{path}: header {header} must name exactly one column 'y'")
            if len(header) < 2:
                raise DataError(f"{path}: no covariate columns besides 'y'")
            y_col = header.index("y")
            rows = []
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {line_no}: expected {len(header)} cells, found {len(row)}"
                    )
                values = []
                for name, cell in zip(header, row):
                    text = cell.strip()
                    try:
                        value = float(text)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {line_no}, column '{name}': non-numeric cell {text!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise DataError(
                            f"{path}: row {line_no}, column '{name}': non-finite cell {text!r}"
                        )
                    values.append(value)
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if len(rows) < MIN_ROWS:
        raise DataError(
            f"{path}: parsed {len(rows)} data rows; at least {MIN_ROWS} are "
            "required for index estimation and smoothing"
        )
    table = np.array(rows, dtype=float)
    return Dataset(x=np.delete(table, y_col, axis=1), y=table[:, y_col])


def save_dataset(data: Dataset, path) -> None:
    """Write a Dataset to CSV (columns x1..xp then y, full float precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.p)] + ["y"])
        for xi, yi in zip(data.x, data.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
