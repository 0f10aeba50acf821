"""Tabular (X, y) container plus CSV ingestion and emission.

The CSV contract: a header row, exactly one column named ``y`` holding the
response, and every other column a numeric covariate, kept in file order.

A file is read in two stages.  The header is read with ``csv``; the body
then streams, line by line, through numpy's C parser (``np.loadtxt``),
and its table is kept when it has at least ``MIN_ROWS`` rows, one cell per
header name and only finite values.  Anything else sends the whole file to
the Python reader, which converts cell by cell with ``float``: a header
without exactly one ``y``, an empty body, a blank line (the C parser would
skip it), a cell the C parser refuses (text, an empty cell, ``1_000``,
non-ASCII digits), a ragged row, a non-finite value or bytes that are not
UTF-8.  Both parse a number with the same CPython routine, so the Python
reader returns the same values the C parser would have, or raises the
DataError that names the row and column.
"""

from __future__ import annotations

import csv
import itertools
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

    The body streams through numpy's C parser; a file that does not parse
    there into a finite table of at least ``MIN_ROWS`` rows, one cell per
    header name, is read again by the Python reader (see the module
    docstring), which returns the same values or raises.

    Raises DataError naming the offending row and column for non-numeric,
    missing or non-finite cells, naming the row for ragged rows, blank lines
    and a cell longer than the ``csv`` field limit, and when fewer than
    ``MIN_ROWS`` data rows are present.
    """
    data = _load_streamed(path)
    return data if data is not None else _load_by_cell(path)


def _load_streamed(path) -> Dataset | None:
    """The file parsed by ``np.loadtxt``, or None when the Python reader must read it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                return None
            header = [name.strip() for name in header]
            if header.count("y") != 1 or len(header) < 2:
                return None
            lines = _unblank_lines(fh)
            first = next(lines, None)
            if first is None:  # header only: loadtxt would warn "input contained no data"
                return None
            table = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                               comments=None, quotechar='"', ndmin=2)
    except (ValueError, csv.Error):  # a UnicodeDecodeError is a ValueError
        return None
    if table.shape[0] < MIN_ROWS or table.shape[1] != len(header) or not np.isfinite(table).all():
        return None
    y_col = header.index("y")  # y is copied so that the table can be freed
    return Dataset(x=np.delete(table, y_col, axis=1), y=table[:, y_col].copy())


def _unblank_lines(fh):
    """The lines of ``fh``, raising ValueError at a blank one, which np.loadtxt would skip."""
    for line in fh:
        if line.isspace():
            raise ValueError("blank line")
        yield line


def _load_by_cell(path) -> Dataset:
    """Read a CSV file cell by cell with ``float``, naming the row and column of a bad cell."""
    header, rows = None, []
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
    except csv.Error as exc:  # an oversized cell; before Python 3.11 also a NUL byte
        row = 1 if header is None else len(rows) + 2
        raise DataError(f"{path}: row {row}: {exc}") from None
    if len(rows) < MIN_ROWS:
        raise DataError(
            f"{path}: parsed {len(rows)} data rows; at least {MIN_ROWS} are "
            "required for index estimation and smoothing"
        )
    table = np.array(rows, dtype=float)
    return Dataset(x=np.delete(table, y_col, axis=1), y=table[:, y_col].copy())


def save_dataset(data: Dataset, path) -> None:
    """Write a Dataset to CSV (columns x1..xp then y, full float precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.p)] + ["y"])
        for xi, yi in zip(data.x, data.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
