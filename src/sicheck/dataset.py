"""Tabular (X, y) container plus CSV ingestion and emission.

The CSV contract: a header row, exactly one column named ``y`` holding the
response, and every other column a numeric covariate, kept in file order.

A file that loads is read once: the header with ``csv``, the body line by
line with numpy's C parser (``np.loadtxt``), which names the record and
column of a cell it refuses (``1_000`` and non-ASCII digits among them).
A blank line, which that parser would skip, stops the stream.
"""

from __future__ import annotations

import csv
import itertools
import re
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

    Raises DataError naming the row, and the column of a bad cell, for a
    non-numeric, missing or non-finite cell, a ragged row, a blank line or a
    header cell beyond the ``csv`` field limit, and for fewer than ``MIN_ROWS`` rows.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = [name.strip() for name in next(csv.reader(fh))]
            if header.count("y") != 1:
                raise DataError(f"{path}: header {header} must name exactly one column 'y'")
            if len(header) < 2:
                raise DataError(f"{path}: no covariate columns besides 'y'")
            lines = _unblank_lines(fh)
            first = next(lines, None)  # None: loadtxt would warn "input contained no data"
            table = np.empty((0, len(header))) if first is None else np.loadtxt(
                itertools.chain([first], lines), delimiter=",", comments=None, quotechar='"',
                ndmin=2)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:  # a header cell beyond the field limit; before 3.11 a NUL
            raise DataError(f"{path}: row 1: {exc}") from None
        except ValueError as exc:
            raise DataError(f"{path}: {_refusal(path, header, str(exc))}") from None
    if table.shape[1] != len(header):  # numpy takes the first row's width for the table's
        raise DataError(f"{path}: row 2: expected {len(header)} cells, found {table.shape[1]}")
    if not np.isfinite(table).all():
        row, col = np.argwhere(~np.isfinite(table))[0]
        raise DataError(f"{path}: row {row + 2}, column '{header[col]}': "
                        f"non-finite cell, read as {table[row, col]}")
    if table.shape[0] < MIN_ROWS:
        raise DataError(f"{path}: parsed {table.shape[0]} data rows; at least {MIN_ROWS} are "
                        "required for index estimation and smoothing")
    y_col = header.index("y")  # y is copied so that the table can be freed
    return Dataset(x=np.delete(table, y_col, axis=1), y=table[:, y_col].copy())


def _unblank_lines(fh):
    """The lines of ``fh``, raising ValueError at a blank one, which np.loadtxt would skip."""
    for line in fh:
        if line.isspace():
            raise ValueError("blank line")
        yield line


def _refusal(path, header, text) -> str:
    """np.loadtxt's refusal ``text`` in the file's rows and header names, else as it is.
    numpy counts a width's record from 1 at the first data row, a cell's from 0."""
    width = len(header)
    if text == "blank line":  # read again, counting records as csv does
        with open(path, newline="", encoding="utf-8-sig") as fh:
            next(csv.reader(fh))
            row, quoted = 2, False
            while not (line := next(fh)).isspace():
                quoted ^= line.count('"') % 2 == 1  # a quoted cell holds this line break
                row += not quoted
        found = 1 if line.rstrip("\r\n") else 0  # csv reads a line of spaces as one cell
        return (f"row {row}: blank line in a quoted cell" if quoted else
                f"row {row}: expected {width} cells, found {found}")
    if match := re.match(r"the number of columns changed from (\d+) to (\d+) at row (\d+);", text):
        first, found, record = map(int, match.groups())
        row, found = (2, first) if first != width else (record + 1, found)
        return f"row {row}: expected {width} cells, found {found}"
    match = re.match(r"could not convert string (.*) to .+ at row (\d+), column (\d+)", text, re.S)
    if match and int(match[3]) <= width:
        return (f"row {int(match[2]) + 2}, column '{header[int(match[3]) - 1]}': "
                f"non-numeric cell {match[1]}")
    if match:  # the first row is wider than the header: numpy reads it again, as text
        with open(path, newline="", encoding="utf-8-sig") as fh:
            next(csv.reader(fh))
            cells = np.loadtxt(_unblank_lines(fh), dtype=str, delimiter=",", comments=None,
                               quotechar='"', max_rows=1)
        return f"row 2: expected {width} cells, found {cells.size}"
    return text


def save_dataset(data: Dataset, path) -> None:
    """Write a Dataset to CSV (columns x1..xp then y, full float precision)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.p)] + ["y"])
        for xi, yi in zip(data.x, data.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])
