"""Column-wise text formatting: the one formatter behind every CSV and the ``analyze`` report.

A writer hands over columns and formats them a block of at most ``_BLOCK``
rows at a time, so the text alive at once stays bounded whatever the row
count.  :func:`column_text` turns a block of one column into its cells with
one C-level ``map``: ``repr`` of each float (or another float format), ``str``
of each integer; a sequence of str is already text.  Only a column that holds
a non-finite value is then mapped cell by cell, through one of the maps of
non-finite texts below, which are the one place those rules live.  The cells
become rows with ``map(",".join, zip(*cells))`` (:func:`write_csv`) or with
one ``str.format`` template per row (the ``analyze`` writers).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

# Rows formatted at a time: about 0.7 MB of cell text for a sweep CSV block.
_BLOCK = 512

# The text of a non-finite float, keyed by its ``repr``, where it differs.
CSV_NON_FINITE = {"nan": ""}  # an undefined CSV cell is empty
JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json.dump writes
JSON_SIGNIFICANCE = {**JSON_NON_FINITE, "nan": "null"}  # an undefined significance is null
STDOUT_SIGNIFICANCE = {"nan": "n/a"}


def blocks(n_rows: int) -> Iterator[slice]:
    """The row slices of consecutive blocks of at most ``_BLOCK`` rows."""
    return (slice(start, start + _BLOCK) for start in range(0, n_rows, _BLOCK))


def column_text(column: np.ndarray | Sequence[str], non_finite: Mapping[str, str] = CSV_NON_FINITE,
                fmt: Callable[[float], str] = repr) -> Sequence[str]:
    """The cells of a block of one column.

    A float column is ``fmt`` of each value, with the text of a non-finite
    value replaced by its entry in ``non_finite``, if any; an integer column
    is ``str`` of each value; any other sequence is returned as it is.
    """
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    cells = list(map(fmt, column.tolist()))
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[i] = non_finite.get(cells[i], cells[i])
    return cells


def write_csv(path: str | Path, header: Sequence[str],
              columns: Sequence[np.ndarray | Sequence[str]]) -> None:
    """Write a header and two or more equally long columns as CSV, LF line ends, a block at a time.

    The cells are those of :func:`column_text` (NaN empty), unquoted, as
    ``csv.writer`` writes them: no cell holds a comma, a quote or a line
    break, and no row is a single empty cell.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks(len(columns[0])):
            fh.write(_csv_block(columns, block))
            fh.write("\n")


def _csv_block(columns: Sequence[np.ndarray | Sequence[str]], block: slice) -> str:
    """The CSV rows of one block, without the last line end; the cells are freed on return."""
    cells = [column_text(column[block]) for column in columns]
    return "\n".join(map(",".join, zip(*cells)))
