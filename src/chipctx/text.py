"""Column-wise text formatting: the one formatter behind every CSV and the ``analyze`` report.

A writer hands over columns and formats them a block of at most ``_BLOCK``
rows at a time, so the text alive at once stays bounded whatever the row
count.  :func:`column_text` turns a block of one column into its cells with
one C-level ``map``: ``repr`` of each float (or another float format), ``str``
of each integer; a sequence of str is already text.  A float block in which
at most half the values are distinct (an analytic sweep's E_XZ, E_ZZ, sigma_S
and significance, the counts CSV's phi) is formatted once per distinct value
and spread back out by index.  Only the non-finite values are then mapped,
through one of the maps of non-finite texts below, which are the one place
those rules live.  The cells become rows with ``map(",".join, zip(*cells))``
(:func:`write_csv`) or with one ``str.format`` template per row (the
``analyze`` writers).
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

    A float64 column is ``fmt`` of each value, with the text of a non-finite
    value replaced by its entry in ``non_finite``, if any; an integer column
    is ``str`` of each value; any other sequence is returned as it is.  When
    at most half of a float block's values are distinct, ``fmt`` and
    ``non_finite`` see each distinct value once, keyed by its bits (so -0.0
    and 0.0 stay apart), and the texts are spread back out by index.
    """
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    bits = column.view(np.int64)
    order = np.argsort(bits, kind="stable")
    first = np.ones(len(column), dtype=bool)  # the first of each run of equal bits
    np.not_equal(bits[order[1:]], bits[order[:-1]], out=first[1:])
    # spreading the texts back out is a second map over the cells: worth it only on repeats
    repeats = 2 * np.count_nonzero(first) <= len(column)
    values = column[order[first]] if repeats else column
    texts = list(map(fmt, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = non_finite.get(texts[i], texts[i])
    if not repeats:
        return texts
    inverse = np.empty(len(column), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return list(map(texts.__getitem__, inverse.tolist()))


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
