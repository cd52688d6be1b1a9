"""The column-wise text formatter against row-by-row references that live only here.

The references format one cell at a time, as the writers did before the
formatter: ``csv.writer`` with ``repr`` (NaN an empty cell) for every CSV,
``json.dumps(..., indent=2)`` for the ``analyze`` report and one f-string per
group for its stdout.  Columns hold NaN, +-inf, -0.0, the smallest subnormal
and the largest double, in lengths around one and two blocks of rows.
"""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chipctx import cli, text
from chipctx.analysis import CONTEXTS, ReportTable
from chipctx.sampling import CountRecord, write_counts_csv
from chipctx.sweep import SWEEP_CSV_COLUMNS, SweepSpec, run_sweep, write_sweep_csv

from conftest import read_outcome, record_rows, traced_peak

PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=40)

EDGE_VALUES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308)
FINITE_EDGE_VALUES = tuple(x for x in EDGE_VALUES if math.isfinite(x))
LENGTHS = st.sampled_from(sorted({0, 1, text._BLOCK - 1, text._BLOCK, text._BLOCK + 1,
                                   1023, 1024, 1025}))

cells = st.floats() | st.sampled_from(EDGE_VALUES)
finite_cells = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(FINITE_EDGE_VALUES)


@st.composite
def report_columns(draw):
    """A (rows, 10) float array: phi, the four E, S, epsilon, bound, sigma_S, significance."""
    return draw(hnp.arrays(np.float64, (draw(LENGTHS), 10), elements=cells))


def table_of(columns):
    return ReportTable(columns[:, 0], columns[:, 1:5], *columns[:, 5:].T)


def reference_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([x if isinstance(x, (int, str)) else "" if math.isnan(x) else repr(x)
                      for x in row] for row in rows)
    return buffer.getvalue()


def reference_stdout(rows, summary):
    def verdict(z, s, bound):
        return "violation" if (s > bound if math.isnan(z) else z > cli.VERDICT_SIGMAS) else (
            "no violation")

    lines = [f"phi={phi!r}: S={s:.6f} +- {sigma_s:.6f} epsilon={eps:.6f} bound={bound:.6f} "
             f"significance={'n/a' if math.isnan(z) else format(z, '.3f')} "
             f"[{verdict(z, s, bound)}]\n"
             for phi, _, _, _, _, s, eps, bound, sigma_s, z in rows]
    if summary is not None:
        s, bound, sigma, z = summary
        lines.append(f"summary: S={s!r} bound={bound!r} sigma_S={sigma!r} "
                     f"-> significance = {z:.3f} sigma [{verdict(z, s, bound)}]\n")
        lines.append(cli._SUMMARY_NOTE + "\n")
    return "".join(lines)


def assert_same_text(got, expected):
    """got == expected, reporting the first line that differs: a diff of the whole text is slow."""
    if got != expected:
        got_lines, expected_lines = got.splitlines(), expected.splitlines()
        line = next((i for i, (a, b) in enumerate(zip(got_lines, expected_lines)) if a != b),
                    min(len(got_lines), len(expected_lines)))
        pytest.fail(f"line {line + 1} differs: {got_lines[line:line + 1]} != "
                    f"{expected_lines[line:line + 1]}")


def written(write, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(path, *args)
        return path.read_bytes().decode("utf-8")


@PROPERTY
@given(report_columns())
def test_sweep_csv_equals_csv_writer(columns):
    assert_same_text(written(write_sweep_csv, table_of(columns)),
                     reference_csv(SWEEP_CSV_COLUMNS, columns.tolist()))


@PROPERTY
@given(st.data())
def test_write_csv_equals_csv_writer(data):
    columns = data.draw(hnp.arrays(np.float64, (data.draw(LENGTHS), data.draw(st.integers(2, 5))),
                                   elements=cells))
    header = [f"c{i}" for i in range(columns.shape[1])]
    assert_same_text(written(text.write_csv, header, list(columns.T)),
                     reference_csv(header, columns.tolist()))


@PROPERTY
@given(report_columns(), st.none() | st.tuples(cells, cells, cells, cells))
def test_report_json_equals_json_dump(columns, summary):
    payload = {"groups": [
        {"phi": phi, "expectations": dict(zip(CONTEXTS, e)), "S": s, "epsilon": eps,
         "bound": bound, "sigma_S": sigma_s, "significance": None if math.isnan(z) else z}
        for phi, *e, s, eps, bound, sigma_s, z in columns.tolist()]}
    if summary is not None:
        payload["summary"] = dict(zip(("S", "bound", "sigma_S", "significance"), summary))
    assert_same_text("".join(cli._report_json(table_of(columns), summary)),
                     json.dumps(payload, indent=2) + "\n")


@PROPERTY
@given(report_columns(), st.none() | st.tuples(cells, cells, cells, cells))
def test_report_stdout_equals_the_row_format(columns, summary):
    assert_same_text("".join(cli._report_lines(table_of(columns), summary)),
                     reference_stdout(columns.tolist(), summary))


# What may break one row of a counts CSV: its phi (the writer rejects it), or a count, its
# total or its seed (CountRecord rejects them).
FLAWS = ("phi", "negative-count", "no-events", "total-past-int64", "seed-past-uint64")


@st.composite
def count_fields(draw, lengths=LENGTHS, flaw=None):
    """phi, context, counts and seed lists of rows, one of which has ``flaw`` if given.

    Every other row is valid: a finite phi, a total in [1, 2**63), one row's total the
    largest an int64 holds, and any uint64 seed.
    """
    n = draw(lengths)
    phi = draw(hnp.arrays(np.float64, n, elements=finite_cells)).tolist()
    contexts = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3))).tolist()
    counts = draw(hnp.arrays(np.int64, (n, 4), elements=st.integers(0, 2**61 - 1)))
    no_events = ~counts.any(axis=1)  # a record holds at least one event
    counts[no_events, draw(st.integers(0, 3))] = draw(st.integers(1, 2**61 - 1))
    seeds = draw(hnp.arrays(np.uint64, n, elements=st.integers(0, 2**64 - 1)
                            | st.sampled_from([0, 2**63, 2**64 - 1]))).tolist()
    if n:  # a row whose total is the largest an int64 holds
        counts[draw(st.integers(0, n - 1))] = draw(st.permutations([2**63 - 1, 0, 0, 0]))
    counts = counts.tolist()
    row = draw(st.integers(0, n - 1)) if flaw else None
    if flaw == "phi":
        phi[row] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif flaw == "negative-count":
        counts[row] = draw(st.permutations([-1, 1, 0, 0]))
    elif flaw == "no-events":
        counts[row] = [0, 0, 0, 0]
    elif flaw == "total-past-int64":
        counts[row] = draw(st.permutations([2**63 - 1, 1, 0, 0]))
    elif flaw == "seed-past-uint64":
        seeds[row] = draw(st.sampled_from([-1, 2**64]))
    return phi, contexts, counts, seeds


def count_rows(phi, contexts, counts, seeds):
    return [(x, CountRecord(CONTEXTS[c], tuple(n), sum(n), seed))
            for x, c, n, seed in zip(phi, contexts, counts, seeds)]


@PROPERTY
@given(count_fields())
def test_counts_csv_equals_csv_writer(fields):
    rows = count_rows(*fields)
    expected = [(repr(x), rec.context, *rec.counts, rec.total, rec.seed) for x, rec in rows]
    header = ("phi", "context", "n1", "n2", "n3", "n4", "N", "seed")
    assert_same_text(written(write_counts_csv, rows), reference_csv(header, expected))


@pytest.mark.parametrize("flaw", [None, *FLAWS], ids=["valid", *FLAWS])
@PROPERTY
@given(data=st.data())
def test_every_counts_csv_written_reads_back_to_its_rows(flaw, data):
    fields = data.draw(count_fields(st.sampled_from([1, 2, 5, text._BLOCK + 1]), flaw))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        if flaw not in (None, "phi"):  # CountRecord rejects the row before any writer sees it
            with pytest.raises(ValueError):
                count_rows(*fields)
            return
        rows = count_rows(*fields)
        if flaw == "phi":
            with pytest.raises(ValueError, match="^phi must be finite$"):
                write_counts_csv(path, rows)
            assert not path.exists()
            return
        write_counts_csv(path, rows)
        read = record_rows(path)
        assert read_outcome(path) == read_outcome(path, reference=True)
    assert [(repr(x), rec) for x, rec in read] == [(repr(x), rec) for x, rec in rows]


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_counts_writer_rejects_a_phi_its_reader_rejects(tmp_path, phi):
    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError, match="phi must be finite"):
        write_counts_csv(path, [(0.0, CountRecord("XZ", (1, 0, 0, 0), 1, 0)),
                                (phi, CountRecord("XX", (1, 0, 0, 0), 1, 0))])
    assert not path.exists()


# The maps and float formats the writers pass to column_text.
WRITER_FORMATS = {"csv": (text.CSV_NON_FINITE, repr), "json": (text.JSON_NON_FINITE, repr),
                  "json-significance": (text.JSON_SIGNIFICANCE, repr),
                  "stdout-significance": (text.STDOUT_SIGNIFICANCE, "{:.3f}".format)}


def reference_cells(column, non_finite, fmt):
    return [fmt(x) if math.isfinite(x) else non_finite.get(fmt(x), fmt(x)) for x in column.tolist()]


def block_of(length, n_distinct, seed=0):
    """A shuffled block of ``length`` values, ``n_distinct`` of them distinct, the edge values first."""
    pool = np.array([*EDGE_VALUES, *(1.0 + np.arange(length) / 7)])[:n_distinct]
    rng = np.random.default_rng(seed)
    return rng.permutation(np.concatenate([pool, rng.choice(pool, length - n_distinct)]))


@pytest.mark.parametrize("length", sorted({0, 1, text._BLOCK - 1, text._BLOCK, text._BLOCK + 1}))
@pytest.mark.parametrize("over_half", [0, 1], ids=["half-distinct", "one-over-half"])
@pytest.mark.parametrize("writer", list(WRITER_FORMATS))
def test_column_text_of_repeated_values_equals_the_per_cell_format(length, over_half, writer):
    # a block of one value has no half; a block of none, nothing over half
    n_distinct = min(max(length // 2 + over_half, 1), length)
    column = block_of(length, n_distinct)
    assert len(set(column.view(np.int64).tolist())) == n_distinct
    non_finite, fmt = WRITER_FORMATS[writer]
    assert text.column_text(column, non_finite, fmt) == reference_cells(column, non_finite, fmt)


@pytest.mark.parametrize("n_distinct", [6, text._BLOCK])
def test_column_text_formats_each_distinct_value_once(n_distinct):
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    column = block_of(text._BLOCK, n_distinct)
    assert text.column_text(column, fmt=counting_repr) == reference_cells(
        column, text.CSV_NON_FINITE, repr)
    assert len(calls) == n_distinct


@pytest.mark.parametrize("write,shape", [("sweep_csv", "random"), ("report", "random"),
                                         ("sweep_csv", "analytic"), ("report", "analytic")],
                         ids=["sweep_csv", "report", "sweep_csv-analytic", "report-analytic"])
def test_memory_does_not_grow_with_the_rows(tmp_path, write, shape):
    # the whole report of 40 blocks would be about 7 MB of text, the CSV about 4 MB
    def write_out(columns):
        table = table_of(columns)
        if write == "sweep_csv":
            write_sweep_csv(tmp_path / "sweep.csv", table)
            return
        with open(tmp_path / "report.txt", "w", encoding="utf-8") as fh:
            fh.writelines(cli._report_lines(table, None))
        with open(tmp_path / "report.json", "w", encoding="utf-8") as fh:
            fh.writelines(cli._report_json(table, None))

    def columns(n_rows):
        columns = rng.random((n_rows, 10))
        if shape == "analytic":  # E of 6 values, sigma_S 0.0 and an undefined significance
            columns[:, 1:5] = rng.choice(np.linspace(-1.0, 1.0, 6), (n_rows, 4))
            columns[:, 8], columns[:, 9] = 0.0, math.nan
        return columns

    rng = np.random.default_rng(5)
    one_block = traced_peak(write_out, columns(text._BLOCK))
    many_blocks = traced_peak(write_out, columns(40 * text._BLOCK))
    assert many_blocks <= one_block + 64 * 1024
    assert many_blocks < 1 << 20


def test_the_sweeps_counts_write_holds_few_bytes_per_record(tmp_path, monkeypatch, capsys):
    # the phi column (np.repeat) and the context tuple hold 16 B a record, N 8 more; the
    # blocks of text a bounded amount
    steps = 20_000
    table = run_sweep(SweepSpec(0.0, 1.0, steps, mode="sampled", shots=1000))
    monkeypatch.setattr(cli, "run_sweep", lambda spec: table)
    peak = traced_peak(cli.main, ["sweep", "--mode", "sampled", "--steps", str(steps),
                                  "--shots", "1000", "--out", str(tmp_path / "sweep.csv")])
    assert (tmp_path / "sweep_counts.csv").stat().st_size > 0
    assert peak <= 40 * len(CONTEXTS) * steps
