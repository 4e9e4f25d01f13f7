"""Tests of the CSV encoder: every row reads as format_value gives its cells."""

import csv
import io

import numpy as np
import pytest

from presliding._csv import encode_csv, format_value


def expected_text(header, rows):
    lines = [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


MIXED_ROWS = [
    (True, 3, 2**70, "a%d,b%%s", 0.1),
    (False, -7, -(2**65), "", np.float64(1.0) / 3.0),
    (1, float("nan"), float("inf"), float("-inf"), -0.0),
    (0, 5e-324, 1e300, 1.0, 123456789.0),
    (np.int64(-4), np.float32(0.1), np.float64(2.5), "x", 0),
    (2, 2.5, 2.5e-8, "%", float(np.float64(0.7))),
]


@pytest.mark.parametrize("row", MIXED_ROWS, ids=range(len(MIXED_ROWS)))
def test_row_text_matches_format_value(row):
    header = [f"c{i}" for i in range(len(row))]
    assert encode_csv(header, [row]) == (expected_text(header, [row]).encode("utf-8"), 1)


def test_rows_whose_cell_types_change():
    # one column through float, int, str, bool and numpy cells, and rows of
    # one type key interleaved with rows of another
    header = ["a", "b", "c"]
    rows = [
        (0.5, 1, "s"),
        (1, 0.5, "s"),
        (0.25, 2, "t"),
        ("u", True, np.float64(0.1)),
        (0.125, 3, "v"),
        [np.float32(0.2), 4, 0.3],
        (True, False, -1),
        (0.0625, 5, "w"),
    ]
    expected = expected_text(header, rows).encode("utf-8")
    assert encode_csv(header, iter(rows)) == (expected, len(rows))


def test_empty_table_writes_the_header():
    assert encode_csv(["a", "b"], []) == (b"a,b\n", 0)


TEXT_CELLS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", '"', ",", ""]


@pytest.mark.parametrize("cell", TEXT_CELLS, ids=range(len(TEXT_CELLS)))
def test_text_cells_round_trip_through_csv_reader(cell):
    # RFC 4180: a cell with a comma, a double quote, CR or LF is quoted,
    # and a double quote inside it is doubled
    data, n = encode_csv(["name", "x", "text"], [("k", 0.5, cell)])
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    assert (header, rows, n) == (["name", "x", "text"], [["k", "0.5", cell]], 1)
