"""Tests of the CSV writer: every row reads as format_value gives its cells."""

import numpy as np
import pytest

from presliding._csv import format_value, write_csv


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
def test_row_text_matches_format_value(tmp_path, row):
    header = [f"c{i}" for i in range(len(row))]
    path = tmp_path / "t.csv"
    assert write_csv(path, header, [row]) == 1
    assert path.read_text(encoding="utf-8") == expected_text(header, [row])


def test_rows_whose_cell_types_change(tmp_path):
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
    path = tmp_path / "t.csv"
    assert write_csv(path, header, iter(rows)) == len(rows)
    assert path.read_bytes() == expected_text(header, rows).encode("utf-8")


def test_empty_table_writes_the_header(tmp_path):
    path = tmp_path / "sub" / "t.csv"
    assert write_csv(path, ["a", "b"], []) == 0
    assert path.read_bytes() == b"a,b\n"
