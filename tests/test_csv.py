"""Tests of the CSV encoder: every row reads as format_value gives its cells."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presliding._csv import _BLOCK, encode_csv, format_value


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


# row counts around the block size, where the encoder starts a new %-string
ROW_COUNTS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]

CELLS = st.one_of(
    st.floats(),  # nan, +-inf and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.text(alphabet='ab,"%\r\n'),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
# a column's cells cycle through a pool: of one type (the %-spec path) or mixed
POOLS = st.one_of(
    st.lists(st.floats(), min_size=1, max_size=4),
    st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=4),
    st.lists(CELLS, min_size=1, max_size=4),
)


@st.composite
def tables(draw):
    n = draw(st.sampled_from(ROW_COUNTS))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        # the pool changes at row `switch`: inside a block, at a block
        # boundary, or never
        before, after = draw(POOLS), draw(POOLS)
        switch = draw(st.sampled_from([0, 1, _BLOCK // 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, n]))
        columns.append([before[i % len(before)] if i < switch else after[i % len(after)]
                        for i in range(n)])
    return [f"c{j}" for j in range(len(columns))], list(zip(*columns))


@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_blocks_match_a_per_cell_join(table):
    header, rows = table
    assert encode_csv(header, iter(rows)) == (expected_text(header, rows).encode("utf-8"), len(rows))


def test_block_boundary_type_change():
    # float cells in the first block, int cells in the second: each block
    # picks its own spec
    rows = [(0.5, 1)] * _BLOCK + [(1, 0.5)] * 3
    assert encode_csv(["a", "b"], rows) == (expected_text(["a", "b"], rows).encode("utf-8"),
                                            _BLOCK + 3)


@pytest.mark.parametrize("bad", [0, _BLOCK - 1, _BLOCK + 5])
@pytest.mark.parametrize("width", [1, 3])
def test_ragged_row_raises(bad, width):
    # zip would drop the cells of a longer row, or the columns past a
    # shorter one, without a word
    rows = [(0.5, 1.0)] * (_BLOCK + 10)
    rows[bad] = (0.5,) * width
    with pytest.raises(ValueError, match=f"^row {bad} has {width} cells, the header 2"):
        encode_csv(["a", "b"], rows)
