"""Tests of the CSV encoder: every row reads as format_value gives its cells."""

import csv
import io
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presliding._csv import _BLOCK, encode_csv, format_value


def expected_text(header, columns):
    rows = zip(*columns)
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
    columns = [[v] for v in row]
    assert encode_csv(header, columns) == (expected_text(header, columns).encode("utf-8"), 1)


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
    columns = list(zip(*rows))
    expected = expected_text(header, columns).encode("utf-8")
    assert encode_csv(header, columns) == (expected, len(rows))


def test_empty_table_writes_the_header():
    assert encode_csv(["a", "b"], [[], array("d")]) == (b"a,b\n", 0)


TEXT_CELLS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", '"', ",", ""]


@pytest.mark.parametrize("cell", TEXT_CELLS, ids=range(len(TEXT_CELLS)))
def test_text_cells_round_trip_through_csv_reader(cell):
    # RFC 4180: a cell with a comma, a double quote, CR or LF is quoted,
    # and a double quote inside it is doubled
    data, n = encode_csv(["name", "x", "text"], [["k"], [0.5], [cell]])
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
        column = [before[i % len(before)] if i < switch else after[i % len(after)]
                  for i in range(n)]
        # a column of plain floats may come as the array('d') a trajectory holds
        if set(map(type, column)) <= {float} and draw(st.booleans()):
            column = array("d", column)
        columns.append(column)
    return [f"c{j}" for j in range(len(columns))], columns, n


@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_blocks_match_a_per_cell_join(table):
    header, columns, n = table
    assert encode_csv(header, columns) == (expected_text(header, columns).encode("utf-8"), n)


def test_block_boundary_type_change():
    # float cells in the first block, int cells in the second: each block
    # picks its own spec
    columns = [[0.5] * _BLOCK + [1] * 3, [1] * _BLOCK + [0.5] * 3]
    assert encode_csv(["a", "b"], columns) == (
        expected_text(["a", "b"], columns).encode("utf-8"), _BLOCK + 3
    )


@pytest.mark.parametrize("n", [1, _BLOCK, _BLOCK + 1])
def test_array_and_list_columns_encode_alike(n):
    values = ([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1.0 / 3.0] * n)[:n]
    ints = list(range(n))
    assert encode_csv(["x", "i"], [array("d", values), ints]) == encode_csv(
        ["x", "i"], [values, ints]
    )


@pytest.mark.parametrize("bad", [0, _BLOCK - 1, _BLOCK + 5])
@pytest.mark.parametrize("width", [1, 3])
def test_ragged_row_raises(bad, width):
    # the columns past the first `width` end at row `bad`, which leaves that
    # row `width` cells of the header's 4; zip would drop the rest of the
    # longer columns without a word
    header = ["a", "b", "c", "d"]
    columns = [array("d", [0.5]) * (_BLOCK + 10) for _ in header]
    for j in range(width, len(header)):
        columns[j] = columns[j][:bad]
    with pytest.raises(
        ValueError, match=f"^column {header[width]} has {bad} cells, column a {_BLOCK + 10}$"
    ):
        encode_csv(header, columns)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_column_count_must_match_header(count):
    with pytest.raises(ValueError, match=f"^{count} columns, the header 2$"):
        encode_csv(["a", "b"], [[0.5]] * count)
