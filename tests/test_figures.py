"""Tests of the table grids and of the bytes the closed-form figure tables encode to."""

from array import array

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from presliding.errors import DomainError
from presliding.hysteresis import FrictionParams
from presliding.reversal import reversal_chain
from presliding._csv import encode_csv
from presliding.figures import (
    CHAIN_HEADER,
    _linspace,
    fig3_table,
    fig4_table,
    fig5_tables,
    fig6_table,
    fig7_envelope,
    reversals_table,
)
from presliding.oscillator import ReversalRecord, SimConfig, Trajectory

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(a=finite, b=finite, n=st.integers(2, 500))
@example(a=0.01, b=1.0, n=100)  # the fig3 grid
@example(a=0.0, b=5e-324, n=3)  # a step that underflows to 0
@example(a=-1e308, b=1e308, n=5)  # a span that overflows to inf
def test_linspace_matches_numpy_bitwise(a, b, n):
    with np.errstate(all="ignore"):
        expected = np.linspace(a, b, n).tolist()
    assert list(map(float.hex, _linspace(a, b, n))) == list(map(float.hex, expected))


def test_builders_give_one_column_per_header_at_zero_rows():
    # no sweep entries give no segments; a chain of five empty columns and a
    # trajectory without reversals give one segment of zero rows
    traj = Trajectory(*(array("d") for _ in range(5)), [], SimConfig(FrictionParams(1.0, 10.0)))
    tables = [fig3_table([]), fig4_table([]), fig6_table([], -1.0, 5, "exact"),
              (CHAIN_HEADER, [[[] for _ in range(5)]]), reversals_table(traj), fig7_envelope(traj)]
    tables += [(header, segments) for _, header, segments in fig5_tables([])]
    assert [len(segments) for _, segments in tables] == [0, 0, 0, 1, 1, 1, 0, 1]
    for header, segments in tables:
        assert all(len(segment) == len(header) and all(len(col) == 0 for col in segment)
                   for segment in segments)
        assert encode_csv(header, segments) == ((",".join(header) + "\n").encode(), 0)


@given(
    f0_over_fc=st.floats(-1.0, -1e-9),
    ratios=st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=3),
    n_steps=st.integers(1, 200),
    mode=st.sampled_from(["exact", "approx"]),
)
def test_fig6_is_each_entry_chain_under_its_ratio(f0_over_fc, ratios, n_steps, mode):
    # the bytes are those of one reversal_chain per entry, with the ratio column prepended
    runs = [("", r, FrictionParams(f_c=0.3, sigma=0.3 * r)) for r in ratios]
    columns = [[] for _ in range(6)]
    for _, ratio, p in runs:
        chain = reversal_chain(f0_over_fc * p.f_c, n_steps, p, mode)
        for col, values in zip(columns, [[ratio] * n_steps, *chain]):
            col += values
    header = ["ratio", "n", "F_n", "x_n", "E_p", "E_d"]
    assert encode_csv(*fig6_table(runs, f0_over_fc, n_steps, mode)) == encode_csv(header, [columns])


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_fig6_chains_and_checks_each_run(mode):
    # runs that differ in f_c as well as sigma each get their own chain, whose
    # ratios differ in the last bits here, and a run outside gamma == 1 is refused
    runs = [("", 1.0, FrictionParams(1.0, 1.0)), ("", 1.0, FrictionParams(3.0, 3.0))]
    assert fig6_table(runs, -0.7, 50, mode)[1] == [
        [ratio, *reversal_chain(-0.7 * p.f_c, 50, p, mode)] for _, ratio, p in runs]
    with pytest.raises(DomainError, match="gamma"):
        fig6_table([runs[0], ("", 1.0, FrictionParams(1.0, 1.0, gamma=2.0))], -0.7, 50, mode)


def test_reversals_header_pairs_with_record_fields(traj10):
    # the table transposes the records as they are, so its header must name
    # ReversalRecord's fields one to one and in order
    header, (columns,) = reversals_table(traj10)
    assert [{"i": "index"}.get(h, h.lower()) for h in header] == list(ReversalRecord._fields)
    for field, column in zip(ReversalRecord._fields, columns):
        assert column == [getattr(r, field) for r in traj10.reversals]
