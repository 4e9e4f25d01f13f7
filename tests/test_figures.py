"""Tests of the table grids and of the bytes the closed-form figure tables encode to."""

import hashlib
from array import array

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from presliding import FrictionParams, reversal_chain
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


def test_fig4_fig5_bytes_are_pinned():
    # fig4 at sigma/f_c 1 and 1000 with f_c = 0.3; fig5 at f_c 0.3 and 3 with
    # sigma = 1, where the printed predictor degenerates at f_c = 3 (nan cells)
    runs = [("", r, FrictionParams(f_c=0.3, sigma=0.3 * r)) for r in (1.0, 1000.0)]
    tables = [("fig4.csv", *fig4_table(runs))]
    tables += fig5_tables([("", f_c, FrictionParams(f_c=f_c, sigma=1.0)) for f_c in (0.3, 3.0)])
    digests = {}
    for name, header, columns in tables:
        data, n = encode_csv(header, columns)
        digests[name] = (n, hashlib.sha256(data).hexdigest())
    assert digests == {
        "fig4.csv": (1010, "9294de959367334b92c76aabfd3807678915a351a6bf01c3267e8efdfca60a7a"),
        "fig5.csv": (402, "d23a896f9a0cd98a62fd478bbf32f593fec6e55bee824076b3d7c270a3285287"),
        "fig5_predictions.csv": (
            2, "04fb34c456e45a1c0ce01474dd41b32c95c5dd2ec947172022639c2028715de6"
        ),
    }


def test_builders_give_one_column_per_header_at_zero_rows():
    # no sweep entries, a chain of five empty columns, a trajectory without reversals
    traj = Trajectory(*(array("d") for _ in range(5)), [], SimConfig(FrictionParams(1.0, 10.0)))
    tables = [fig3_table([]), fig4_table([]), fig6_table([], -1.0, 5, "exact"),
              (CHAIN_HEADER, [[] for _ in range(5)]), reversals_table(traj), fig7_envelope(traj)]
    tables += [(header, columns) for _, header, columns in fig5_tables([])]
    for header, columns in tables:
        assert encode_csv(header, columns) == ((",".join(header) + "\n").encode(), 0)


@given(
    f0_over_fc=st.floats(-1.0, -1e-9),
    ratios=st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=3),
    n_steps=st.integers(1, 200),
    mode=st.sampled_from(["exact", "approx"]),
)
def test_fig6_is_each_entry_chain_under_its_ratio(f0_over_fc, ratios, n_steps, mode):
    # exact mode shares one ratio pass between the entries; the bytes are
    # those of one reversal_chain per entry, with the ratio column prepended
    runs = [("", r, FrictionParams(f_c=0.3, sigma=0.3 * r)) for r in ratios]
    columns = [[] for _ in range(6)]
    for _, ratio, p in runs:
        chain = reversal_chain(f0_over_fc * p.f_c, n_steps, p, mode)
        for col, values in zip(columns, [[ratio] * n_steps, *chain]):
            col += values
    header = ["ratio", "n", "F_n", "x_n", "E_p", "E_d"]
    assert encode_csv(*fig6_table(runs, f0_over_fc, n_steps, mode)) == encode_csv(header, columns)


def test_reversals_header_pairs_with_record_fields(traj10):
    # the table transposes the records as they are, so its header must name
    # ReversalRecord's fields one to one and in order
    header, columns = reversals_table(traj10)
    assert [{"i": "index"}.get(h, h.lower()) for h in header] == list(ReversalRecord._fields)
    for field, column in zip(ReversalRecord._fields, columns):
        assert column == [getattr(r, field) for r in traj10.reversals]
