"""Tests of the table grids."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from presliding.figures import _linspace

finite = st.floats(allow_nan=False, allow_infinity=False)


@given(a=finite, b=finite, n=st.integers(2, 500))
@example(a=0.01, b=1.0, n=100)  # the fig3 grid
@example(a=0.0, b=5e-324, n=3)  # a step that underflows to 0
@example(a=-1e308, b=1e308, n=5)  # a span that overflows to inf
def test_linspace_matches_numpy_bitwise(a, b, n):
    with np.errstate(all="ignore"):
        expected = np.linspace(a, b, n).tolist()
    assert list(map(float.hex, _linspace(a, b, n))) == list(map(float.hex, expected))
