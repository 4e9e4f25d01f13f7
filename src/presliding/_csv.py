"""Deterministic CSV text: 17 significant digits, LF endings, header row.

Text cells holding a comma, a double quote, CR or LF are quoted as in
RFC 4180. Tables are encoded in memory; the caller decides where the
bytes go.
"""

from __future__ import annotations

from io import BytesIO
from itertools import chain, islice
from typing import Iterable, Sequence

# rows formatted per %-string; one block of rows is held at a time
_BLOCK = 1024

# format_value's text of exact float and int cells, as %-specs; a str cell
# may need quoting, so its column goes through format_value
_SPECS = {float: "%.17g", int: "%d"}


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        if any(c in v for c in ',"\r\n'):
            return '"' + v.replace('"', '""') + '"'
        return v
    return f"{float(v):.17g}"


def encode_csv(header: Sequence[str], rows: Iterable[Sequence]) -> tuple[bytes, int]:
    """Encode rows under a mandatory header; returns (UTF-8 bytes, data row count).

    Rows are read _BLOCK at a time, and each block is formatted with one
    %-string. A column of the block whose cells are all float (or all int)
    gets that type's spec; any other column goes through format_value. A
    row whose width differs from the header's raises ValueError.
    """
    width = len(header)
    out = BytesIO()
    out.write((",".join(header) + "\n").encode("utf-8"))
    n = 0
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK)):
        if set(map(len, block)) != {width}:
            bad = next(i for i, row in enumerate(block) if len(row) != width)
            raise ValueError(
                f"row {n + bad} has {len(block[bad])} cells, the header {width}"
            )
        n += len(block)
        specs = []
        cols = list(zip(*block))
        for j, col in enumerate(cols):
            types = set(map(type, col))
            spec = _SPECS.get(types.pop()) if len(types) == 1 else None
            if spec is None:
                cols[j] = tuple(map(format_value, col))
                spec = "%s"
            specs.append(spec)
        cells = chain.from_iterable(zip(*cols) if "%s" in specs else block)
        out.write(((",".join(specs) + "\n") * len(block) % tuple(cells)).encode("utf-8"))
    return out.getvalue(), n
