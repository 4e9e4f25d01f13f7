"""Deterministic CSV text: 17 significant digits, LF endings, header row.

A table is given as its columns, one sequence per header name. Text
cells holding a comma, a double quote, CR or LF are quoted as in RFC
4180. Tables are encoded in memory; the caller decides where the bytes
go.
"""

from __future__ import annotations

from array import array
from io import BytesIO
from typing import Sequence

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


def encode_csv(header: Sequence[str], columns: Sequence[Sequence]) -> tuple[bytes, int]:
    """Encode columns under a mandatory header; returns (UTF-8 bytes, data row count).

    Each column is a sequence (array('d'), list or tuple), one per header
    name and all of one length, the row count; anything else raises
    ValueError. Rows are formatted _BLOCK at a time with one %-string.
    Within a block, an array('d') column gets %.17g, a column whose cells
    are all float (or all int) gets that type's spec, and any other column
    goes through format_value.
    """
    width = len(header)
    if len(columns) != width:
        raise ValueError(f"{len(columns)} columns, the header {width}")
    n = len(columns[0]) if columns else 0
    for name, col in zip(header, columns):
        if len(col) != n:
            raise ValueError(f"column {name} has {len(col)} cells, column {header[0]} {n}")
    out = BytesIO()
    out.write((",".join(header) + "\n").encode("utf-8"))
    for start in range(0, n, _BLOCK):
        rows = min(_BLOCK, n - start)
        cells = [None] * (rows * width)
        specs = []
        for j, col in enumerate(columns):
            part = col[start:start + rows]
            if isinstance(part, array) and part.typecode == "d":
                spec = "%.17g"
            else:
                types = set(map(type, part))
                spec = _SPECS.get(types.pop()) if len(types) == 1 else None
                if spec is None:
                    part = list(map(format_value, part))
                    spec = "%s"
            cells[j::width] = part
            specs.append(spec)
        out.write(((",".join(specs) + "\n") * rows % tuple(cells)).encode("utf-8"))
    return out.getvalue(), n
