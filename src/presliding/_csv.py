"""Deterministic CSV text: 17 significant digits, LF endings, header row.

A table is given as segments of rows, each with one column per header
name: a sequence, or a single cell that every row of the segment repeats.
Text cells holding a comma, a double quote, CR or LF are quoted as in
RFC 4180. Tables are encoded in memory; the caller decides where the
bytes go.
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

# the column types that hold one cell per row; any other column is a single cell
_SEQUENCES = (list, tuple, array)


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


def encode_csv(header: Sequence[str], segments: Sequence[Sequence]) -> tuple[bytes, int]:
    """Encode segments of rows under a mandatory header; returns (UTF-8 bytes, data row count).

    A segment has one column per header name: a sequence (array('d'), list
    or tuple) or a single cell that every row of the segment repeats. Its
    sequences, at least one, are of one length, its row count; anything
    else raises ValueError. Each column's text is chosen once per segment:
    a single cell is formatted by format_value as a literal, an array('d')
    column gets %.17g, a column whose cells are all float (or all int) gets
    that type's spec, and any other column is formatted by format_value
    under %s. The segment's %-string then formats _BLOCK rows at a time.
    """
    width = len(header)
    out = BytesIO()
    out.write((",".join(header) + "\n").encode("utf-8"))
    total = 0
    for segment in segments:
        if len(segment) != width:
            raise ValueError(f"{len(segment)} columns, the header {width}")
        specs, sequences = [], []
        for name, col in zip(header, segment):
            if not isinstance(col, _SEQUENCES):
                # a single cell's text, with any % doubled
                specs.append(format_value(col).replace("%", "%%"))
                continue
            if isinstance(col, array) and col.typecode == "d":
                spec = "%.17g"
            else:
                types = set(map(type, col))
                spec = _SPECS.get(types.pop()) if len(types) == 1 else None
                if spec is None:
                    col, spec = list(map(format_value, col)), "%s"
            specs.append(spec)
            sequences.append((name, col))
        if not sequences:
            raise ValueError("a segment needs a sequence column for its row count")
        first, n = sequences[0][0], len(sequences[0][1])
        for name, col in sequences:
            if len(col) != n:
                raise ValueError(f"column {name} has {len(col)} cells, column {first} {n}")
        line, k = ",".join(specs) + "\n", len(sequences)
        for start in range(0, n, _BLOCK):
            rows = min(_BLOCK, n - start)
            cells = [None] * (rows * k)
            for j, (_, col) in enumerate(sequences):
                cells[j::k] = col[start:start + rows]
            out.write((line * rows % tuple(cells)).encode("utf-8"))
        total += n
    return out.getvalue(), total
