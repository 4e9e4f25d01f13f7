"""Deterministic CSV text: 17 significant digits, LF endings, header row.

Text cells holding a comma, a double quote, CR or LF are quoted as in
RFC 4180. Tables are encoded in memory; the caller decides where the
bytes go.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# format_value's text of exact float and int cells, as %-specs; a str cell
# may need quoting, so its row goes through format_value
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

    A row of float and int cells is formatted with one %-string, built once
    per tuple of cell types; any other row goes through format_value.
    """
    formats: dict[tuple, str] = {}  # cell types -> %-string of the row, "" for none
    lines = [",".join(header) + "\n"]
    for row in rows:
        row = tuple(row)
        key = tuple(map(type, row))
        fmt = formats.get(key)
        if fmt is None:
            specs = [_SPECS.get(t) for t in key]
            fmt = formats[key] = "" if None in specs else ",".join(specs) + "\n"
        lines.append(fmt % row if fmt else ",".join(format_value(v) for v in row) + "\n")
    return "".join(lines).encode("utf-8"), len(lines) - 1
