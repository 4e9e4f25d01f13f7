"""Deterministic CSV writing: 17 significant digits, LF endings, header row."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

# format_value's text of exact float, int and str cells, as %-specs
_SPECS = {float: "%.17g", int: "%d", str: "%s"}


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write rows under a mandatory header; returns the data row count.

    A row of float, int and str cells is written with one %-string, built
    once per tuple of cell types; any other row goes through format_value.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    formats: dict[tuple, str] = {}  # cell types -> %-string of the row, "" for none
    n = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            key = tuple(map(type, row))
            fmt = formats.get(key)
            if fmt is None:
                specs = [_SPECS.get(t) for t in key]
                fmt = formats[key] = "" if None in specs else ",".join(specs) + "\n"
            fh.write(fmt % row if fmt else ",".join(format_value(v) for v in row) + "\n")
            n += 1
    return n
