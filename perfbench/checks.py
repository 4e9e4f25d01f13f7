"""Output checks for one finished job, run outside the timed interval.

``check_job`` returns a list of problems; an empty list means the job's
outputs are correct. The chain check solves the sigma-free reversal map
with ``oracle.find_root`` and deliberately imports nothing from
``presliding.reversal``, so it is an independent route.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from presliding.oracle import find_root

DRIFT_TOL = 1e-6  # same bound as validate's energy-balance check
CHAIN_REL_TOL = 1e-9

# Non-finite cells the program writes on purpose, by (file, column):
# the printed linearized predictor degenerates on part of the fig5 and
# audit grids and is stored as nan there (README, "Figure datasets").
_NAN_ALLOWED = {
    ("fig5_predictions.csv", "x_next_printed"),
    ("fig5_predictions.csv", "F_next_printed"),
    ("approx_audit.csv", "x_next_printed"),
    ("approx_audit.csv", "rel_dev_printed"),
}
# validate's informational "approx-printed-recorded" row has no tolerance
# and records it as inf.
_INF_ALLOWED_ROW = ("validation_report.csv", "tolerance", "approx-printed-recorded")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(header, rows, name) -> list[float]:
    k = header.index(name)
    return [float(r[k]) for r in rows]


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _check_manifest(out: Path, paths) -> list[str]:
    problems = []
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    if lines[0] != "filename,rows,sha256":
        return [f"manifest header {lines[0]!r}"]
    listed = {}
    for line in lines[1:]:
        name, rows, digest = line.split(",")
        listed[name] = (int(rows), digest)
    on_disk = {p.name for p in out.iterdir()} - {"manifest.txt"}
    if set(listed) != on_disk:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(on_disk)}")
    if sorted(Path(p).name for p in paths) != sorted(on_disk | {"manifest.txt"}):
        problems.append("returned paths differ from the files written")
    for name, (rows, digest) in listed.items():
        path = out / name
        if not path.is_file():
            continue
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            problems.append(f"{name}: sha256 differs from the manifest")
        expected = data.count(b"\n") - 1 if name.endswith(".csv") else 0
        if rows != expected:
            problems.append(f"{name}: manifest says {rows} rows, file has {expected}")
    return problems


def _check_finite(name: str, header, rows) -> list[str]:
    problems = []
    for k, col in enumerate(header):
        cells = [row[k] for row in rows]
        try:
            values = np.array(cells, dtype=float)
        except ValueError:
            continue  # a text column (check name, status, detail, grid label)
        for j in np.flatnonzero(~np.isfinite(values)):
            v, row = values[j], rows[j]
            if math.isnan(v) and (name, col) in _NAN_ALLOWED:
                continue
            if (name, col, row[0]) == _INF_ALLOWED_ROW and v == math.inf:
                continue
            problems.append(f"{name}: non-finite {col}={cells[j]} in row {j + 1}")
    return problems


def next_force_ratio(phi: float) -> float:
    """|F_next|/f_c from |F|/f_c, by bisection on the sigma-free map.

    The reversal energy balance reduces to (1 - q) e^q = (1 + phi) e^-phi,
    solved here in log form, log1p(-q) + q = log1p(phi) - phi, whose
    unique root in (0, phi) is the next force ratio q. The bracket ends
    just below phi so that phi = 1 (a saturated seed) stays inside the
    domain of log1p(-q).
    """
    rhs = math.log1p(phi) - phi
    hi = math.nextafter(phi, 0.0)
    return find_root(lambda q: math.log1p(-q) + q - rhs, 0.0, hi, tol=1e-15 * phi)


def _check_chain_rows(name: str, forces: list[float], f_c: float) -> list[str]:
    mags = [abs(f) / f_c for f in forces]
    if not _strictly_decreasing(mags):
        return [f"{name}: |F| does not strictly decrease"]
    worst = 0.0
    for phi, phi_next in zip(mags, mags[1:]):
        worst = max(worst, abs(next_force_ratio(phi) - phi_next) / phi_next)
    if worst > CHAIN_REL_TOL:
        return [f"{name}: next |F| differs from the oracle root by {worst:.3g} relative"]
    return []


def check_job(job: dict, out: Path, code: int, paths, stdout: str) -> list[str]:
    """Every problem found in one job's outputs (empty when all is correct)."""
    if code != 0:
        return [f"exit code {code}"]
    problems = _check_manifest(out, paths)
    tables = {}
    for path in sorted(out.glob("*.csv")):
        header, rows = read_csv(path)
        tables[path.name] = (header, rows)
        problems += _check_finite(path.name, header, rows)
    if problems:
        return problems

    kind = job["kind"]
    params = job.get("params", {})
    f_c = params.get("f_c", 1.0)
    for name, (header, rows) in tables.items():
        if name.startswith("trajectory"):
            e0 = 0.5 * params.get("mass", 1.0) * job["sim"]["v0"] ** 2
            e_k, e_f = _column(header, rows, "E_k"), _column(header, rows, "E_f_cum")
            drift = max(abs(a + b - e0) for a, b in zip(e_k, e_f)) / e0
            if drift > DRIFT_TOL:
                problems.append(f"{name}: energy drift {drift:.3g} > {DRIFT_TOL}")
        elif name.startswith("reversals"):
            if not rows:
                problems.append(f"{name}: no reversals")
            if not _strictly_decreasing([abs(f) for f in _column(header, rows, "F_i")]):
                problems.append(f"{name}: |F_i| does not strictly decrease")
            if not _strictly_decreasing(_column(header, rows, "E_p")):
                problems.append(f"{name}: E_p does not strictly decrease")
        elif name.startswith("fig7_envelope"):
            if not rows or not _strictly_decreasing(_column(header, rows, "E_p")):
                problems.append(f"{name}: E_p does not strictly decrease")
        elif name.startswith("chain"):
            problems += _check_chain_rows(name, _column(header, rows, "F_n"), f_c)
        elif name == "fig6.csv":
            by_ratio: dict[str, list[float]] = {}
            for row in rows:
                by_ratio.setdefault(row[0], []).append(float(row[2]))
            for ratio, forces in by_ratio.items():
                problems += _check_chain_rows(f"{name} ratio {ratio}", forces, f_c)
        elif name == "validation_report.csv":
            failed = [r[0] for r in rows if r[1] != "pass"]
            if failed or not rows:
                problems.append(f"{name}: checks not passing: {failed}")
    if kind == "validate":
        lines = stdout.splitlines()
        if not lines or any(not line.startswith("[pass] ") for line in lines):
            problems.append("validate printed a line that is not a passing check")
    return problems
