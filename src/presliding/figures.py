"""Builders for every CSV table the CLI writes, and the grids behind them.

Every builder returns a header and one column per header name, which
the CLI encodes deterministically; nothing here touches the filesystem.
Reversal forces on an ascending branch are negative; the figure tables
store their normalized magnitude |F_i|/f_c, which is the axis the plots
use.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DomainError
from .hysteresis import BranchState, FrictionParams, dahl_branch
from .oscillator import Trajectory
from .reversal import (
    _chain_columns,
    _chain_ratios,
    next_reversal_approx,
    next_reversal_exact,
    omega,
    omega_approx,
    potential_energy,
    reversal_coordinate,
)

__all__ = [
    "FORCE_FRACTIONS",
    "DEFAULT_SWEEPS",
    "trajectory_table",
    "reversals_table",
    "CHAIN_HEADER",
    "fig3_table",
    "fig4_table",
    "fig5_tables",
    "fig6_table",
    "fig7_energy_magnitude",
    "fig7_envelope",
    "FIG7_README",
]

FORCE_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)

# the header of a reversal chain's columns, reversal_chain's result
CHAIN_HEADER = ["n", "F_n", "x_n", "E_p", "E_d"]

# default sweep of each kind that takes one: sigma/f_c ratios, except for
# fig5, which sweeps the friction level f_c at fixed sigma
DEFAULT_SWEEPS = {
    "fig3": (1.0, 10.0, 100.0, 1000.0),
    "fig4": (1.0, 2.0, 8.0),
    "fig5": (1.0, 1.5, 2.0),
    "fig6": (10.0, 100.0, 1000.0),
    "fig7": (10.0, 100.0, 1000.0),
}

FIG7_README = """\
fig7_traj_ratio<R>.csv
    t                 simulation time
    energy_magnitude  |e_f_cum(t) - e_f_cum(t_rev0)|, the magnitude of the
                      restoring-force energy integral measured relative to
                      the first detected reversal. After that reversal this
                      equals the instantaneous kinetic energy, so the signal
                      oscillates between ~0 (at reversals) and the
                      recoverable energy of the current half-cycle.

fig7_envelope_ratio<R>.csv
    i    reversal index
    t_i  reversal instant
    E_p  recoverable potential energy at that reversal (the envelope of the
         energy_magnitude peaks; one peak per half-cycle)

<R> is the stiffness-to-friction ratio sigma/f_c of the run.
"""


def _linspace(a: float, b: float, n: int) -> list[float]:
    """np.linspace(a, b, n).tolist() for n >= 2, computed the way numpy does."""
    delta = b - a
    step = delta / (n - 1)
    if step == 0.0:  # numpy's route for a delta that underflows the step
        grid = [i / (n - 1) * delta + a for i in range(n)]
    else:
        grid = [i * step + a for i in range(n)]
    grid[-1] = b
    return grid


# the fig3-fig6 builders take ExperimentConfig.runs: (suffix, sweep value, params)
Runs = Iterable[tuple[str, float, FrictionParams]]


def _columns(rows: Sequence[Sequence], width: int) -> list[list]:
    """Rows transposed into `width` columns; zero rows give `width` empty columns.

    Each column is one pass of itemgetter over the rows. zip(*rows) would
    create one iterator per row, and for many rows those allocations set
    off cyclic-GC passes over them.
    """
    return [list(map(itemgetter(j), rows)) for j in range(width)]


def trajectory_table(traj: Trajectory) -> tuple[list[str], list[Sequence]]:
    """Samples as t,x,v,F,E_k,E_f_cum; the sample columns are handed over as they are."""
    m = traj.config.params.mass
    e_k = [0.5 * m * v**2 for v in traj.v]
    columns = [traj.t, traj.x, traj.v, traj.f, e_k, traj.e_f_cum]
    return ["t", "x", "v", "F", "E_k", "E_f_cum"], columns


def reversals_table(traj: Trajectory) -> tuple[list[str], list[Sequence]]:
    """Reversal records as i,t_i,x_i,F_i,E_p,E_d_halfcycle, ReversalRecord's fields in order."""
    return ["i", "t_i", "x_i", "F_i", "E_p", "E_d_halfcycle"], _columns(traj.reversals, 6)


def fig3_table(runs: Runs) -> tuple[list[str], list[list]]:
    """Recoverable reversal energy over 100 force fractions, one series per ratio."""
    header = ["F_i_over_Fc", "ratio", "E_p"]
    rows = []
    grid = _linspace(0.01, 1.0, 100)
    for _, ratio, p in runs:
        for u in grid:
            rows.append((u, ratio, potential_energy(-u * p.f_c, p)))
    return header, _columns(rows, 3)


def fig4_table(runs: Runs) -> tuple[list[str], list[list]]:
    """Exact vs linearized decay factor to the next reversal, 101 points per curve."""
    header = ["ratio", "F_i_over_Fc", "x", "omega", "omega_star"]
    rows = []
    for _, ratio, p in runs:
        for u in FORCE_FRACTIONS:
            f_i = -u * p.f_c
            x_next = next_reversal_exact(f_i, p)
            k = omega_approx(f_i, p)
            for x in _linspace(0.0, x_next, 101):
                rows.append((ratio, u, x, omega(x, p), 1.0 - k * x))
    return header, _columns(rows, 5)


def _predictions(f_i: float, p: FrictionParams) -> tuple[float, float, float]:
    """Next reversal after force f_i: exact, printed and rederived; nan for a degenerate form."""
    xs = [next_reversal_exact(f_i, p)]
    for form in ("printed", "rederived"):
        try:
            xs.append(next_reversal_approx(f_i, p, form=form))
        except DomainError:
            xs.append(math.nan)
    return tuple(xs)


def fig5_tables(runs: Runs) -> list[tuple[str, list[str], list[list]]]:
    """Force-displacement curve of one half-cycle per friction level.

    The curve of 201 points starts at a saturated reversal (force -f_c) and
    runs to the exactly predicted next reversal; a companion table records
    where the exact and both linearized predictors put that reversal.
    Degenerate predictor points are stored as nan. Each run's value is its
    friction level f_c.
    """
    curve_header = ["F_c", "x", "F"]
    curve_rows = []
    pred_header = [
        "F_c",
        "E_p",
        "x_next_exact",
        "x_next_printed",
        "x_next_rederived",
        "F_next_exact",
        "F_next_printed",
        "F_next_rederived",
    ]
    pred_rows = []
    for _, f_c, p in runs:
        f_i = -p.f_c
        x_i = reversal_coordinate(f_i, p)
        force = dahl_branch(BranchState(x_i, f_i, +1), p)
        xs = _predictions(f_i, p)
        for x in _linspace(x_i, xs[0], 201):
            curve_rows.append((f_c, x, force(x)))
        forces = [math.nan if math.isnan(x) else force(x) for x in xs]
        pred_rows.append((f_c, potential_energy(f_i, p), *xs, *forces))
    return [
        ("fig5.csv", curve_header, _columns(curve_rows, 3)),
        ("fig5_predictions.csv", pred_header, _columns(pred_rows, len(pred_header))),
    ]


def fig6_table(
    runs: Runs, f0_over_fc: float, n_steps: int, mode: str
) -> tuple[list[str], list[list]]:
    """Reversal-chain energies per stiffness ratio, seeded at f0_over_fc*f_c."""
    header = ["ratio", *CHAIN_HEADER]
    columns = [[] for _ in header]
    ratios = None
    for _, ratio, p in runs:
        f_0 = f0_over_fc * p.f_c
        # the ratios are sigma-free, and the runs differ in sigma only (the sweep's)
        if ratios is None:
            ratios = _chain_ratios(f_0, n_steps, p, mode)
        for col, values in zip(columns, [[ratio] * n_steps, *_chain_columns(f_0, p, *ratios)]):
            col += values
    return header, columns


def fig7_energy_magnitude(traj: Trajectory) -> tuple[list[str], list[Sequence]]:
    """Restoring-force energy magnitude relative to the first reversal."""
    e_ref = 0.0
    if traj.reversals:
        e_ref = traj.e_f_cum[bisect_left(traj.t, traj.reversals[0].t_i)]
    return ["t", "energy_magnitude"], [traj.t, [abs(e - e_ref) for e in traj.e_f_cum]]


def fig7_envelope(traj: Trajectory) -> tuple[list[str], list[Sequence]]:
    """Envelope points: recoverable energy at each detected reversal instant."""
    rows = [(r.index, r.t_i, r.e_p) for r in traj.reversals]
    return ["i", "t_i", "E_p"], _columns(rows, 3)
