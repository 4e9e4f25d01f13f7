"""Oracle-backed validation checks behind the `validate` CLI command.

Each check pits a closed-form result against an independent numerical
route (quadrature, finite differences, fine-step simulation) or asserts a
structural property of the model. Results carry the measured error and
the tolerance it was judged against, so the emitted report doubles as a
numerical audit trail.

Frozen regression constants (measured once with the oracle, then pinned):

- OMEGA_ENVELOPE_BOUND: worst |omega - omega_approx| over the standard
  ratio/force grid (measured 0.0659);
- APPROX_REDERIVED_BOUND: worst relative deviation of the "rederived"
  linearized predictor from the exact root over the audit grids
  (measured 0.1211);
- SERIES_99PCT_STEPS: half-cycles needed to dissipate 99% of the seed
  energy at sigma/f_c = 10 from a fully saturated reversal (measured 18).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple

from .figures import DEFAULT_SWEEPS, FORCE_FRACTIONS, _linspace, _predictions
from .hysteresis import (
    BranchState,
    FrictionParams,
    dahl_branch,
    dahl_rate,
    loop_dissipation,
    reverse_branch,
    stop_spring,
)
from .oracle import derivative, find_root, integrate
from .oscillator import SimConfig, Trajectory, simulate
from .reversal import (
    SLOPE_EXPONENT,
    next_reversal_exact,
    omega,
    omega_approx,
    potential_energy,
    reversal_chain,
    reversal_coordinate,
)

__all__ = [
    "AUDIT_HEADER",
    "CHECKS",
    "CheckResult",
    "run_all",
    "OMEGA_ENVELOPE_BOUND",
    "APPROX_REDERIVED_BOUND",
    "SERIES_99PCT_STEPS",
]

OMEGA_ENVELOPE_BOUND = 0.07
APPROX_REDERIVED_BOUND = 0.13
SERIES_99PCT_STEPS = 18


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _below(name: str, measured: float, tolerance: float, detail: str = "") -> CheckResult:
    """The check that passes when measured < tolerance."""
    return CheckResult(name, measured < tolerance, measured, tolerance, detail)


def check_max_potential_energy() -> CheckResult:
    """E_p at a saturated reversal vs the stated 0.3069*f_c^2/sigma maximum."""
    worst = 0.0
    for f_c, sigma in ((1.0, 1.0), (2.0, 5.0), (0.5, 40.0)):
        p = FrictionParams(f_c=f_c, sigma=sigma)
        stated = 0.3069 * f_c**2 / sigma
        worst = max(worst, abs(potential_energy(-f_c, p) - stated) / stated)
    return _below("max-potential-energy", worst, 5e-4)


def check_quadrature_equivalence() -> CheckResult:
    """Closed-form reversal energy vs adaptive quadrature of the branch force."""
    worst = 0.0
    for ratio in DEFAULT_SWEEPS["fig3"]:
        p = FrictionParams(f_c=1.0, sigma=ratio)
        for u in _linspace(0.1, 1.0, 10):
            f_i = -u * p.f_c
            x_i = reversal_coordinate(f_i, p)
            branch = BranchState(x_rev=x_i, f_rev=f_i, direction=+1)
            quad = integrate(dahl_branch(branch, p), x_i, 0.0, rel_tol=1e-12)
            e_ref = -quad.value
            rel = abs(potential_energy(f_i, p) - e_ref) / e_ref
            worst = max(worst, rel)
    return _below("quadrature-equivalence", worst, 1e-8)


def check_form_consistency() -> CheckResult:
    """Finite-difference slope of the algebraic branch vs the differential form."""
    worst = 0.0
    for ratio in (1.0, 10.0, 100.0):
        p = FrictionParams(f_c=1.0, sigma=ratio)
        force = dahl_branch(BranchState(x_rev=0.0, f_rev=-p.f_c, direction=+1), p)
        for f_target in _linspace(-0.9, 0.9, 10):
            x = (p.f_c / p.sigma) * math.log(2.0 / (1.0 - f_target))
            slope_fd = derivative(force, x)
            slope_model = dahl_rate(force(x), +1.0, p)
            rel = abs(slope_fd - slope_model) / abs(slope_model)
            worst = max(worst, rel)
    return _below("form-consistency", worst, 1e-6)


def check_stop_spring_conservative() -> CheckResult:
    """Unsaturated linear-spring cycle dissipates nothing."""
    p = FrictionParams(f_c=1.0, sigma=2.0)
    x_amp = 0.35
    b_up = BranchState(x_rev=0.0, f_rev=-0.4, direction=+1)
    f_hi = stop_spring(b_up, p)(x_amp)
    b_down = BranchState(x_rev=x_amp, f_rev=f_hi, direction=-1)
    delta = loop_dissipation(b_up, b_down, 0.0, x_amp, stop_spring, p)
    tol = 1e-10 * p.sigma * x_amp**2
    return _below("stop-spring-conservative", abs(delta), tol)


def check_clockwise_dissipation() -> CheckResult:
    """24 admissible (closed) Dahl cycles all dissipate.

    A Dahl cycle closes exactly when the two reversal forces are opposite
    (f_hi = -f_lo); those are the paths the closed-cycle dissipation result
    is stated for. A fixed grid holds the corners: f_hi = c*f_c with c from
    0.1 to 0.95, and sigma/f_c from 1 to 100.
    """
    x_lo, min_delta = -1.0, math.inf
    for f_c in (0.5, 2.0):
        for ratio in (1.0, 10.0, 100.0):
            p = FrictionParams(f_c=f_c, sigma=f_c * ratio)
            for c in (0.1, 0.5, 0.8, 0.95):
                x_hi = x_lo + (f_c / p.sigma) * math.log((1.0 + c) / (1.0 - c))
                b_up = BranchState(x_rev=x_lo, f_rev=-c * f_c, direction=+1)
                b_down = reverse_branch(b_up, x_hi, p)
                delta = loop_dissipation(b_up, b_down, x_lo, x_hi, dahl_branch, p)
                min_delta = min(min_delta, delta)
    return CheckResult(
        "clockwise-dissipation", min_delta > 0.0, min_delta, 0.0,
        detail="min loop area over 24 closed cycles",
    )


def check_energy_balance(traj: Trajectory, label: str) -> list[CheckResult]:
    """Conserved sum (m/2)v^2 + e_f along the trajectory; |v| ~ 0 at reversals."""
    cfg = traj.config
    k = 0.5 * cfg.params.mass
    e0 = k * cfg.v0**2
    # s - e0 rounds monotonically in s, so the largest |s - e0| is at max(s) or min(s)
    s = [k * (v * v) + e for v, e in zip(traj.v, traj.e_f_cum)]
    drift = max(abs(max(s) - e0), abs(min(s) - e0)) / e0
    v_rev = 0.0
    for r in traj.reversals:
        v_rev = max(v_rev, abs(traj.v[bisect_left(traj.t, r.t_i)]))
    return [
        _below(f"energy-balance-drift-{label}", drift, 1e-6),
        _below(f"reversal-speed-{label}", v_rev, 1e-9),
    ]


def check_equal_areas(traj: Trajectory) -> CheckResult:
    """Restoring-force work between consecutive reversals (e_f_cum samples) cancels."""
    ks = [bisect_left(traj.t, r.t_i) for r in traj.reversals]
    worst = 0.0
    for r0, k0, k1 in zip(traj.reversals, ks, ks[1:]):
        worst = max(worst, abs(traj.e_f_cum[k1] - traj.e_f_cum[k0]) / r0.e_p)
    return _below("equal-areas", worst, 1e-5)


def check_chain_vs_simulation(traj: Trajectory) -> CheckResult:
    """Analytic reversal recursion vs the first 10 simulated reversal forces."""
    p = traj.config.params
    seed = -abs(traj.reversals[0].f_i)
    f_n = reversal_chain(seed, 10, p, mode="exact")[1]
    worst = 0.0
    for f, record in zip(f_n, traj.reversals):
        worst = max(worst, abs(abs(f) - abs(record.f_i)) / abs(record.f_i))
    return _below("chain-vs-simulation", worst, 1e-3)


def check_exact_predictor_vs_oracle() -> CheckResult:
    """Closed-form next reversal vs a bisection root of the energy balance.

    The balance is written here from the branch definition alone: the
    ascending branch f(x) = f_c*(1 - exp(-(sigma/f_c)*x)) in the
    zero-crossing frame must absorb, from 0 to x, the work
    E_p = (f_c^2/sigma)*(phi - ln(1 + phi)) it released between the
    reversal x_i = -(f_c/sigma)*ln(1 + phi) and 0. Since f <= f_c, the
    root lies in [E_p/f_c, E_p/f_c + f_c/sigma].
    """
    worst = 0.0
    for ratio in (1.0, 10.0, 1000.0):
        p = FrictionParams(f_c=1.0, sigma=ratio)
        scale = p.f_c / p.sigma
        for u in (1e-3, 1e-2) + FORCE_FRACTIONS:
            e_p = p.f_c * scale * (u - math.log1p(u))
            lo = e_p / p.f_c
            x_ref = find_root(
                lambda x: p.f_c * x + p.f_c * scale * math.expm1(-x / scale) - e_p,
                lo, lo + scale, tol=1e-14 * lo,
            )
            rel = abs(next_reversal_exact(-u * p.f_c, p) - x_ref) / x_ref
            worst = max(worst, rel)
    return _below(
        "exact-predictor-vs-oracle", worst, 1e-10,
        detail="max relative deviation over force fractions 1e-3 to 1 and ratios 1 to 1000",
    )


def check_series_convergence() -> list[CheckResult]:
    """Partial dissipation sums: monotone, bounded by E_p(0), 99% by the frozen N."""
    p = FrictionParams(f_c=1.0, sigma=10.0)
    *_, e_p, e_d = reversal_chain(-p.f_c, 60, p, mode="exact")
    e_p0 = e_p[0]
    partial = list(accumulate(e_d))
    monotone = all(b > a for a, b in zip(partial, partial[1:]))
    bounded = all(s < e_p0 for s in partial)
    frac_at_frozen = partial[SERIES_99PCT_STEPS - 1] / e_p0
    return [
        CheckResult(
            "series-monotone-bounded", monotone and bounded,
            partial[-1] / e_p0, 1.0,
            detail="partial sums increase and stay below E_p(0)",
        ),
        CheckResult(
            "series-99pct-at-frozen-N", frac_at_frozen >= 0.99, frac_at_frozen, 0.99,
            detail=f"fraction of E_p(0) dissipated after {SERIES_99PCT_STEPS} half-cycles",
        ),
    ]


def check_monotone_decay(trajs: list[Trajectory]) -> CheckResult:
    """Strict decay of E_p and |F|, and E_p > 0: each run and a chain at its params."""
    ok = True
    min_ep = math.inf
    for traj in trajs:
        p = traj.config.params
        _, f_n, _, e_p, _ = reversal_chain(-p.f_c, 40, p, mode="exact")
        for a, b, fa, fb in zip(e_p, e_p[1:], f_n, f_n[1:]):
            ok = ok and b < a and abs(fb) < abs(fa)
        ok = ok and all(e > 0.0 for e in e_p)
        min_ep = min(min_ep, e_p[-1])
        recs = traj.reversals
        for a, b in zip(recs, recs[1:]):
            ok = ok and b.e_p < a.e_p and abs(b.f_i) < abs(a.f_i)
        ok = ok and all(r.e_p > 0.0 for r in recs)
        min_ep = min(min_ep, recs[-1].e_p)
    return CheckResult(
        "monotone-decay", ok, min_ep, 0.0,
        detail="E_p and |F| strictly decreasing, E_p > 0 at every finite reversal",
    )


def check_reversal_frequency_trend(trajs: list[Trajectory]) -> CheckResult:
    """Mean inter-reversal time strictly decreases with sigma/f_c."""
    means = []
    for traj in trajs:
        times = [r.t_i for r in traj.reversals]
        gaps = [b - a for a, b in zip(times, times[1:])]
        # summed left to right: sum() compensates from Python 3.12 on
        means.append(list(accumulate(gaps))[-1] / len(gaps))
    ok = all(b < a for a, b in zip(means, means[1:]))
    return CheckResult(
        "reversal-frequency-trend", ok, means[-1], means[0],
        detail="mean inter-reversal times " + ", ".join(f"{m:.5f}" for m in means),
    )


# the columns of approx_audit.csv, one per field of check_approx_forms' rows
AUDIT_HEADER = ["grid", "ratio", "F_i_over_Fc", "x_next_exact", "x_next_printed",
                "x_next_rederived", "rel_dev_printed", "rel_dev_rederived"]


def check_approx_forms() -> tuple[list[CheckResult], list[tuple]]:
    """Compare both linearized-predictor forms to the exact root.

    Returns the checks and the audit rows, in AUDIT_HEADER's columns, over
    the two standard grids: ratio sweep at fixed f_c, and f_c sweep at
    fixed sigma = 1 (where the printed form degenerates for f_c > sigma).
    """
    rows: list[tuple] = []
    grids = [("ratio-sweep", [FrictionParams(1.0, r) for r in DEFAULT_SWEEPS["fig4"]])]
    grids.append(("fc-sweep", [FrictionParams(fc, 1.0) for fc in DEFAULT_SWEEPS["fig5"]]))
    for grid_name, param_list in grids:
        for p in param_list:
            for u in FORCE_FRACTIONS:
                x_exact, *x_approx = _predictions(-u * p.f_c, p)
                devs = [abs(x - x_exact) / x_exact for x in x_approx]
                rows.append((grid_name, p.ratio, u, x_exact, *x_approx, *devs))
    # a degenerate form's x and deviation are nan, which the maxima skip
    dev_printed, dev_rederived = (
        max([0.0] + [r[k] for r in rows if not math.isnan(r[k])]) for k in (6, 7)
    )
    n_degenerate = sum(math.isnan(x) for r in rows for x in r[4:6])
    checks = [
        CheckResult(
            "approx-rederived-bound",
            dev_rederived <= APPROX_REDERIVED_BOUND,
            dev_rederived,
            APPROX_REDERIVED_BOUND,
            detail="max relative deviation of the rederived form from the exact root",
        ),
        CheckResult(
            "approx-printed-recorded", True, dev_printed, math.inf,
            detail=f"informational; {n_degenerate} grid points degenerate for the printed form",
        ),
        CheckResult(
            "approx-better-form",
            dev_rederived <= dev_printed,
            dev_rederived,
            dev_printed,
            detail="the rederived form wins on every audited grid",
        ),
    ]
    return checks, rows


def check_omega_envelope() -> CheckResult:
    """Worst |omega - linearized omega| over the standard grid, at SLOPE_EXPONENT as it is now."""
    worst = 0.0
    for ratio in DEFAULT_SWEEPS["fig4"]:
        p = FrictionParams(f_c=1.0, sigma=ratio)
        s = p.sigma / p.f_c
        for u in FORCE_FRACTIONS:
            f_i = -u * p.f_c
            x_next = next_reversal_exact(f_i, p)
            k = s * (p.f_c / (p.f_c - f_i)) ** SLOPE_EXPONENT
            dev = max([abs(math.exp(-s * x) - (1.0 - k * x)) for x in _linspace(0.0, x_next, 201)])
            worst = max(worst, dev)
    # the linear factor must also reproduce the exact construction
    p = FrictionParams(f_c=1.0, sigma=2.0)
    exact = abs(omega_approx(-1.0, p) - 2.0 * 0.5**0.6) < 1e-15 and omega(0.0, p) == 1.0
    return CheckResult(
        "omega-envelope", exact and worst <= OMEGA_ENVELOPE_BOUND, worst, OMEGA_ENVELOPE_BOUND,
        detail="max |exact - linearized| decay factor over the standard grid",
    )


def check_determinism() -> CheckResult:
    """Two builds of the same figure dataset are byte-identical."""
    from .figures import fig3_table
    from ._csv import encode_csv

    runs = [("", r, FrictionParams(f_c=1.0, sigma=r)) for r in DEFAULT_SWEEPS["fig3"]]

    def render() -> tuple[bytes, int]:
        return encode_csv(*fig3_table(runs))

    same = render() == render()
    return CheckResult(
        "determinism-fig3", same, 0.0 if same else 1.0, 0.0,
        detail="two in-process builds render identical bytes",
    )


def _approx_checks(audit: list) -> list[CheckResult]:
    """check_approx_forms' checks; its audit rows go onto audit."""
    checks, rows = check_approx_forms()
    audit += rows
    return checks


# The report's checks in report order. Each entry takes run_all's runs at
# sigma/f_c = 10, 100 and 1000 and the list that collects the approx audit
# rows, and returns its rows; it looks its check up on the module when
# called, so a patched check_* is the one that runs.
CHECKS = (
    lambda trajs, audit: [check_max_potential_energy()],
    lambda trajs, audit: [check_quadrature_equivalence()],
    lambda trajs, audit: [check_form_consistency()],
    lambda trajs, audit: [check_stop_spring_conservative()],
    lambda trajs, audit: [check_clockwise_dissipation()],
    lambda trajs, audit: check_energy_balance(trajs[0], "r10"),
    lambda trajs, audit: check_energy_balance(trajs[1], "r100"),
    lambda trajs, audit: [check_equal_areas(trajs[0])],
    lambda trajs, audit: [check_chain_vs_simulation(trajs[0])],
    lambda trajs, audit: [check_exact_predictor_vs_oracle()],
    lambda trajs, audit: check_series_convergence(),
    lambda trajs, audit: [check_monotone_decay(trajs)],
    lambda trajs, audit: [check_reversal_frequency_trend(trajs)],
    lambda trajs, audit: _approx_checks(audit),
    lambda trajs, audit: [check_omega_envelope()],
    lambda trajs, audit: [check_determinism()],
)


def run_all() -> tuple[list[CheckResult], list[tuple]]:
    """Run the full oracle suite; returns (checks, approx audit rows)."""
    trajs = [simulate(SimConfig(FrictionParams(f_c=1.0, sigma=r))) for r in (10.0, 100.0, 1000.0)]
    audit: list[tuple] = []
    return [c for check in CHECKS for c in check(trajs, audit)], audit
