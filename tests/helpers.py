"""Reference routes the tests check the simulator and the closed forms against.

reference_advance is an RK4 step over hysteresis.dahl_rate, and
reference_simulate rebuilds simulate on it, one (t, x, v, f, e_f) tuple
per sample with its own reversal bisection; neither shares code with
the oscillator module. branch_work is the ascending branch's work
integral, written from the branch definition alone.
"""

import ast
import inspect
import math
from dataclasses import replace

import numpy as np

from presliding import DomainError, ReversalRecord, StepRejectionError, dahl_rate, simulate


def package_imports(module) -> set[str]:
    """Names of the presliding modules that module's source imports."""
    internal = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            internal.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("presliding"):
            internal.add(node.module.removeprefix("presliding."))
        elif isinstance(node, ast.Import):
            internal.update(
                a.name.removeprefix("presliding.")
                for a in node.names
                if a.name.startswith("presliding")
            )
    return internal


def branch_work(x, p):
    """Restoring-force work of the ascending branch from the zero crossing to x.

    The integral of f_c*(1 - exp(-(sigma/f_c)*s)) over s from 0 to x, with
    expm1 so that the quadratic small-x part keeps its relative precision.
    """
    scale = p.f_c / p.sigma
    return p.f_c * x + p.f_c * scale * math.expm1(-x / scale)


def reference_advance(x, v, f, e, h, p):
    """One RK4 step of (x, v, f, e_f) over hysteresis.dahl_rate, clamped at the band.

    Every stage force is tested against the band, also at a stage velocity
    of 0, where dahl_rate returns 0 before its own test.
    """
    inv_m = 1.0 / p.mass
    hh = 0.5 * h

    def rate(f, v):
        dahl_rate(f, 1.0, p)  # the band test
        return dahl_rate(f, v, p) * v

    try:
        r1 = rate(f, v)
        v2, f2 = v + hh * (-f * inv_m), f + hh * r1
        r2 = rate(f2, v2)
        v3, f3 = v + hh * (-f2 * inv_m), f + hh * r2
        r3 = rate(f3, v3)
        v4, f4 = v + h * (-f3 * inv_m), f + h * r3
        r4 = rate(f4, v4)
    except DomainError as exc:
        # dahl_rate's wording, ending in the settings the simulator's message names
        reason = str(exc).removesuffix("integration step too large")
        advice = (
            f"at gamma={p.gamma} < 1 the force reaches saturation in finite travel, "
            "which no step size resolves; lower sim.v0 or raise params.gamma"
            if p.gamma < 1.0 else f"reduce sim.dt for sigma/f_c={p.ratio}"
        )
        raise StepRejectionError(f"force escaped the band inside a step of dt={h}: {reason}{advice}")
    c = h / 6.0
    x_new = x + c * (v + 2.0 * v2 + 2.0 * v3 + v4)
    v_new = v + c * (-f * inv_m + 2.0 * (-f2 * inv_m) + 2.0 * (-f3 * inv_m) + -f4 * inv_m)
    f_new = f + c * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
    e_new = e + c * (f * v + 2.0 * (f2 * v2) + 2.0 * (f3 * v3) + f4 * v4)
    over = abs(f_new) - p.f_c
    if over > 0.0:
        if over > 1e-12 * p.f_c:
            raise StepRejectionError("overshoot")
        f_new = math.copysign(p.f_c, f_new)
    return x_new, v_new, f_new, e_new


def _reference_reversal(before, after, p, tol_v):
    """The sample where v crosses zero, bisected on the step size from before."""
    for s in (before, after):
        if abs(s[2]) <= tol_v:
            return s
    lo, hi = 0.0, after[0] - before[0]
    for _ in range(100):
        h = 0.5 * (lo + hi)
        mid = (before[0] + h, *reference_advance(*before[1:], h, p))
        if abs(mid[2]) <= tol_v:
            return mid
        lo, hi = (h, hi) if (mid[2] > 0.0) == (before[2] > 0.0) else (lo, h)
    raise AssertionError(f"reversal after t={before[0]} not localized")


def reference_simulate(cfg):
    """simulate rebuilt one (t, x, v, f, e_f) tuple per sample over reference_advance.

    Returns the sample columns as numpy arrays keyed like Trajectory's, and
    the completed reversal records.
    """
    p = cfg.params
    dt, tol_v, stop_energy = cfg.effective_dt(), cfg.event_tol_v(), cfg.effective_stop_energy()
    state = (0.0, cfg.x0, cfg.v0, cfg.f0, 0.0)
    samples = [state]
    records, pending, v_peak = [], None, 0.0
    direction = 1.0 if cfg.v0 > 0.0 else -1.0
    while state[0] < cfg.t_max:
        h = min(dt, cfg.t_max - state[0])
        if state[0] + h <= state[0]:
            break
        new = (state[0] + h, *reference_advance(*state[1:], h, p))
        if not ((new[2] > 0.0 and direction < 0.0) or (new[2] < 0.0 and direction > 0.0)):
            samples.append(new)
            state = new
            v_peak = max(v_peak, abs(new[2]))
            continue
        rev = _reference_reversal(state, new, p, tol_v)
        if rev[0] > state[0]:
            samples.append(rev)
        state = rev
        if pending is not None:
            e_p = 0.5 * p.mass * v_peak**2
            e_d = records[-1].e_p - e_p if records else 0.0
            records.append(ReversalRecord(*pending, e_p, e_d))
            if cfg.max_reversals is not None and len(records) >= cfg.max_reversals:
                break
            if e_p < stop_energy:
                break
        index = pending[0] + 1 if pending is not None else 0
        pending = (index, rev[0], rev[1], rev[3])
        v_peak = 0.0
        direction = -direction
    return dict(zip(("t", "x", "v", "f", "e_f_cum"), np.array(samples).T)), records


def reference_integrate(cfg, refinement: int):
    """Re-run a simulation with the step size divided by `refinement`.

    The returned fine trajectory acts as the convergence oracle for the
    fixed-step integrator (a 4th-order method shrinks its global error by
    ~refinement**4). refinement must be >= 2.
    """
    if refinement < 2:
        raise DomainError(f"refinement must be >= 2, got {refinement}")
    return simulate(replace(cfg, dt=cfg.effective_dt() / refinement))


def peak_velocity_between_reversals(traj, i: int) -> tuple[float, float]:
    """Sample-level maximizer of |v| between reversals i and i+1.

    Returns (t_0, v_peak) with v_peak signed. The restoring force vanishes
    there (peak speed coincides with the force zero crossing), which the
    caller can verify against |f| at t_0.
    """
    if i < 0 or i + 1 >= len(traj.reversals):
        raise IndexError(
            f"need reversal records {i} and {i + 1}, have {len(traj.reversals)}"
        )
    t, v = np.asarray(traj.t), np.asarray(traj.v)
    t_lo = traj.reversals[i].t_i
    t_hi = traj.reversals[i + 1].t_i
    idx = np.nonzero((t >= t_lo) & (t <= t_hi))[0]
    k = idx[np.argmax(np.abs(v[idx]))]
    return float(t[k]), float(v[k])
