"""Unforced oscillator with a Dahl restoring force.

The simulated system is m*x'' + F = 0 with the friction force F carried
as a third state via the chain rule dF/dt = dahl_rate(F, v) * v, plus the
accumulated restoring-force work e_f = integral of F*v dt. So the full
state is (x, v, F, e_f) and the exact dynamics conserve
(m/2)*v^2 + e_f along the whole trajectory.

Integration is classical fixed-step 4th order. One call of the loop
march that _kernel(p) builds steps through a half-cycle, appending each
sample, and returns the step whose velocity changed sign; its rewrites of
the step arithmetic give the same IEEE results (see _kernel). Velocity-sign
changes (motion reversals) are localized by bisecting on the step size and
re-integrating from the last accepted state with one-step march calls,
which keeps the event machinery deterministic. At each reversal the
simulator re-arms the hysteresis branch from the *integrated* state rather
than from the algebraic branch formula; that keeps simulation and
closed-form analysis independent of each other, so their agreement is
evidence.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import NamedTuple, Optional

from .errors import ConfigError, ConvergenceError, StepRejectionError
from .hysteresis import FrictionParams, _validated

__all__ = [
    "SimConfig",
    "ReversalRecord",
    "Trajectory",
    "simulate",
]

# reversal event tolerance: |v| <= _TOL_V_REL * max(|v0|, 1)
_TOL_V_REL = 1e-9

_MAX_BISECTIONS = 100

# Longest default first step at gamma == 1, in saturation times f_c/(sigma*|v0|): RK4's
# fourth stage leaves the band from 1.2956, the root of 1 - g + g**2/2 - g**3/4 (README).
_G_MAX = 1.2957

# Most steps one simulate call takes before it raises StepRejectionError.
# A sample holds about 41 B while the run lasts: a run stopped here took
# 4-8 s and peaked at 134-136 MiB RSS on a 2-vCPU host. A run that
# completes just under it and writes its CSV peaks at 616 MiB (simulate,
# about 210 B per sample) or 370 MiB (fig7 with one sweep entry).
MAX_STEPS = 3 * 10**6


@_validated
class SimConfig(NamedTuple):
    """Simulation setup.

    The defaults are the CLI's `sim` section. dt defaults to
    (1/200)*sqrt(mass/sigma), a fraction of the period right after a
    reversal, where the branch stiffness is ~2*sigma; neither holds f_c.
    At gamma == 1 a default whose first step min(dt, t_max) is over _G_MAX
    saturation times f_c/(sigma*|v0|) is refused: RK4 would leave the band.
    stop_energy defaults to 1e-12 times the initial kinetic energy and is
    compared against the recoverable energy of each completed reversal (the
    only instants where the energy balance is meaningful); the dynamics
    never reach zero in finite time, so an explicit threshold is required.
    """

    params: FrictionParams
    x0: float = 0.0
    v0: float = 0.5
    f0: float = 0.0
    dt: Optional[float] = None
    t_max: float = 200.0
    max_reversals: Optional[int] = 12
    stop_energy: Optional[float] = None

    def _check(self) -> None:
        for name in ("x0", "v0", "f0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.v0 == 0.0:
            raise ConfigError("v0 must be nonzero (the motion starts mid-swing)")
        # v0*v0 first: effective_stop_energy's v0**2 raises if it overflows
        if not math.isfinite(0.5 * self.params.mass * (self.v0 * self.v0)):
            raise ConfigError(f"v0={self.v0} overflows the initial kinetic energy 0.5*m*v0**2")
        if abs(self.f0) > self.params.f_c:
            raise ConfigError(
                f"|f0|={abs(self.f0)} exceeds the friction level f_c={self.params.f_c}"
            )
        if not 0.0 < (dt := self.effective_dt()) < math.inf:
            if self.dt is not None:
                raise ConfigError(f"dt must be finite and > 0, got {dt}")
            p = self.params
            raise ConfigError(
                f"the default dt (1/200)*sqrt(mass/sigma) "
                f"{'underflows to 0' if dt == 0.0 else 'overflows to inf'} at mass={p.mass} "
                f"and sigma={p.sigma}; set sim.dt"
            )
        if not 0.0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be finite and > 0, got {self.t_max}")
        # spared: a start within 1e-9*f_c of the edge it relaxes to, whose overshoot can round off
        p, h = self.params, min(dt, self.t_max)
        if (self.dt is None and p.gamma == 1.0 and (g := h * p.ratio * abs(self.v0)) > _G_MAX
                and p.f_c - (self.f0 if self.v0 > 0.0 else -self.f0) > 1e-9 * p.f_c):
            raise ConfigError(
                f"the default dt (1/200)*sqrt(mass/sigma) takes a first step of {h}, {g:.6g} "
                f"times the saturation time f_c/(sigma*|v0|), past {_G_MAX} at gamma=1, where "
                f"RK4 leaves the band; set sim.dt"
            )
        if self.max_reversals is not None and self.max_reversals < 1:
            raise ConfigError(f"max_reversals must be >= 1, got {self.max_reversals}")
        if self.stop_energy is not None and not 0.0 <= self.stop_energy < math.inf:
            raise ConfigError(f"stop_energy must be finite and >= 0, got {self.stop_energy}")

    def effective_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        p = self.params
        return 0.005 * math.sqrt(p.mass / p.sigma)

    def effective_stop_energy(self) -> float:
        if self.stop_energy is not None:
            return self.stop_energy
        return 1e-12 * 0.5 * self.params.mass * self.v0**2

    def event_tol_v(self) -> float:
        return _TOL_V_REL * max(abs(self.v0), 1.0)


class ReversalRecord(NamedTuple):
    """One completed motion reversal.

    e_p is the recoverable potential energy, measured from the trajectory
    as the peak kinetic energy of the following half-cycle (the recoverable
    part converts fully into kinetic energy at the force zero crossing).
    e_d_halfcycle is the energy dissipated since the previous reversal,
    e_p(previous) - e_p(this); it is 0 by convention for the first record,
    which has no predecessor. t_i is always a sample time of the trajectory.
    """

    index: int
    t_i: float
    x_i: float
    f_i: float
    e_p: float
    e_d_halfcycle: float


class Trajectory(NamedTuple):
    """Ordered simulation samples plus the completed reversal records.

    Samples are stored as parallel array('d') columns (t, x, v, f, e_f_cum),
    strictly increasing in t; np.asarray views one without a copy. Every
    reversal instant t_i is a sample, so a value at a reversal is read off
    a column at bisect_left(t, t_i), never interpolated.
    """

    t: array
    x: array
    v: array
    f: array
    e_f_cum: array
    reversals: list[ReversalRecord]
    config: SimConfig


def _kernel(p: FrictionParams):
    """The classical 4th-order stepping loop over (t, x, v, f, e_f) in plain floats.

    Returns march(t, x, v, f, e, dt, t_max, direction, n, ts, xs, vs, fs, es)
    with p's constants bound once. march takes up to n steps of
    h = min(dt, t_max - t), appends each accepted sample to the five lists
    and returns (steps taken, last accepted (t, x, v, f, e), after). after is
    the first stepped sample whose velocity turned against direction and is
    not appended; it is None when t reached t_max or n steps were taken.
    march must start at t < t_max: then t_max - t is at least one ulp of t,
    so every step ends past its start. With t_max = inf, direction = 0.0
    and n = 1, march takes one step of exactly dt.

    The right-hand side (v, -f/m, dahl_rate(f, v)*v, f*v) does not depend
    on x, so only the v and f stages are formed. The stage rate is
    dahl_rate(f_k, v_k)*v_k written inline with the same operation order,
    and a force of stages 2-4 outside the band rejects the step. Stage 1's
    is the start's: a sample march accepted, so inside the band, or
    the initial f0, which SimConfig checks (locate_reversal starts from such
    a sample too). dahl_rate's v == 0 case needs no branch: an in-band force
    gives a base b in [0, 2] and FrictionParams keeps sigma*2**gamma finite,
    so sigma*b**gamma*v_k at v_k == ±0.0 is ±0.0, as 0.0*v_k is. Only a
    stage at v_k == 0 with its force outside the band differs: it raises
    the band escape. Each rewrite
    gives the same IEEE result: at gamma == 1 the power is skipped, as
    b**1.0 == b; 0.5*h and h/6.0 are formed from dt once per call, and from
    h only on the short step to t_max; f*(-1/m) is -f*(1/m), as
    round-to-nearest is sign-symmetric; 1.0 + q is 1.0 - q*(-1.0), as
    a - (-b) == a + b. A new force past the band raises the band escape
    too, as the step cannot resolve the branch stiffness. Tests pin it
    bitwise to an RK4 over dahl_rate.
    """
    f_c, sigma, gamma = p.f_c, p.sigma, p.gamma
    neg_f_c, neg_inv_m = -f_c, -1.0 / p.mass
    unit = gamma == 1.0

    def march(t, x, v, f, e, dt, t_max, direction, n, ts, xs, vs, fs, es):
        hh_dt, c_dt = 0.5 * dt, dt / 6.0
        for i in range(n):
            if t_max - t < dt:
                h = t_max - t
                hh, c = 0.5 * h, h / 6.0
            else:
                h, hh, c = dt, hh_dt, c_dt
            t_new = t + h
            b = 1.0 - f / f_c if v > 0.0 else 1.0 + f / f_c
            r1 = sigma * (b if unit else b**gamma) * v
            a1 = f * neg_inv_m
            v2, f2 = v + hh * a1, f + hh * r1
            if f2 > f_c or f2 < neg_f_c:
                raise _band_escape(f2, p, h)
            b = 1.0 - f2 / f_c if v2 > 0.0 else 1.0 + f2 / f_c
            r2 = sigma * (b if unit else b**gamma) * v2
            a2 = f2 * neg_inv_m
            v3, f3 = v + hh * a2, f + hh * r2
            if f3 > f_c or f3 < neg_f_c:
                raise _band_escape(f3, p, h)
            b = 1.0 - f3 / f_c if v3 > 0.0 else 1.0 + f3 / f_c
            r3 = sigma * (b if unit else b**gamma) * v3
            a3 = f3 * neg_inv_m
            v4, f4 = v + h * a3, f + h * r3
            if f4 > f_c or f4 < neg_f_c:
                raise _band_escape(f4, p, h)
            b = 1.0 - f4 / f_c if v4 > 0.0 else 1.0 + f4 / f_c
            r4 = sigma * (b if unit else b**gamma) * v4
            x_new = x + c * (v + 2.0 * v2 + 2.0 * v3 + v4)
            v_new = v + c * (a1 + 2.0 * a2 + 2.0 * a3 + f4 * neg_inv_m)
            f_new = f + c * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
            e_new = e + c * (f * v + 2.0 * (f2 * v2) + 2.0 * (f3 * v3) + f4 * v4)
            if f_new > f_c or f_new < neg_f_c:
                raise _band_escape(f_new, p, h)
            if v_new * direction < 0.0:
                return i + 1, (t, x, v, f, e), (t_new, x_new, v_new, f_new, e_new)
            ts.append(t := t_new)
            xs.append(x := x_new)
            vs.append(v := v_new)
            fs.append(f := f_new)
            es.append(e := e_new)
            if not t < t_max:
                return i + 1, (t, x, v, f, e), None
        return n, (t, x, v, f, e), None

    return march


def _band_escape(f: float, p: FrictionParams, h: float) -> StepRejectionError:
    """Rejection of a step whose stage force left the band, naming the setting to change."""
    advice = (f"at gamma={p.gamma} < 1 the force reaches saturation in finite travel, "
              "which no step size resolves; lower sim.v0 or raise params.gamma"
              if p.gamma < 1.0 else f"reduce sim.dt for sigma/f_c={p.ratio}")
    return StepRejectionError(
        f"force escaped the band inside a step of dt={h}: |f|={abs(f)} escaped the "
        f"admissible band f_c={p.f_c}; {advice}"
    )


def locate_reversal(march, before: tuple, after: tuple, tol_v: float) -> tuple:
    """Pin down the (t, x, v, f, e_f) sample where the velocity crosses zero.

    before and after are samples whose velocities bracket the sign change.
    Bisects on the step size within (before's t, after's t], re-integrating
    from before with one march step, until |v| <= tol_v. A bracket that
    already meets the tolerance is returned itself. Raises ConvergenceError
    after _MAX_BISECTIONS bisections without meeting it.
    """
    if abs(before[2]) <= tol_v:
        return before
    if abs(after[2]) <= tol_v:
        return after
    t, x, v, f, e = before
    lo, hi = 0.0, after[0] - t
    scratch: list[float] = []  # collects the bisection samples; none is kept
    for _ in range(_MAX_BISECTIONS):
        h = 0.5 * (lo + hi)
        # timed from 0.0, so no step of h underflows; the sample is at t + h
        _, (_, x_mid, v_mid, f_mid, e_mid), _ = march(
            0.0, x, v, f, e, h, math.inf, 0.0, 1, scratch, scratch, scratch, scratch, scratch
        )
        if abs(v_mid) <= tol_v:
            return t + h, x_mid, v_mid, f_mid, e_mid
        if (v_mid > 0.0) == (v > 0.0):
            lo = h
        else:
            hi = h
    raise ConvergenceError(
        f"reversal not localized to |v| <= {tol_v} after {_MAX_BISECTIONS} bisections"
    )


def simulate(cfg: SimConfig) -> Trajectory:
    """Run the oscillator until t_max, max_reversals or the energy floor.

    A run that none of them stops within MAX_STEPS steps raises
    StepRejectionError. Each accepted step counts one, and so does each
    step that detects a reversal; the bisection steps that locate it do not.

    Reversal bookkeeping: a record is *completed* once the next reversal is
    found, because its recoverable energy is measured as the peak kinetic
    energy of the half-cycle in between. The returned trajectory therefore
    contains only completed records (max_reversals counts those), and the
    trailing partially-observed reversal, if any, is dropped.
    """
    p = cfg.params
    dt = cfg.effective_dt()
    tol_v = cfg.event_tol_v()
    stop_energy = cfg.effective_stop_energy()
    t_max = cfg.t_max

    state = (0.0, cfg.x0, cfg.v0, cfg.f0, 0.0)
    # the samples of the half-cycle under way; each reversal moves them onto
    # the array('d') columns, which hold at most 8.5 B per value against a
    # list's 32 (pointer and float). A move packs the part into native
    # doubles, array('d')'s layout, and grows the column once by frombytes:
    # about 10 ns per value, where fromlist's per-value argument parsing
    # costs 20-22 ns and extend appends value by value through an iterator
    parts = ts, xs, vs, fs, es = tuple([value] for value in state)
    cols = tuple(array("d") for _ in range(5))

    records: list[ReversalRecord] = []
    rev = None  # (t, x, f) of the last reversal, whose record the next one completes
    direction = 1.0 if cfg.v0 > 0.0 else -1.0
    march = _kernel(p)
    steps = 0

    # each pass marches through one half-cycle, t = 0 < t_max on entry
    while True:
        taken, before, after = march(
            *state, dt, t_max, direction, MAX_STEPS - steps, ts, xs, vs, fs, es
        )
        steps += taken
        if after is None:
            if steps < MAX_STEPS or not before[0] < t_max:
                break
            raise StepRejectionError(
                f"no stop within MAX_STEPS={MAX_STEPS} steps of dt={dt} "
                f"(t={before[0]} of t_max={t_max}); raise dt or lower t_max"
            )

        state = t, x, v, f, e = locate_reversal(march, before, after, tol_v)
        if rev is not None and t <= rev[0]:
            raise StepRejectionError(
                f"consecutive reversals inside one step at t={t}; "
                f"dt={dt} cannot resolve the oscillation"
            )
        # the peak speed of the half-cycle just closed; a reversal sample is
        # not part of it, and a left-bracket reversal adds no sample; max and
        # -min are exact, and two passes of them cost less than abs per sample
        v_peak = max(max(vs, default=0.0), -min(vs, default=0.0))
        for col, part, value in zip(cols, parts, state):
            if t > before[0]:
                part.append(value)
            col.frombytes(struct.pack(f"{len(part)}d", *part))
            part.clear()
        if rev is not None:
            e_p = 0.5 * p.mass * v_peak**2
            e_d = records[-1].e_p - e_p if records else 0.0
            records.append(ReversalRecord(len(records), *rev, e_p, e_d))
            if cfg.max_reversals is not None and len(records) >= cfg.max_reversals:
                break
            if e_p < stop_energy:
                break
        rev = (t, x, f)
        direction = -direction
        if not t < t_max:  # a reversal at t_max: march must start below it
            break

    for col, part in zip(cols, parts):
        col.frombytes(struct.pack(f"{len(part)}d", *part))
    return Trajectory(*cols, reversals=records, config=cfg)
