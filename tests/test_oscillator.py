"""Tests of the oscillator integrator, event detection and energy accounting."""

import hashlib
import math
import struct
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from presliding import (
    ConfigError,
    ConvergenceError,
    FrictionParams,
    SimConfig,
    StepRejectionError,
    potential_energy,
    simulate,
)
import presliding.oscillator as oscillator_module
from presliding._csv import encode_csv
from presliding.figures import reversals_table, trajectory_table
from presliding.oscillator import _kernel, locate_reversal

from helpers import (
    package_imports,
    peak_velocity_between_reversals,
    reference_advance,
    reference_integrate,
    reference_simulate,
)

P1 = FrictionParams(f_c=1.0, sigma=1.0)
P10 = FrictionParams(f_c=1.0, sigma=10.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rejects_zero_initial_velocity():
    with pytest.raises(ConfigError):
        SimConfig(params=P1, x0=0.0, v0=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"f0": 1.5},
        {"dt": 0.0},
        {"t_max": 0.0},
        {"max_reversals": 0},
        {"stop_energy": -1.0},
    ],
)
def test_config_invariants(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(params=P1, x0=0.0, v0=1.0, **kwargs)


def test_default_step_size_scales_with_stiffness():
    c = SimConfig(params=FrictionParams(1.0, 100.0, mass=4.0), x0=0.0, v0=1.0)
    assert c.effective_dt() == pytest.approx(0.005 * math.sqrt(4.0 / 100.0))
    c2 = SimConfig(params=P1, x0=0.0, v0=1.0, dt=1e-4)
    assert c2.effective_dt() == 1e-4


def test_default_stop_energy():
    c = SimConfig(params=P1, x0=0.0, v0=2.0)
    assert c.effective_stop_energy() == pytest.approx(1e-12 * 2.0)


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------

def _step(x, v, f, e, h, p):
    """One march step of size h from (x, v, f, e): the state it accepts."""
    _, (_, *state), _ = _kernel(p)(0.0, x, v, f, e, h, math.inf, 0.0, 1, [], [], [], [], [])
    return tuple(state)


def test_step_rest_state_is_equilibrium():
    assert _step(0.4, 0.0, 0.0, 0.0, 1e-3, P1) == (0.4, 0.0, 0.0, 0.0)


def test_step_taylor_expansion():
    # leading-order growth from (x=0, v=1, F=0): x ~ dt, F ~ sigma*dt,
    # v ~ 1 - sigma*dt^2/2
    s = (0.0, 1.0, 0.0, 0.0)
    x, v, f, _ = _step(*s, 1e-3, P1)
    assert x == pytest.approx(1e-3, abs=1e-9)
    assert f == pytest.approx(1e-3, abs=1e-6)
    assert v == pytest.approx(1.0 - 5e-7, abs=1e-9)
    # against a 10x finer reference over the same horizon
    fine = s
    for _ in range(10):
        fine = _step(*fine, 1e-4, P1)
    assert x == pytest.approx(fine[0], abs=1e-15)
    assert v == pytest.approx(fine[1], abs=1e-15)
    assert f == pytest.approx(fine[2], abs=1e-15)


def test_step_rejects_band_escape():
    with pytest.raises(StepRejectionError):
        _step(0.0, 1.0, 0.999, 0.0, 5.0, FrictionParams(1.0, 1000.0))


@pytest.mark.parametrize("gamma, v, f, h, advice", [
    (2.0, -0.03343171455146012, -0.31749441256831523, 0.3050203830027184,
     "reduce sim.dt for sigma/f_c=100.0"),
    (0.0, 0.4821740695699752, 0.19447673129872545, 0.016875903215025873,
     "at gamma=0.0 < 1 the force reaches saturation in finite travel, "
     "which no step size resolves; lower sim.v0 or raise params.gamma"),
])
def test_overshoot_gives_the_band_escape_advice(gamma, v, f, h, advice):
    # stage forces inside the band, a new force past it
    with pytest.raises(StepRejectionError) as info:
        _step(0.0, v, f, 0.0, h, FrictionParams(1.0, 100.0, gamma=gamma))
    assert str(info.value).startswith("force overshoot ")
    assert str(info.value).endswith(f" exceeds the clamp tolerance at dt={h}; {advice}")


def _bits(value):
    """value with each float as its hex string, inside tuples and lists too."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(map(_bits, value))
    return value


def _step_outcome(step, *args):
    """Result bits of one step or of several, or the rejection message."""
    try:
        return _bits(step(*args))
    except StepRejectionError as exc:
        return str(exc) if str(exc).startswith("force escaped") else "overshoot"


@given(
    gamma=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    sigma=st.floats(0.5, 2000.0),
    f_c=st.floats(0.1, 10.0),
    mass=st.floats(0.1, 10.0),
    u=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
    w=st.floats(-0.25, 1.0),
    on_step_scale=st.booleans(),
    k=st.floats(1e-3, 3.0),
)
def test_advance_matches_rk4_over_dahl_rate_bitwise(
    gamma, sigma, f_c, mass, u, w, on_step_scale, k
):
    # the kernel writes the stage rate inline; no golden manifest has
    # gamma != 1 in it, so this pins it to the public differential form.
    # v on the scale of the step's velocity change h*f/m lets the stage
    # velocities change sign or hit 0, and h up to 3 times the branch time
    # scale sqrt(m*f_c/sigma) lets the stage forces leave the band, where
    # both sides must reject the step alike
    p = FrictionParams(f_c=f_c, sigma=sigma, gamma=gamma, mass=mass)
    h = k * math.sqrt(mass * f_c / sigma)
    v = w * h * u * f_c / mass if on_step_scale else 2.0 * w
    args = (0.3, v, u * f_c, -0.2, h)
    assert _step_outcome(_step, *args, p) == _step_outcome(reference_advance, *args, p)


def _zero_start_outcome(step, f, v, h, p):
    """One step from velocity v: the result bits, or the type of the exception it raises."""
    try:
        return _bits(step(0.3, v, f, -0.2, h, p))
    except (StepRejectionError, ArithmeticError) as exc:
        return type(exc).__name__


def test_step_from_zero_velocity_matches_reference_bitwise():
    # the kernel has no v == 0 case: sigma*b**gamma*v gives the signed zero
    # that dahl_rate's v == 0 return does, so a stage that starts at rest
    # must reproduce the reference bit for bit, the sign of each zero included
    outcomes = []
    for gamma in (0.0, 0.5, 1.0, 1.7, 2.0):
        for ratio in (10.0, 1000.0):
            for mass in (0.3, 4.0):
                p = FrictionParams(f_c=2.0, sigma=ratio * 2.0, gamma=gamma, mass=mass)
                scale = math.sqrt(mass * p.f_c / p.sigma)
                for f in [p.f_c * (i / 100 - 1.0) for i in range(201)]:
                    for h in (1e-3 * scale, 0.5 * scale, 3.0 * scale):
                        for v in (0.0, -0.0):
                            expected = _zero_start_outcome(reference_advance, f, v, h, p)
                            assert _zero_start_outcome(_step, f, v, h, p) == expected
                            outcomes.append(expected)
    assert len(outcomes) == 24120
    # the grid reaches both outcomes: steps that complete and steps that are rejected
    assert {type(o) for o in outcomes} == {tuple, str}


def _march(state, dt, t_max, direction, n, p):
    """march's return value and the samples it appended, as tuples."""
    cols = [], [], [], [], []
    taken, last, after = _kernel(p)(*state, dt, t_max, direction, n, *cols)
    return taken, last, after, list(zip(*cols))


def _reference_march(state, dt, t_max, direction, n, p):
    """_march over chained reference_advance steps of h = min(dt, t_max - t)."""
    samples = []
    for _ in range(n):
        t = state[0]
        h = min(dt, t_max - t)
        if t + h <= t:
            break
        new = (t + h, *reference_advance(*state[1:], h, p))
        if new[2] * direction < 0.0:
            return len(samples) + 1, state, new, samples
        samples.append(new)
        state = new
        if new[0] >= t_max:
            break
    return len(samples), state, None, samples


@given(
    gamma=st.sampled_from([0.5, 1.0, 2.0]),
    sigma=st.floats(0.5, 2000.0),
    f_c=st.floats(0.1, 10.0),
    mass=st.floats(0.1, 10.0),
    u=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
    w=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    t0=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    k=st.floats(1e-3, 0.5),
    direction=st.sampled_from([-1.0, 0.0, 1.0]),
    n=st.integers(0, 60),
    tail_step=st.integers(0, 61),
    tail_part=st.floats(0.0, 1.0),
)
def test_march_matches_chained_reference_steps_bitwise(
    gamma, sigma, f_c, mass, u, w, t0, k, direction, n, tail_step, tail_part
):
    # march forms 0.5*dt and dt/6 once per call; the short step that ends
    # at t_max must form them from its own h. t_max falls inside step
    # tail_step + 1, which is past the last of the n steps when tail_step >= n.
    # v on the pre-sliding scale f_c/sqrt(sigma*m) reverses within tens of
    # steps of dt up to half the branch time scale sqrt(m*f_c/sigma)
    p = FrictionParams(f_c=f_c, sigma=sigma, gamma=gamma, mass=mass)
    dt = k * math.sqrt(mass * f_c / sigma)
    t_max = t0 + (tail_step + tail_part) * dt
    state = (t0, 0.3, w * f_c / math.sqrt(sigma * mass), u * f_c, -0.2)
    args = (state, dt, t_max, direction, n, p)
    assert _step_outcome(_march, *args) == _step_outcome(_reference_march, *args)


def test_simulate_step_budget_is_inclusive(monkeypatch):
    # no reversal before t_max, so every sample after the first is one step
    cfg = SimConfig(P10, t_max=0.2, max_reversals=None)
    traj = simulate(cfg)
    assert min(traj.v) > 0.0 and not traj.reversals
    steps = len(traj) - 1
    monkeypatch.setattr(oscillator_module, "MAX_STEPS", steps)
    assert simulate(cfg).t == traj.t
    monkeypatch.setattr(oscillator_module, "MAX_STEPS", steps - 1)
    with pytest.raises(StepRejectionError, match=f"^no stop within MAX_STEPS={steps - 1} steps"):
        simulate(cfg)


def test_simulator_never_imports_closed_forms():
    # the simulator agrees with the closed forms as evidence only if it
    # never calls them: its package imports stay within errors and hysteresis
    internal = package_imports(oscillator_module)
    assert internal == {"errors", "hysteresis"}
    assert not internal & {"reversal", "figures", "validation"}


def test_fourth_order_convergence():
    # halving dt cuts the endpoint error ~16x on a smooth (reversal-free) arc
    cfg = SimConfig(params=P1, x0=0.0, v0=1.0, dt=0.02, t_max=0.5)
    ref = reference_integrate(cfg, 64)

    def end(c):
        tr = simulate(c)
        return np.array([tr.x[-1], tr.v[-1], tr.f[-1], tr.e_f_cum[-1]])

    ref_end = np.array([ref.x[-1], ref.v[-1], ref.f[-1], ref.e_f_cum[-1]])
    err_coarse = np.abs(end(cfg) - ref_end)
    err_half = np.abs(end(replace(cfg, dt=0.01)) - ref_end)
    ratios = err_coarse / err_half
    assert np.all(ratios > 10.0) and np.all(ratios < 24.0)


# ---------------------------------------------------------------------------
# event localization
# ---------------------------------------------------------------------------

def test_locate_returns_exact_zero_sample():
    before = (0.0, 0.1, 0.0, 0.5, 0.0)
    after = (0.01, 0.1, -0.01, 0.5, 0.0)
    assert locate_reversal(_kernel(P1), before, after, tol_v=1e-9) is before


def test_locate_bisection_contract():
    p = P10
    dt = SimConfig(params=p, x0=0.0, v0=0.5, t_max=100.0).effective_dt()
    prev = (0.0, 0.0, 0.5, 0.0, 0.0)
    while True:
        nxt = (prev[0] + dt, *_step(*prev[1:], dt, p))
        if nxt[2] < 0.0:
            break
        prev = nxt
    rev = locate_reversal(_kernel(p), prev, nxt, tol_v=1e-9)
    assert abs(rev[2]) <= 1e-9
    assert prev[0] < rev[0] <= nxt[0]


def test_locate_gives_up_after_max_bisections(monkeypatch):
    monkeypatch.setattr(oscillator_module, "_MAX_BISECTIONS", 2)
    with pytest.raises(ConvergenceError, match="reversal not localized"):
        simulate(SimConfig(P10, max_reversals=1))


def test_first_reversal_self_consistency():
    # event location agrees with a 100x finer reference run
    cfg = SimConfig(params=P10, x0=0.0, v0=1.0, max_reversals=1, t_max=10.0)
    x_coarse = simulate(cfg).reversals[0].x_i
    x_fine = reference_integrate(cfg, 100).reversals[0].x_i
    assert abs(x_coarse - x_fine) < 1e-6


# ---------------------------------------------------------------------------
# full simulation
# ---------------------------------------------------------------------------

def test_simulate_undamped_spring_amplitudes_constant():
    # gamma = 0 with an unreachable saturation level is the unsaturated
    # linear spring: a conservative harmonic oscillation
    k = 4.0
    p = FrictionParams(f_c=100.0, sigma=k, gamma=0.0)
    cfg = SimConfig(
        params=p, x0=0.0, v0=1.0, dt=math.pi / 2000.0, t_max=50.0, max_reversals=8
    )
    traj = simulate(cfg)
    amps = np.array([abs(r.x_i) for r in traj.reversals])
    assert len(amps) == 8
    assert np.all(np.abs(amps - 0.5) < 1e-6 * 0.5)


def test_simulate_same_side_amplitudes_decay(traj10):
    # reversal displacements on the initial side shrink monotonically
    xs = [traj10.reversals[i].x_i for i in (0, 2, 4)]
    assert xs[0] > xs[1] > xs[2] > 0.0


def test_simulate_max_reversals_counts_complete_records(traj10):
    assert len(traj10.reversals) == 12
    assert all(np.isfinite(r.e_p) and r.e_p > 0.0 for r in traj10.reversals)
    assert traj10.reversals[0].e_d_halfcycle == 0.0
    for prev, cur in zip(traj10.reversals, traj10.reversals[1:]):
        assert cur.e_d_halfcycle == pytest.approx(prev.e_p - cur.e_p, rel=1e-12)


def test_simulate_stop_energy_threshold():
    cfg = SimConfig(params=P10, x0=0.0, v0=0.5, t_max=200.0, stop_energy=1e-3)
    traj = simulate(cfg)
    assert traj.reversals[-1].e_p < 1e-3
    assert all(r.e_p >= 1e-3 for r in traj.reversals[:-1])


# |v0| = 1e-12 is below the event tolerance, so the first reversal is the
# initial state; dt = 0.5 then puts the next reversal inside the same step
SLOW_START = dict(v0=1e-12, t_max=5.0, max_reversals=4)


def test_simulate_rejects_consecutive_reversals_inside_one_step():
    cfg = SimConfig(FrictionParams(1.0, 100.0), dt=0.5, **SLOW_START)
    with pytest.raises(StepRejectionError, match="consecutive reversals inside one step"):
        simulate(cfg)


def test_simulate_records_a_reversal_at_the_initial_state():
    traj = simulate(SimConfig(FrictionParams(1.0, 100.0), dt=0.2, **SLOW_START))
    assert traj.reversals[0].t_i == 0.0
    assert [r.index for r in traj.reversals] == [0, 1, 2, 3]


def test_simulate_time_strictly_increasing(traj10):
    assert np.all(np.diff(np.asarray(traj10.t)) > 0.0)


def test_simulate_columns_are_double_arrays(traj10):
    # array('d') columns need no numpy to build or write, and np.asarray
    # views them without a copy
    for k in ("t", "x", "v", "f", "e_f_cum"):
        col = getattr(traj10, k)
        assert col.typecode == "d" and len(col) == len(traj10)
        assert np.shares_memory(np.asarray(col), np.asarray(col))


# sha256 over tobytes() of the five columns (t, x, v, f, e_f_cum) and then
# each reversal record packed as "<q5d", per standard run; taken on a
# little-endian host
STANDARD_RUN_DIGESTS = {
    "traj10": "990b6eb23eef31ea216ec1a38e6c973af2d7a21450edcd0db2451ddbd09ab232",
    "traj100": "e3e2b855f407ead45c4dbe33026ae92fb57dd74588a73ad5c7dabab3154a9a4f",
    "traj1000": "49ad3b90e29225622f98e1e6b15aec3054796a93917f53401614dd5b5b695fe0",
}


@pytest.mark.parametrize("name", sorted(STANDARD_RUN_DIGESTS))
def test_standard_runs_are_bitwise_pinned(request, name):
    traj = request.getfixturevalue(name)
    h = hashlib.sha256()
    for col in (traj.t, traj.x, traj.v, traj.f, traj.e_f_cum):
        h.update(col.tobytes())
    for r in traj.reversals:
        h.update(struct.pack("<q5d", r.index, r.t_i, r.x_i, r.f_i, r.e_p, r.e_d_halfcycle))
    assert h.hexdigest() == STANDARD_RUN_DIGESTS[name]


def test_simulate_reversals_interleave_with_velocity_signs(traj10):
    # between consecutive reversal records, v keeps one sign (post-event)
    recs = traj10.reversals
    t, v = np.asarray(traj10.t), np.asarray(traj10.v)
    for r0, r1 in zip(recs, recs[1:]):
        mask = (t > r0.t_i + 1e-12) & (t < r1.t_i - 1e-12)
        vs = v[mask]
        vs = vs[np.abs(vs) > 1e-9]
        assert np.all(vs > 0) or np.all(vs < 0)


def test_simulate_energy_conservation(traj10, traj100):
    for traj in (traj10, traj100):
        m = traj.config.params.mass
        e0 = 0.5 * m * traj.config.v0**2
        v, e_f_cum = np.asarray(traj.v), np.asarray(traj.e_f_cum)
        drift = np.abs(0.5 * m * v**2 + e_f_cum - e0) / e0
        assert drift.max() < 1e-6


def test_simulate_amplitude_bounded(traj10):
    cfg = traj10.config
    e0 = 0.5 * cfg.params.mass * cfg.v0**2
    # farthest excursion: the initial slide absorbs all of e0 within
    # e0/f_c + f_c/sigma of travel; later half-cycles only shrink
    bound = 1.25 * (abs(cfg.x0) + e0 / cfg.params.f_c + cfg.params.f_c / cfg.params.sigma)
    assert np.max(np.abs(np.asarray(traj10.x))) <= bound
    # with no pre-stored elastic energy, kinetic energy never exceeds the
    # initial supply
    assert np.max(0.5 * cfg.params.mass * np.asarray(traj10.v) ** 2) <= e0 * (1.0 + 1e-9)


def test_simulate_asymptotic_positivity(traj10, traj100, traj1000):
    for traj in (traj10, traj100, traj1000):
        assert traj.reversals[-1].e_p > 0.0


def test_simulate_rescaled_mass_matches():
    # doubling the mass at fixed (f_c, sigma) stretches time by sqrt(2)
    # but leaves the reversal displacements and forces unchanged
    c1 = SimConfig(params=P10, x0=0.0, v0=0.5, max_reversals=4, t_max=100.0)
    p_heavy = FrictionParams(1.0, 10.0, mass=2.0)
    c2 = SimConfig(params=p_heavy, x0=0.0, v0=0.5 / math.sqrt(2.0),
                   max_reversals=4, t_max=100.0)
    r1 = simulate(c1).reversals
    r2 = simulate(c2).reversals
    for a, b in zip(r1, r2):
        assert b.t_i == pytest.approx(a.t_i * math.sqrt(2.0), rel=1e-6)
        assert b.x_i == pytest.approx(a.x_i, rel=1e-6)
        assert b.f_i == pytest.approx(a.f_i, rel=1e-6)


# v0 values (found by bisection on v0) where the full step right before
# the second reversal lands within event_tol_v of zero velocity: on the
# side before the sign change (locate_reversal returns its left bracket
# and simulate appends no reversal sample), or one ulp of v0 away, after it
V0_LEFT_BRACKET = 0.5363251089782544
V0_RIGHT_BRACKET = 0.5363251089782543


@pytest.mark.parametrize(
    "params, sim, ends, bracket",
    [
        (FrictionParams(1.0, 10.0), {"v0": 0.5}, "reversals", None),
        (FrictionParams(1.0, 1000.0), {"v0": 0.5}, "reversals", None),
        (FrictionParams(1.0, 30.0, gamma=2.0), {"v0": 0.8}, "reversals", None),
        (FrictionParams(1.0, 10.0, mass=3.0), {"v0": -0.7, "x0": 0.2}, "reversals", None),
        (FrictionParams(2.0, 50.0), {"v0": 0.3, "f0": 0.9}, "reversals", None),
        (FrictionParams(1.0, 10.0), {"v0": 0.5, "t_max": 7.777, "max_reversals": None},
         "t_max", None),
        (FrictionParams(1.0, 10.0), {"v0": 0.5, "stop_energy": 2e-3, "max_reversals": None},
         "stop_energy", None),
        (FrictionParams(1.0, 10.0), {"v0": V0_LEFT_BRACKET}, "reversals", "left"),
        (FrictionParams(1.0, 10.0), {"v0": V0_RIGHT_BRACKET}, "reversals", "right"),
    ],
    ids=["ratio10", "ratio1000", "gamma2", "mass3", "f0", "t_max_mid_step", "stop_energy",
         "left_bracket", "right_bracket"],
)
def test_simulate_matches_per_state_reference_bitwise(monkeypatch, params, sim, ends, bracket):
    returned = []  # per reversal: which bracket locate_reversal returned, if either

    def spy(march, before, after, tol_v):
        # simulate hands over a bracket: v changes sign, or before is the reversal
        assert abs(before[2]) <= tol_v or before[2] * after[2] < 0.0
        rev = locate_reversal(march, before, after, tol_v)
        returned.append("left" if rev is before else "right" if rev is after else None)
        return rev

    monkeypatch.setattr(oscillator_module, "locate_reversal", spy)
    cfg = SimConfig(params=params, **{"x0": 0.0, "max_reversals": 8, "t_max": 200.0, **sim})
    traj = simulate(cfg)
    assert [(i, b) for i, b in enumerate(returned) if b] == ([(1, bracket)] if bracket else [])
    cols, records = reference_simulate(cfg)
    for k, ref in cols.items():
        assert getattr(traj, k).tobytes() == ref.tobytes(), k
    assert traj.reversals == records
    # every reversal instant is a sample, including the bracket cases
    assert all(traj.t[bisect_left(traj.t, r.t_i)] == r.t_i for r in traj.reversals)
    # each case stops the way its id says
    if ends == "reversals":
        assert len(records) == cfg.max_reversals
    elif ends == "t_max":
        assert traj.t[-1] == cfg.t_max
        assert 0.0 < traj.t[-1] - traj.t[-2] < cfg.effective_dt()
    else:
        assert records[-1].e_p < cfg.stop_energy <= records[-2].e_p


@pytest.mark.parametrize(
    "v0, threshold, samples",
    [(0.5, 2370, 2371), (V0_LEFT_BRACKET, 2385, 2385)],
    ids=["ratio10", "left_bracket"],
)
def test_simulate_step_budget_counts_reversal_steps(monkeypatch, v0, threshold, samples):
    # each accepted step counts one, and so does each step that detects a
    # reversal (bisection steps do not): every step adds one sample to the
    # initial one, except that a left-bracket reversal adds none
    cfg = SimConfig(P10, v0=v0, max_reversals=3)
    traj = simulate(cfg)
    assert len(traj.reversals) == 3 and len(traj) == samples
    monkeypatch.setattr(oscillator_module, "MAX_STEPS", threshold)
    assert simulate(cfg).t == traj.t
    monkeypatch.setattr(oscillator_module, "MAX_STEPS", threshold - 1)
    with pytest.raises(StepRejectionError, match=f"^no stop within MAX_STEPS={threshold - 1} "):
        simulate(cfg)


# ---------------------------------------------------------------------------
# energy queries
# ---------------------------------------------------------------------------

def test_restoring_energy_reversal_to_peak_is_released_potential(traj10):
    # reversals and peaks are samples: the work is a difference of e_f_cum samples
    p, t, e = traj10.config.params, traj10.t, traj10.e_f_cum
    for i in range(4):
        r = traj10.reversals[i]
        t_0, _ = peak_velocity_between_reversals(traj10, i)
        released = e[bisect_left(t, t_0)] - e[bisect_left(t, r.t_i)]
        analytic = potential_energy(-abs(r.f_i), p)
        assert released == pytest.approx(-analytic, rel=1e-3)


def test_peak_velocity_at_force_zero_crossing(traj10):
    p = traj10.config.params
    for i in range(4):
        t_0, v_pk = peak_velocity_between_reversals(traj10, i)
        k = int(np.searchsorted(traj10.t, t_0))
        assert abs(traj10.f[k]) < 1e-3 * p.f_c
        assert 0.5 * p.mass * v_pk**2 == pytest.approx(traj10.reversals[i].e_p, rel=1e-12)
        analytic = potential_energy(-abs(traj10.reversals[i].f_i), p)
        assert 0.5 * p.mass * v_pk**2 == pytest.approx(analytic, rel=1e-3)


def test_peak_velocity_symmetric_spring():
    k = 4.0
    p = FrictionParams(f_c=100.0, sigma=k, gamma=0.0)
    cfg = SimConfig(params=p, x0=0.0, v0=1.0, dt=math.pi / 2000.0, t_max=20.0,
                    max_reversals=3)
    traj = simulate(cfg)
    t_0, v_pk = peak_velocity_between_reversals(traj, 0)
    r0, r1 = traj.reversals[0], traj.reversals[1]
    assert t_0 == pytest.approx(0.5 * (r0.t_i + r1.t_i), abs=2e-3)
    assert abs(v_pk) == pytest.approx(1.0, rel=1e-6)


def test_peak_velocity_missing_index(traj10):
    with pytest.raises(IndexError):
        peak_velocity_between_reversals(traj10, len(traj10.reversals) - 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_trajectory_csv(tmp_path, traj10):
    path = tmp_path / "traj.csv"
    data, n = encode_csv(*trajectory_table(traj10))
    path.write_bytes(data)
    assert n == len(traj10)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,v,F,E_k,E_f_cum"
    back = np.genfromtxt(path, delimiter=",", names=True)
    # 17 significant digits round-trip exactly
    assert back["x"][5] == traj10.x[5]
    assert back["E_k"][10] == pytest.approx(0.5 * traj10.v[10] ** 2, rel=1e-16)


def test_reversals_csv(traj10):
    data, n = encode_csv(*reversals_table(traj10))
    assert n == len(traj10.reversals)
    assert data.decode().splitlines()[0] == "i,t_i,x_i,F_i,E_p,E_d_halfcycle"
