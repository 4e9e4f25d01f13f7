"""Tests of the validate checks themselves: the work they do and the defects they catch."""

import gc
import math
from array import array
from itertools import accumulate
from operator import itemgetter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from presliding import hysteresis, oscillator, reversal, validation
from presliding.hysteresis import FrictionParams
from presliding.oscillator import SimConfig, Trajectory


def test_quadrature_work_is_pinned(monkeypatch):
    # a faster validate must not come from a shorter quadrature: the count
    # of integrals and of integrand calls of each quadrature check is fixed
    integrate = validation.integrate
    evaluations = []

    def counted(*args, **kwargs):
        result = integrate(*args, **kwargs)
        evaluations.append(result.evaluations)
        return result

    monkeypatch.setattr(validation, "integrate", counted)
    monkeypatch.setattr(hysteresis, "integrate", counted)
    validation.check_quadrature_equivalence()
    assert (len(evaluations), sum(evaluations)) == (40, 7860)
    evaluations.clear()
    validation.check_clockwise_dissipation()
    validation.check_stop_spring_conservative()
    assert (len(evaluations), sum(evaluations)) == (25, 7117)


def test_a_quadrature_leaves_no_reference_cycle():
    # a cycle outlives its call until the cyclic collector frees it; a
    # recursion that closed over itself left about 1,200 objects per run_all
    gc.collect()
    gc.disable()
    try:
        validation.integrate(math.exp, 0.0, 1.0)
        after_integrate = gc.collect()
        validation.run_all()
        after_run_all = gc.collect()
    finally:
        gc.enable()
    assert (after_integrate, after_run_all) == (0, 0)


def reference_drift(traj):
    """The energy drift as a per-sample pass: the largest |(m/2)v^2 + e_f - e0| over e0."""
    k = 0.5 * traj.config.params.mass
    e0 = k * traj.config.v0**2
    return max([abs(k * (v * v) + e - e0) for v, e in zip(traj.v, traj.e_f_cum)]) / e0


@st.composite
def balance_columns(draw):
    """(mass, v0, v column, e_f_cum column) whose conserved sums fall at, below and above e0."""
    mass = draw(st.floats(0.1, 10.0))
    v0 = draw(st.one_of(st.sampled_from([-1.0, 0.5, 1.0]),
                        st.floats(0.05, 2.0), st.floats(-2.0, -0.05)))
    k = 0.5 * mass
    e0 = k * v0**2
    samples = []
    for _ in range(draw(st.integers(1, 12))):
        v = draw(st.one_of(st.sampled_from([0.0, -0.0, v0, -v0]),
                           st.floats(-2 * abs(v0), 2 * abs(v0))))
        # an exact balance, a signed zero, or an offset from e0 within the
        # drift bound 1e-6 and beyond it, on either side
        e = draw(st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(-1e-15, 1e-15).map(lambda d: e0 - k * (v * v) + d * e0),
            st.floats(-1e-3, 1e-3).map(lambda d: e0 - k * (v * v) + d * e0),
        ))
        samples += [(v, e)] * draw(st.integers(1, 2))  # a repeated sample is a tie
    vs, es = zip(*draw(st.permutations(samples)))
    return mass, v0, vs, es


@given(balance_columns())
@example((1.0, 1.0, (1.0, 0.0, 0.0), (0.0, 0.5 + 2e-6, 0.5 - 3e-6)))  # below e0 by more
@example((1.0, 1.0, (1.0, 0.0, 0.0), (0.0, 0.5 + 3e-6, 0.5 - 2e-6)))  # above e0 by more
@example((2.0, -1.0, (-0.0, 0.0), (1.0, 1.0)))  # every sum equal to e0
def test_energy_drift_from_the_extreme_sums_is_the_per_sample_drift_bitwise(columns):
    # s - e0 rounds monotonically in s, so the largest |s - e0| is at the
    # largest or the smallest sum; the standard runs have min(s) == e0, so
    # no byte pin shows whether the below-e0 side is read
    mass, v0, vs, es = columns
    zeros = array("d", bytes(8 * len(vs)))
    traj = Trajectory(zeros, zeros, array("d", vs), zeros, array("d", es), [],
                      SimConfig(FrictionParams(1.0, 10.0, mass=mass), v0=v0))
    drift = validation.check_energy_balance(traj, "r")[0].measured
    assert drift.hex() == reference_drift(traj).hex()


@pytest.fixture(scope="session")
def trajs(traj10, traj100, traj1000):
    """run_all's three runs: the standard runs at sigma/f_c = 10, 100 and 1000."""
    return [traj10, traj100, traj1000]


def report(trajs):
    """The rows of validation.CHECKS over trajs, in report order."""
    return [r for check in validation.CHECKS for r in check(trajs, [])]


def scale_branch(name, directions=(+1, -1)):
    """Injection that multiplies validation.<name>'s branch force by 1 + 1e-6 in directions."""
    def inject(monkeypatch):
        branch = getattr(validation, name)

        def scaled(b, p):
            force = branch(b, p)
            return (lambda x: force(x) * (1 + 1e-6)) if b.direction in directions else force

        monkeypatch.setattr(validation, name, scaled)
    return inject


def scale(name, factor=1 + 1e-6, module=reversal):
    """Injection that multiplies module.<name>'s result by factor."""
    def inject(monkeypatch):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: original(*args) * factor)
    return inject


def chain_column(k, defect):
    """Injection that passes column k of validation.reversal_chain's result through defect."""
    def inject(monkeypatch):
        chain = validation.reversal_chain

        def patched(*args, **kwargs):
            columns = chain(*args, **kwargs)
            columns[k] = defect(columns[k])
            return columns

        monkeypatch.setattr(validation, "reversal_chain", patched)
    return inject


def swap_approx_forms(monkeypatch):
    """validation._predictions with the printed and rederived forms swapped."""
    predictions = validation._predictions
    monkeypatch.setattr(validation, "_predictions",
                        lambda f_i, p: itemgetter(0, 2, 1)(predictions(f_i, p)))


# one row per injected defect: the injection and the exact set of checks it
# must fail, so that a loosened check breaks its row
MUTATIONS = {
    "branch_map_times_1_plus_1e-6": (
        scale_branch("dahl_branch"), {"quadrature-equivalence", "form-consistency"},
    ),
    "slope_exponent_0.75": (
        lambda monkeypatch: monkeypatch.setattr(validation, "SLOPE_EXPONENT", 0.75),
        {"omega-envelope"},
    ),
    "energy_times_1_plus_1e-6": (scale("_energy"), {"quadrature-equivalence"}),
    "energy_times_1_plus_1e-3": (
        scale("_energy", 1 + 1e-3), {"max-potential-energy", "quadrature-equivalence"},
    ),
    "branch_x_times_1_plus_1e-6": (scale("_branch_x"), {"exact-predictor-vs-oracle"}),
    "exact_ratio_times_1_plus_1e-3": (
        scale("_exact_ratio", 1 + 1e-3), {"chain-vs-simulation", "exact-predictor-vs-oracle"},
    ),
    "exact_ratio_times_1_plus_1e-2": (
        scale("_exact_ratio", 1 + 1e-2),
        {"approx-rederived-bound", "chain-vs-simulation", "series-99pct-at-frozen-N",
         "exact-predictor-vs-oracle"},
    ),
    "stop_spring_ascending_times_1_plus_1e-6": (
        scale_branch("stop_spring", [+1]), {"stop-spring-conservative"},
    ),
    "loop_dissipation_sign_flipped": (
        scale("loop_dissipation", -1.0, validation), {"clockwise-dissipation"},
    ),
    "chain_dissipation_sign_flipped": (
        chain_column(4, lambda e_d: [-e for e in e_d]),
        {"series-monotone-bounded", "series-99pct-at-frozen-N"},
    ),
    # E_p one reversal late: the chain stalls for a step
    "chain_energy_repeated_once": (
        chain_column(3, lambda e_p: e_p[:1] + e_p[:-1]), {"monotone-decay"},
    ),
    "approx_forms_swapped": (swap_approx_forms, {"approx-rederived-bound", "approx-better-form"}),
}


@pytest.mark.parametrize("inject, failing", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_each_defect_fails_exactly_its_checks(monkeypatch, trajs, inject, failing):
    inject(monkeypatch)
    assert {r.name for r in report(trajs) if not r.passed} == failing


def rewrite_work(rewrite):
    """Injection that replaces each run's e_f_cum by rewrite(e_f_cum) in validation.simulate."""
    def inject(monkeypatch):
        simulate = validation.simulate

        def rewritten(cfg):
            traj = simulate(cfg)
            traj.e_f_cum = array("d", rewrite(traj.e_f_cum))
            return traj

        monkeypatch.setattr(validation, "simulate", rewritten)
    return inject


def scale_released(e_f_cum, factor=1 + 1e-4):
    """e_f_cum with each decrease, the work the force gives back, scaled by factor."""
    steps = (b - a for a, b in zip(e_f_cum, e_f_cum[1:]))
    return accumulate((d * factor if d < 0.0 else d for d in steps), initial=e_f_cum[0])


def cap_stiffness(monkeypatch):
    """validation.simulate running each config at sigma/f_c of at most 100 (f_c = 1)."""
    simulate = validation.simulate
    monkeypatch.setattr(validation, "simulate", lambda cfg: simulate(
        cfg._replace(params=cfg.params._replace(sigma=min(cfg.params.sigma, 100.0)))))


# the same over the checks that read run_all's trajectories
TRAJECTORY_MUTATIONS = {
    "reversal_tol_v_1e-8": (
        lambda monkeypatch: monkeypatch.setattr(oscillator, "_TOL_V_REL", 1e-8),
        {"reversal-speed-r10", "reversal-speed-r100"},
    ),
    "work_times_1_plus_1e-5": (
        rewrite_work(lambda e_f_cum: [e * (1 + 1e-5) for e in e_f_cum]),
        {"energy-balance-drift-r10", "energy-balance-drift-r100"},
    ),
    "released_work_times_1_plus_1e-4": (
        rewrite_work(scale_released),
        {"equal-areas", "energy-balance-drift-r10", "energy-balance-drift-r100"},
    ),
    "stiffness_capped_at_sigma_100": (cap_stiffness, {"reversal-frequency-trend"}),
}


@pytest.mark.parametrize("inject, failing", TRAJECTORY_MUTATIONS.values(),
                         ids=TRAJECTORY_MUTATIONS.keys())
def test_each_trajectory_defect_fails_exactly_its_checks(monkeypatch, inject, failing):
    inject(monkeypatch)
    checks, _ = validation.run_all()
    assert {c.name for c in checks if not c.passed} == failing


def test_one_approx_pass_writes_the_report_rows_and_the_audit(monkeypatch):
    # run_all calls check_approx_forms once, and both of its outputs come from
    # that call: a patched one reaches the report rows and the audit rows
    check_approx_forms = validation.check_approx_forms
    calls = []

    def patched():
        checks, rows = check_approx_forms()
        calls.append(rows)
        return [c._replace(passed=False) for c in checks], rows[::-1]

    monkeypatch.setattr(validation, "check_approx_forms", patched)
    checks, audit = validation.run_all()
    assert len(calls) == 1
    assert {c.name for c in checks if not c.passed} == {
        "approx-rederived-bound", "approx-printed-recorded", "approx-better-form"}
    assert audit == calls[0][::-1] and len(audit) == 30


# The report rows that no injected defect can fail, each with its reason
CANNOT_FAIL = {
    "approx-printed-recorded": "informational: it passes whatever it measures",
    "determinism-fig3": "compares two renders in one process",
}


def test_each_report_row_is_placed_once(trajs):
    # a row that a mutation fails or one that cannot fail: a new row must be
    # placed, and a place must not name a row that is gone
    names = [r.name for r in report(trajs)]
    failed = set().union(*(f for _, f in [*MUTATIONS.values(), *TRAJECTORY_MUTATIONS.values()]))
    assert len(set(names)) == len(names)
    assert sorted([*failed, *CANNOT_FAIL]) == sorted(names)
