"""Tests of the restoring-force maps (Dahl and stop spring)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from presliding.errors import DomainError
from presliding.hysteresis import (
    BranchState,
    FrictionParams,
    dahl_branch,
    dahl_rate,
    loop_dissipation,
    stop_spring,
)

P1 = FrictionParams(f_c=1.0, sigma=1.0)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"f_c": 0.0, "sigma": 1.0},
        {"f_c": -1.0, "sigma": 1.0},
        {"f_c": 1.0, "sigma": 0.0},
        {"f_c": 1.0, "sigma": 1.0, "gamma": -0.1},
        {"f_c": 1.0, "sigma": 10.0, "gamma": 1e300},
        {"f_c": 1.0, "sigma": 2.0, "gamma": 1023.0},
        {"f_c": 1.0, "sigma": 0.5, "gamma": 1024.0},
        {"f_c": 1.0, "sigma": 1.0, "mass": 0.0},
    ],
)
def test_friction_params_invariants(kwargs):
    with pytest.raises(DomainError):
        FrictionParams(**kwargs)


def test_gamma_bound_admits_a_finite_peak_slope():
    # sigma*2**gamma just below the largest double
    assert FrictionParams(f_c=1.0, sigma=1.0, gamma=1020.0).gamma == 1020.0
    assert FrictionParams(f_c=1.0, sigma=1.5, gamma=1023.0).gamma == 1023.0


def test_branch_state_direction():
    with pytest.raises(DomainError):
        BranchState(0.0, 0.0, 0)
    with pytest.raises(DomainError):
        BranchState(0.0, 0.0, 2)


# ---------------------------------------------------------------------------
# differential form
# ---------------------------------------------------------------------------

def test_rate_at_zero_force():
    assert dahl_rate(0.0, 1.0, P1) == P1.sigma


def test_rate_saturates():
    assert dahl_rate(1.0, 1.0, FrictionParams(1.0, 7.0)) == 0.0
    assert dahl_rate(-1.0, -1.0, P1) == 0.0


def test_rate_direct_substitution():
    assert dahl_rate(-0.5, 1.0, FrictionParams(1.0, 2.0)) == 3.0


def test_rate_zero_velocity():
    assert dahl_rate(0.3, 0.0, P1) == 0.0


def test_rate_escaped_band():
    with pytest.raises(DomainError):
        dahl_rate(1.0 + 1e-9, 1.0, P1)


def test_rate_general_gamma():
    p = FrictionParams(1.0, 2.0, gamma=2.0)
    assert dahl_rate(-0.5, 1.0, p) == 2.0 * 1.5**2
    p0 = FrictionParams(1.0, 2.0, gamma=0.0)
    assert dahl_rate(0.3, 1.0, p0) == 2.0  # piecewise-linear inside the band


def test_rate_matches_branch_slope_by_quadrature():
    # integrating the differential form in x reproduces the algebraic branch
    p = FrictionParams(1.0, 1.0)
    b = BranchState(0.0, -0.5, +1)
    n = 20000
    h = math.log(2.0) / n
    f = b.f_rev
    for _ in range(n):
        k1 = dahl_rate(f, 1.0, p)
        k2 = dahl_rate(f + 0.5 * h * k1, 1.0, p)
        k3 = dahl_rate(f + 0.5 * h * k2, 1.0, p)
        k4 = dahl_rate(f + h * k3, 1.0, p)
        f += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert abs(f - 0.25) < 1e-12


# ---------------------------------------------------------------------------
# algebraic branch form
# ---------------------------------------------------------------------------

def test_branch_through_initial_condition():
    b = BranchState(0.3, -0.7, +1)
    assert dahl_branch(b, P1)(0.3) == -0.7


def test_branch_saturates_far_ahead():
    b = BranchState(0.0, -1.0, +1)
    assert abs(dahl_branch(b, P1)(40.0) - 1.0) < 1e-15
    b_down = BranchState(0.0, 1.0, -1)
    assert abs(dahl_branch(b_down, P1)(-40.0) + 1.0) < 1e-15


def test_branch_worked_example():
    b = BranchState(0.0, -0.5, +1)
    assert abs(dahl_branch(b, P1)(math.log(2.0)) - 0.25) < 1e-15


def test_branch_rejects_queries_behind_reversal():
    b = BranchState(0.0, -0.5, +1)
    with pytest.raises(DomainError):
        dahl_branch(b, P1)(-0.01)


def test_branch_requires_gamma_one():
    p = FrictionParams(1.0, 1.0, gamma=2.0)
    with pytest.raises(DomainError):
        dahl_branch(BranchState(0.0, 0.0, +1), p)(0.1)


def test_branch_rejects_out_of_band_memory():
    b = BranchState(0.0, 1.5, +1)
    with pytest.raises(DomainError):
        dahl_branch(b, P1)(0.1)


@pytest.mark.parametrize(
    "x, b, p, message",
    [
        # every precondition broken: gamma is checked first
        (
            -0.01,
            BranchState(0.0, 1.5, +1),
            FrictionParams(1.0, 1.0, gamma=2.0),
            "closed-form branch operations require gamma == 1, got 2.0",
        ),
        (0.1, BranchState(0.0, 1.5, +1), P1, "|f_rev|=1.5 exceeds f_c=1.0"),
        # out-of-band memory is reported before a query behind the reversal
        (-0.01, BranchState(0.0, -1.5, +1), P1, "|f_rev|=1.5 exceeds f_c=1.0"),
        (
            -0.01,
            BranchState(0.0, -0.5, +1),
            P1,
            "x=-0.01 lies behind the reversal point x_rev=0.0 for direction +1",
        ),
        (
            0.25,
            BranchState(0.0, 0.5, -1),
            P1,
            "x=0.25 lies behind the reversal point x_rev=0.0 for direction -1",
        ),
    ],
)
def test_branch_error_order_and_wording(x, b, p, message):
    # gamma and the memory are checked when the map is built, a query
    # behind the reversal when the map is called
    if message.startswith("x="):
        force = dahl_branch(b, p)
        with pytest.raises(DomainError) as exc:
            force(x)
    else:
        with pytest.raises(DomainError) as exc:
            dahl_branch(b, p)
    assert str(exc.value) == message


# a NamedTuple's defaulted fields are drawn unless given, so gamma and mass are pinned
branch_params = st.builds(
    FrictionParams,
    f_c=st.floats(0.1, 10.0),
    sigma=st.floats(0.01, 1e4),
    gamma=st.just(1.0),
    mass=st.just(1.0),
)


def branch_formula(x, b, p):
    """The branch force as its definition reads, evaluated at x."""
    d = float(b.direction)
    return d * (p.f_c - (p.f_c - d * b.f_rev) * math.exp(-d * (p.sigma / p.f_c) * (x - b.x_rev)))


@given(
    p=branch_params,
    f_frac=st.floats(-1.0, 1.0),
    x_rev=st.floats(-10.0, 10.0),
    dx_frac=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    direction=st.sampled_from([+1, -1]),
)
def test_branch_map_equals_the_formula(p, f_frac, x_rev, dx_frac, direction):
    # the map binds the branch constants once and keeps the formula's
    # operation order, so every value is the same double
    b = BranchState(x_rev, f_frac * p.f_c, direction)
    force = dahl_branch(b, p)
    x = x_rev + direction * dx_frac * p.f_c / p.sigma
    assert force(x) == (b.f_rev if x == x_rev else branch_formula(x, b, p))
    assert force(x_rev) == b.f_rev


@given(
    p=branch_params,
    f_frac=st.floats(-1.0, 1.0),
    dx_frac=st.floats(0.0, 50.0),
    direction=st.sampled_from([+1, -1]),
)
def test_branch_force_bounded(p, f_frac, dx_frac, direction):
    b = BranchState(0.0, f_frac * p.f_c, direction)
    x = direction * dx_frac * p.f_c / p.sigma
    f = dahl_branch(b, p)(x)
    assert abs(f) <= p.f_c * (1.0 + 1e-12)


@given(
    p=st.builds(FrictionParams, f_c=st.floats(0.1, 10.0), sigma=st.floats(0.01, 1e3),
                gamma=st.just(1.0), mass=st.just(1.0)),
    f_frac=st.floats(-1.0, 1.0),
    dx_frac=st.floats(0.0, 5.0),
    shift=st.floats(-10.0, 10.0),
)
def test_branch_rate_independence_translation(p, f_frac, dx_frac, shift):
    # force depends only on (x - x_rev, f_rev, direction), never on location;
    # the abs slack covers rounding of (x + shift) - (x_rev + shift) scaled
    # by the branch stiffness
    b = BranchState(0.0, f_frac * p.f_c, +1)
    x = dx_frac * p.f_c / p.sigma
    f0 = dahl_branch(b, p)(x)
    f1 = dahl_branch(BranchState(b.x_rev + shift, b.f_rev, b.direction), p)(x + shift)
    assert f1 == pytest.approx(f0, rel=1e-9, abs=1e-9 * p.f_c)


@given(
    p=branch_params,
    c=st.floats(0.05, 0.95),
    frac=st.floats(0.0, 1.0),
)
def test_branch_clockwise_ordering_on_closed_cycles(p, c, frac):
    # a Dahl cycle closes iff the reversal forces are opposite; on such a
    # cycle the ascending branch lies above the descending branch pointwise
    b_up = BranchState(0.0, -c * p.f_c, +1)
    x_hi = (p.f_c / p.sigma) * math.log((1.0 + c) / (1.0 - c))
    b_down = BranchState(x_hi, dahl_branch(b_up, p)(x_hi), -1)
    assert b_down.f_rev == pytest.approx(c * p.f_c, rel=1e-12, abs=1e-13 * p.f_c)
    x = frac * x_hi
    up = dahl_branch(b_up, p)(x)
    down = dahl_branch(b_down, p)(x)
    assert up >= down - 1e-12 * p.f_c


def test_branch_coulomb_limit():
    # at sigma/f_c = 1e6 the force recovers 99% of the friction level
    # within a displacement below 10*f_c/sigma of the reversal
    p = FrictionParams(1.0, 1e6)
    b = BranchState(0.0, -1.0, +1)
    assert dahl_branch(b, p)(10.0 * p.f_c / p.sigma) >= 0.99 * p.f_c


# ---------------------------------------------------------------------------
# stop spring
# ---------------------------------------------------------------------------

def test_stop_spring_through_initial_condition():
    sp = FrictionParams(f_c=1.0, sigma=3.0)
    b = BranchState(0.5, 0.2, +1)
    assert stop_spring(b, sp)(0.5) == 0.2


def test_stop_spring_saturation():
    sp = FrictionParams(f_c=1.0, sigma=2.0)
    assert stop_spring(BranchState(0.0, 0.0, +1), sp)(10.0) == 1.0
    assert stop_spring(BranchState(0.0, 0.0, -1), sp)(-10.0) == -1.0


def test_stop_spring_affine_segment():
    sp = FrictionParams(f_c=1.0, sigma=1.0)
    b = BranchState(0.0, -1.0, +1)
    assert stop_spring(b, sp)(0.5) == -0.5


def test_stop_spring_reads_neither_gamma_nor_mass():
    # the stop spring is fixed by its slope sigma and its level f_c alone
    b = BranchState(0.1, -0.3, +1)
    plain = stop_spring(b, FrictionParams(f_c=1.0, sigma=2.5))
    shaped = stop_spring(b, FrictionParams(f_c=1.0, sigma=2.5, gamma=2.0, mass=3.0))
    for x in (-5.0, 0.1, 0.2, 0.22, 0.35, 0.6, 5.0):
        assert plain(x).hex() == shaped(x).hex()


@given(
    k=st.floats(0.1, 10.0),
    f_c=st.floats(0.1, 5.0),
    f0_frac=st.floats(-1.0, 1.0),
    x=st.floats(-100.0, 100.0),
)
def test_stop_spring_always_clamped(k, f_c, f0_frac, x):
    sp = FrictionParams(f_c=f_c, sigma=k)
    b = BranchState(0.0, f0_frac * f_c, +1)
    assert abs(stop_spring(b, sp)(x)) <= f_c


# ---------------------------------------------------------------------------
# loop dissipation
# ---------------------------------------------------------------------------

def test_loop_degenerate_cycle():
    b_up = BranchState(0.0, -0.5, +1)
    assert loop_dissipation(b_up, 0.0, dahl_branch, P1) == 0.0


def test_loop_stop_spring_conservative():
    sp = FrictionParams(f_c=1.0, sigma=2.0)
    b_up = BranchState(0.0, -0.4, +1)
    delta = loop_dissipation(b_up, 0.35, stop_spring, sp)
    assert abs(delta) < 1e-10 * sp.sigma * 0.35**2


def test_loop_dahl_half_saturated_cycle():
    # rise from a saturated reversal to force +f_c/2 and return; the loop
    # area was measured once by the quadrature oracle and frozen
    b_up = BranchState(0.0, -1.0, +1)
    x_hi = math.log(4.0)
    assert abs(dahl_branch(b_up, P1)(x_hi) - 0.5) < 1e-15
    delta = loop_dissipation(b_up, x_hi, dahl_branch, P1)
    assert delta > 0.0
    assert delta == pytest.approx(0.14758872223978106, rel=1e-10)


def test_loop_energy_balanced_cycle():
    # ascending from f_i = -0.9 to the energy-balanced next reversal;
    # frozen via the quadrature oracle
    from presliding.reversal import next_reversal_exact, reversal_coordinate

    f_i = -0.9
    x_i = reversal_coordinate(f_i, P1)
    x_next = next_reversal_exact(f_i, P1)
    b_up = BranchState(x_i, f_i, +1)
    delta = loop_dissipation(b_up, x_next, dahl_branch, P1)
    assert delta == pytest.approx(0.2625792827433637, rel=1e-9)


def test_loop_preconditions():
    with pytest.raises(DomainError):
        # the top reversal lies below the ascending branch's start
        loop_dissipation(BranchState(1.0, -0.5, +1), 0.0, dahl_branch, P1)
    with pytest.raises(DomainError):
        loop_dissipation(BranchState(0.0, 0.5, -1), 1.0, dahl_branch, P1)


@given(
    f_c=st.floats(0.5, 7.0),
    log_ratio=st.floats(math.log(0.1), math.log(1e4)),
    c=st.floats(0.05, 0.95),
    x_lo=st.floats(-1.0, 1.0),
)
def test_loop_closed_dahl_cycle_closed_form(f_c, log_ratio, c, x_lo):
    # the ascending branch from -c*f_c reaches +c*f_c at x_hi, so the cycle
    # reversed there closes; its loop area is 4*f_c*(f_c/sigma)*(atanh(c) - c)
    p = FrictionParams(f_c=f_c, sigma=f_c * math.exp(log_ratio))
    x_hi = x_lo + (f_c / p.sigma) * math.log((1.0 + c) / (1.0 - c))
    delta = loop_dissipation(BranchState(x_lo, -c * f_c, +1), x_hi, dahl_branch, p)
    assert delta == pytest.approx(4.0 * f_c * (f_c / p.sigma) * (math.atanh(c) - c), rel=1e-9)
