"""Tests of the closed-form reversal calculus, cross-checked by the oracle."""

import math
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from presliding.errors import ConvergenceError, DomainError
from presliding.hysteresis import BranchState, FrictionParams, dahl_branch
from presliding.oracle import find_root, integrate
from presliding.reversal import (
    _exact_ratio,
    _log1p_excess,
    next_reversal_approx,
    next_reversal_exact,
    omega,
    omega_approx,
    potential_energy,
    reversal_chain,
    reversal_coordinate,
)
from presliding._csv import encode_csv
from presliding.figures import CHAIN_HEADER, fig6_table
from presliding import reversal, validation
from presliding.validation import (
    OMEGA_ENVELOPE_BOUND,
    check_exact_predictor_vs_oracle,
    check_omega_envelope,
)

from helpers import branch_work

P1 = FrictionParams(f_c=1.0, sigma=1.0)

# a NamedTuple's defaulted fields are drawn unless given, so gamma and mass are pinned
params_strategy = st.builds(
    FrictionParams,
    f_c=st.floats(0.1, 10.0),
    sigma=st.floats(0.01, 1e4),
    gamma=st.just(1.0),
    mass=st.just(1.0),
)
force_fraction = st.floats(0.001, 1.0)


# ---------------------------------------------------------------------------
# branch geometry
# ---------------------------------------------------------------------------

# the branch leaving a reversal (x_i, f_i) crosses zero force at
# x_i - reversal_coordinate(f_i, p), always ahead of x_i

def test_zero_crossing_saturated():
    assert 0.0 - reversal_coordinate(-1.0, P1) == pytest.approx(math.log(2.0), abs=1e-15)


def test_zero_crossing_small_force_limit():
    assert 0.0 - reversal_coordinate(-1e-12, P1) == pytest.approx(0.0, abs=1e-11)


def test_zero_crossing_scaling():
    d1 = 0.0 - reversal_coordinate(-0.5, FrictionParams(1.0, 1.0))
    d2 = 0.0 - reversal_coordinate(-0.5, FrictionParams(1.0, 2.0))
    assert d1 == pytest.approx(2.0 * d2, rel=1e-14)


@pytest.mark.parametrize("f_i", [0.0, 0.5, -1.0000001])
def test_zero_crossing_domain(f_i):
    with pytest.raises(DomainError):
        reversal_coordinate(f_i, P1)


def test_zero_crossing_is_branch_zero():
    for ratio in (1.0, 10.0, 100.0, 1000.0):
        p = FrictionParams(1.0, ratio)
        for u in np.arange(0.1, 1.0001, 0.1):
            f_i = -u
            x0 = 0.25 - reversal_coordinate(f_i, p)
            b = BranchState(0.25, f_i, +1)
            assert abs(dahl_branch(b, p)(x0)) < 1e-12


def test_reversal_coordinate_saturated():
    assert reversal_coordinate(-1.0, P1) == pytest.approx(-math.log(2.0), abs=1e-15)


@given(p=params_strategy, u=force_fraction)
def test_reversal_coordinate_negative(p, u):
    assert reversal_coordinate(-u * p.f_c, p) < 0.0


@given(p=params_strategy, u=force_fraction, x_i=st.floats(-5.0, 5.0))
def test_frames_are_consistent(p, u, x_i):
    # a reversal placed at its reversal coordinate has its zero crossing at
    # the origin, and one at x_i has it reversal_coordinate behind x_i; the
    # abs slack is the cancellation floor of subtracting x_i back out
    f_i = -u * p.f_c
    b = BranchState(reversal_coordinate(f_i, p), f_i, +1)
    assert dahl_branch(b, p)(0.0) == pytest.approx(0.0, abs=1e-12 * p.f_c)
    assert (x_i - reversal_coordinate(f_i, p)) - x_i == pytest.approx(
        -reversal_coordinate(f_i, p), rel=1e-12, abs=1e-13
    )


def test_reversal_coordinate_domain():
    with pytest.raises(DomainError):
        reversal_coordinate(0.0, P1)
    with pytest.raises(DomainError):
        reversal_coordinate(-1.1, P1)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_branch_work_matches_branch_quadrature():
    # the reference the energy-balance tests below solve against is the
    # integral of the package's own branch force
    p = FrictionParams(2.0, 5.0)
    b = BranchState(0.0, 0.0, +1)  # branch through the zero-crossing frame origin
    val = integrate(dahl_branch(b, p), 0.0, 0.7, rel_tol=1e-12)
    assert branch_work(0.7, p) == pytest.approx(val.value, rel=1e-10)


def test_potential_energy_degenerate_zero():
    assert potential_energy(0.0, P1) == 0.0


def test_potential_energy_saturated_is_max():
    assert potential_energy(-1.0, P1) == pytest.approx(1.0 - math.log(2.0), abs=1e-15)


def test_potential_energy_worked_example():
    p = FrictionParams(1.0, 10.0)
    # (1/10)*(ln(1/1.5) + 0.5), frozen after oracle quadrature agreement
    assert potential_energy(-0.5, p) == pytest.approx(0.009453489189183562, rel=1e-14)
    x_i = reversal_coordinate(-0.5, p)
    b = BranchState(x_i, -0.5, +1)
    quad = integrate(dahl_branch(b, p), x_i, 0.0, rel_tol=1e-12)
    assert potential_energy(-0.5, p) == pytest.approx(-quad.value, rel=1e-10)


def test_potential_energy_domain():
    with pytest.raises(DomainError):
        potential_energy(0.1, P1)
    with pytest.raises(DomainError):
        potential_energy(-1.01, P1)


# the saturated reversal f_i = -f_c holds the largest recoverable energy,
# (1 - ln 2)*f_c^2/sigma

def test_bound_value():
    assert potential_energy(-P1.f_c, P1) == pytest.approx(0.30685281944005469, abs=1e-16)
    p = FrictionParams(2.0, 5.0)
    assert potential_energy(-p.f_c, p) == pytest.approx((1 - math.log(2)) * 4.0 / 5.0)


@given(p=params_strategy, u=st.floats(0.0, 1.0))
def test_bound_dominates_everywhere(p, u):
    assert potential_energy(-u * p.f_c, p) <= potential_energy(-p.f_c, p) * (1 + 1e-12)


def test_bound_below_linear_spring_energy():
    assert potential_energy(-P1.f_c, P1) < P1.f_c**2 / (2.0 * P1.sigma)


# ---------------------------------------------------------------------------
# decay factor and its linearization
# ---------------------------------------------------------------------------

def test_omega_values():
    assert omega(0.0, P1) == 1.0
    assert omega(1.0, P1) == pytest.approx(math.exp(-1.0), abs=1e-16)
    assert omega(800.0, P1) == 0.0  # underflow, limit value


def test_omega_approx_saturated():
    assert omega_approx(-1.0, P1) == pytest.approx(0.5**0.6, rel=1e-15)


def test_omega_approx_small_force_limit():
    p = FrictionParams(1.0, 7.0)
    assert omega_approx(-1e-12, p) == pytest.approx(p.sigma / p.f_c, rel=1e-9)


def test_omega_approx_domain():
    with pytest.raises(DomainError):
        omega_approx(0.0, P1)


def test_omega_envelope_frozen_bound():
    assert check_omega_envelope().measured <= OMEGA_ENVELOPE_BOUND


def test_omega_envelope_detects_tampered_exponent(monkeypatch):
    # negative control: the 0.6 exponent is load-bearing
    monkeypatch.setattr(validation, "SLOPE_EXPONENT", 0.75)
    assert check_omega_envelope().measured > OMEGA_ENVELOPE_BOUND


def test_omega_envelope_check_fails_on_wrong_slope(monkeypatch):
    # the slope construction is part of the check, not an assert that -O strips
    assert check_omega_envelope().passed
    monkeypatch.setattr(validation, "omega_approx", lambda f_i, p: 1.0)
    assert not check_omega_envelope().passed


# ---------------------------------------------------------------------------
# next-reversal predictors
# ---------------------------------------------------------------------------

def test_exact_predictor_frozen_root():
    x = next_reversal_exact(-1.0, P1)
    assert x == pytest.approx(0.9004770794799697, abs=1e-10)


def test_exact_predictor_residual_contract():
    for u in (0.05, 0.3, 0.8, 1.0):
        for ratio in (1.0, 10.0, 1000.0):
            p = FrictionParams(1.0, ratio)
            e_p = potential_energy(-u, p)
            x = next_reversal_exact(-u, p)
            assert abs(branch_work(x, p) - e_p) < 1e-12 * e_p


def test_exact_predictor_matches_independent_bisection():
    p = FrictionParams(1.5, 20.0)
    f_i = -0.8 * p.f_c
    e_p = potential_energy(f_i, p)
    ref = find_root(lambda x: branch_work(x, p) - e_p, 0.0, 1.0, tol=1e-14)
    assert next_reversal_exact(f_i, p) == pytest.approx(ref, abs=1e-12)


def test_exact_predictor_vanishes_with_energy():
    assert next_reversal_exact(-1e-10, P1) < 1e-9


@given(phi=st.floats(1e-6, 1.0))
@example(phi=math.ldexp(1.0 + 0.25 * 2.0**-19, -19))
def test_next_force_ratio_matches_oracle_root(phi):
    # bisection on the log form log1p(-q) + q = log1p(phi) - phi; in double
    # precision that residual cancels to ~eps/phi relative (1.6e-10 at
    # phi = 1e-6), so it is evaluated with 40 significant digits. The
    # explicit example puts phi just above a power of two and q just below
    # it, where the two sides round on different grids and a plain log1p
    # kernel misses the root by ~eps/phi
    ctx = Context(prec=40)
    one = ctx.create_decimal(1)
    d_phi = ctx.create_decimal(phi)
    rhs = ctx.subtract(ctx.ln(ctx.add(one, d_phi)), d_phi)

    def residual(q):
        d_q = ctx.create_decimal(q)
        return float(ctx.subtract(ctx.add(ctx.ln(ctx.subtract(one, d_q)), d_q), rhs))

    ref = find_root(residual, 0.0, math.nextafter(phi, 0.0), tol=1e-15 * phi)
    assert _exact_ratio(phi, _log1p_excess(phi)) == pytest.approx(ref, rel=1e-11, abs=0.0)


@pytest.mark.parametrize(
    "phi",
    [2e-6, 1e-8, 1e-12, 1e-15, 5e-16, 2e-16, 1.5e-16, 1e-16, 5e-17, 1e-20, 1e-100, 1e-300],
)
def test_next_force_ratio_within_one_ulp_below_1e_6(phi):
    # below phi = 1e-6 the Pade start is the answer; Newton's method on
    # log1p(-q) + q = log1p(phi) - phi, each side summed from its Taylor
    # series in 80 digits, gives the root. At phi <= 1.5e-16 the map
    # returns phi itself, at most 0.61 ulp above the root (worst 0.95 ulp at 1e-8)
    ctx = Context(prec=80)

    def excess(t):  # log1p(t) - t = sum over k >= 2 of (-1)**(k+1) * t**k / k
        total, power, k = Decimal(0), ctx.multiply(t, t), 2
        while True:
            term = ctx.divide(power, k)
            total = ctx.add(total, term if k % 2 else ctx.minus(term))
            if abs(term) <= abs(total) * Decimal("1e-85"):
                return total
            power, k = ctx.multiply(power, t), k + 1

    rhs = excess(Decimal(phi))
    root = Decimal(phi)
    for _ in range(8):  # from a relative error below 2e-6, four steps reach 80 digits
        # h(q) = excess(-q) - rhs has h'(q) = -q/(1 - q)
        minus = ctx.minus(root)
        slope = ctx.divide(minus, ctx.subtract(1, root))
        root = ctx.subtract(root, ctx.divide(ctx.subtract(excess(minus), rhs), slope))
    q = _exact_ratio(phi, _log1p_excess(phi))
    assert abs(ctx.subtract(Decimal(q), root)) <= Decimal(math.ulp(q))


@pytest.mark.parametrize(
    "f_c, sigma", [(3e-162, 2e-170), (1e-160, 1e-160), (1e200, 1e200), (1.0, 10.0)]
)
def test_saturated_energy_matches_decimal_where_f_c_squared_does_not_fit(f_c, sigma):
    # (f_c**2/sigma)*(1 - ln 2) in 50 digits; in floats f_c**2 is subnormal
    # at the first two pairs and overflows at the third
    ctx = Context(prec=50)
    d_f_c = Decimal(f_c)
    ref = ctx.multiply(ctx.divide(ctx.multiply(d_f_c, d_f_c), Decimal(sigma)),
                       ctx.subtract(1, ctx.ln(Decimal(2))))
    p = FrictionParams(f_c=f_c, sigma=sigma)
    for e_p in (potential_energy(-f_c, p), reversal_chain(-f_c, 3, p)[3][0]):
        assert abs(ctx.divide(ctx.subtract(Decimal(e_p), ref), ref)) <= Decimal("1e-15")


@pytest.fixture(scope="module")
def lambertw():
    return pytest.importorskip("scipy.special").lambertw


@given(phi=st.floats(1e-2, 1.0))
def test_next_force_ratio_matches_lambert_w0(lambertw, phi):
    # third route: W0 loses ~eps/phi**2 near its branch point -1/e, about
    # 2e-12 relative at phi = 1e-2, so it is only compared from there up
    z = -(1.0 + phi) * math.exp(-(1.0 + phi))
    q_w = 1.0 + lambertw(z, 0).real
    assert _exact_ratio(phi, _log1p_excess(phi)) == pytest.approx(q_w, rel=1e-11, abs=0.0)


def test_exact_predictor_oracle_check_passes():
    result = check_exact_predictor_vs_oracle()
    assert result.passed
    assert result.measured < result.tolerance


def test_approx_forms_agree_at_unity_ratio():
    # the two published variants coincide exactly when sigma == f_c
    for u in (0.2, 0.5, 1.0):
        a = next_reversal_approx(-u, P1, form="printed")
        b = next_reversal_approx(-u, P1, form="rederived")
        assert a == b


def test_approx_worked_value():
    x = next_reversal_approx(-1.0, P1, form="rederived")
    assert x == pytest.approx((1.0 - math.log(2.0)) / (1.0 - 0.5**0.6), rel=1e-14)


def test_approx_printed_degenerates_at_low_ratio():
    p = FrictionParams(2.0, 1.0)  # f_c > sigma
    with pytest.raises(DomainError):
        next_reversal_approx(-2.0, p, form="printed")
    # the rederived form stays defined on the same input
    assert next_reversal_approx(-2.0, p, form="rederived") > 0.0


def test_approx_unknown_form():
    with pytest.raises(DomainError):
        next_reversal_approx(-0.5, P1, form="fancy")


def ascending_branch(f_i, p):
    """The ascending branch leaving a reversal with force f_i, in the zero-crossing frame."""
    return BranchState(reversal_coordinate(f_i, p), f_i, +1)


def test_next_force_at_reversal_coordinate():
    branch = ascending_branch(-0.7, P1)
    x = math.nextafter(branch.x_rev, 1.0)  # past the pass-through of the reversal point
    assert dahl_branch(branch, P1)(x) == pytest.approx(-0.7, rel=1e-14)


def test_next_force_at_zero_crossing():
    assert abs(dahl_branch(ascending_branch(-0.7, P1), P1)(0.0)) < 1e-15


def test_next_force_composed_with_exact_predictor():
    x = next_reversal_exact(-1.0, P1)
    f_next = dahl_branch(ascending_branch(-1.0, P1), P1)(x)
    assert 0.0 < f_next < 1.0
    assert f_next == pytest.approx(0.5936242600399892, abs=1e-10)


def test_next_force_frame_violation():
    branch = ascending_branch(-0.7, P1)
    with pytest.raises(DomainError):
        dahl_branch(branch, P1)(branch.x_rev - 0.01)


# ---------------------------------------------------------------------------
# reversal chain
# ---------------------------------------------------------------------------

def test_chain_single_step_composes_primitives():
    p = FrictionParams(1.0, 10.0)
    n, f_n, x_n, e_p, e_d = reversal_chain(-0.6, 1, p, mode="exact")
    assert n == [0] and f_n == [-0.6]
    assert len(x_n) == len(e_p) == len(e_d) == 1
    assert x_n[0] == pytest.approx(reversal_coordinate(-0.6, p), rel=1e-15)
    assert e_p[0] == pytest.approx(potential_energy(-0.6, p), rel=1e-15)
    x1 = next_reversal_exact(-0.6, p)
    f1 = dahl_branch(ascending_branch(-0.6, p), p)(x1)
    assert e_d[0] == pytest.approx(potential_energy(-f1, p) * -1 + e_p[0], rel=1e-12)


def test_chain_signs_alternate_and_mirror():
    _, f_n, x_n, _, _ = reversal_chain(-1.0, 6, P1, mode="exact")
    for a, b in zip(f_n, f_n[1:]):
        assert a * b < 0.0
    for a, b in zip(x_n, x_n[1:]):
        assert a * b < 0.0
    assert all((f < 0) == (x < 0) for f, x in zip(f_n, x_n))


@given(
    u=st.floats(0.01, 1.0),
    ratio=st.floats(0.5, 1000.0),
)
def test_chain_strict_decay(u, ratio):
    p = FrictionParams(1.0, ratio)
    _, f_n, _, e_p, e_d = reversal_chain(-u, 5, p, mode="exact")
    for k in range(4):
        assert e_p[k + 1] < e_p[k]
        assert abs(f_n[k + 1]) < abs(f_n[k])
        assert e_d[k] > 0.0
    assert all(e > 0.0 for e in e_p)


def test_chain_partial_sums_telescope_to_seed_energy():
    p = FrictionParams(1.0, 10.0)
    *_, e_p, e_d = reversal_chain(-1.0, 60, p, mode="exact")
    e_p0 = e_p[0]
    partial = np.cumsum(e_d)
    assert np.all(np.diff(partial) > 0.0)
    assert np.all(partial < e_p0)
    assert partial[-1] >= 0.99 * e_p0


def test_chain_near_exponential_early_decay():
    # the energy sequence sits inside a geometric band over the first ten
    # half-cycles for every stiffness ratio (band frozen after measurement:
    # per-step factors run from 0.416 up to 0.84 by step ten)
    for ratio in (10.0, 100.0, 1000.0):
        p = FrictionParams(1.0, ratio)
        n, _, _, e_p, _ = reversal_chain(-1.0, 11, p, mode="exact")
        e0 = e_p[0]
        for k, e in zip(n[1:], e_p[1:]):
            assert e <= e0 * 0.85**k
            assert e >= e0 * 0.40**k


def test_chain_scale_invariance_across_ratios():
    # sigma scales energies by 1/sigma and leaves the decay shape untouched
    _, f10, _, e10, _ = reversal_chain(-1.0, 8, FrictionParams(1.0, 10.0))
    _, f1000, _, e1000, _ = reversal_chain(-1.0, 8, FrictionParams(1.0, 1000.0))
    assert f10 == pytest.approx(f1000, rel=1e-9)
    for a, b in zip(e10, e1000):
        assert a * 10.0 == pytest.approx(b * 1000.0, rel=1e-9)


def test_chain_forces_bitwise_independent_of_sigma():
    for mode in ("exact", "approx"):
        forces = [
            reversal_chain(-0.7, 30, FrictionParams(1.0, sigma), mode)[1]
            for sigma in (1.0, 10.0, 1000.0)
        ]
        assert forces[0] == forces[1] == forces[2], mode


def test_chain_approx_mode_decays():
    f_n = reversal_chain(-1.0, 10, FrictionParams(1.0, 10.0), mode="approx")[1]
    for a, b in zip(f_n, f_n[1:]):
        assert abs(b) < abs(a)


@pytest.mark.parametrize("phi", [1.0, 0.5, 1e-3, 1e-10, 1e-100])
def test_approx_ratio_map_matches_decimal_reference(phi):
    # the "rederived" x_next = (E_p/f_c)/(1 - (1 + phi)**-0.6) followed by the
    # branch force there, q = 1 - exp(-sigma*x_next/f_c), in 400 significant
    # digits: enough that 1 + phi keeps every digit of phi = 1e-100
    ctx = Context(prec=400)
    one = ctx.create_decimal(1)
    d_phi = ctx.create_decimal(phi)
    log1p = ctx.ln(ctx.add(one, d_phi))
    e_p = ctx.subtract(d_phi, log1p)  # E_p in units of f_c**2/sigma
    denom = ctx.subtract(one, ctx.exp(ctx.multiply(ctx.create_decimal("-0.6"), log1p)))
    ref = float(ctx.subtract(one, ctx.exp(ctx.minus(ctx.divide(e_p, denom)))))
    q = reversal_chain(-phi, 2, P1, mode="approx")[1][1]
    assert q == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("form", ["printed", "rederived"])
@pytest.mark.parametrize("ratio", [1.0, 10.0, 1000.0])
@pytest.mark.parametrize("phi", [1.0, 0.5, 1e-3, 1e-10, 1e-100])
def test_approx_predictor_matches_decimal_reference(phi, ratio, form):
    # x_next = (f_c/sigma)*(phi - log1p(phi))/(1 - k*(1 + phi)**-0.6), with
    # k = f_c/sigma ("printed") or 1 ("rederived"), in 400 significant digits
    ctx = Context(prec=400)
    one = ctx.create_decimal(1)
    d_phi = ctx.create_decimal(phi)
    x_scale = ctx.divide(one, ctx.create_decimal(ratio))
    k = x_scale if form == "printed" else one
    log1p = ctx.ln(ctx.add(one, d_phi))
    slope = ctx.exp(ctx.multiply(ctx.create_decimal("-0.6"), log1p))
    denom = ctx.subtract(one, ctx.multiply(k, slope))
    ref = float(ctx.divide(ctx.multiply(x_scale, ctx.subtract(d_phi, log1p)), denom))
    x = next_reversal_approx(-phi, FrictionParams(1.0, ratio), form=form)
    assert x == pytest.approx(ref, rel=1e-12, abs=0.0)


@given(
    phi=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    ratio=st.sampled_from([0.5, 1.0, 10.0, 1000.0]),
)
@example(phi=5e-324, ratio=1.0)
@example(phi=1e-100, ratio=0.5)
def test_rederived_approx_never_degenerates(phi, ratio):
    # its denominator 1 - (1 + phi)**-0.6 is positive for every phi in (0, 1]
    x = next_reversal_approx(-phi, FrictionParams(1.0, ratio), form="rederived")
    assert 0.0 <= x < math.inf


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_chain_decays_strictly_from_saturation(mode):
    _, f_n, _, e_p, _ = reversal_chain(-1.0, 2000, FrictionParams(1.0, 10.0), mode)
    assert all(abs(b) < abs(a) for a, b in zip(f_n, f_n[1:]))
    assert all(b < a for a, b in zip(e_p, e_p[1:]))


def test_chain_validation():
    with pytest.raises(DomainError):
        reversal_chain(0.0, 3, P1)
    with pytest.raises(DomainError):
        reversal_chain(-0.5, 0, P1)
    with pytest.raises(DomainError):
        reversal_chain(-0.5, 3, P1, mode="magic")


def test_halley_stall_raises_convergence_error(monkeypatch):
    # no iteration allowed: every ratio the Halley loop has to solve stalls
    monkeypatch.setattr(reversal, "_HALLEY_MAX_ITER", 0)
    with pytest.raises(ConvergenceError, match=r"stalled at phi=0\.5$"):
        reversal_chain(-0.5, 3, P1)
    with pytest.raises(ConvergenceError, match=r"stalled at phi=0\.5$"):
        next_reversal_exact(-0.5, P1)
    # below phi = 1e-6 the start value is the root, and no iteration runs
    assert len(reversal_chain(-1e-7, 3, P1)[1]) == 3


def test_chain_csv_roundtrip(tmp_path):
    chain = reversal_chain(-1.0, 5, P1)
    path = tmp_path / "chain.csv"
    data, n = encode_csv(CHAIN_HEADER, [chain])
    path.write_bytes(data)
    assert n == 5
    lines = path.read_text().splitlines()
    assert lines[0] == "n,F_n,x_n,E_p,E_d"
    assert len(lines) == 6
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert back["E_p"][0] == pytest.approx(chain[3][0], rel=1e-16)
    # the benchmark's tracer counts a chain's rows with len of its columns, and
    # a fig6 table's segments with len: one segment of the chain's columns per ratio
    runs = [("", r, FrictionParams(1.0, r)) for r in (1.0, 1000.0)]
    chain, segments = reversal_chain(-1.0, 300, P1), fig6_table(runs, -1.0, 300, "exact")[1]
    assert (type(chain), len(chain[0])) == (list, 300)
    assert (type(segments), len(segments)) == (list, 2)
    assert [(segment[0], type(segment[1]), len(segment[1])) for segment in segments] == [
        (1.0, list, 300), (1000.0, list, 300)]
