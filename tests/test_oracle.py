"""Tests of the brute-force numerical kernels."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from presliding.errors import ConvergenceError, DomainError
from presliding.hysteresis import FrictionParams
from presliding.oracle import derivative, find_root, integrate
from presliding.oscillator import SimConfig

from helpers import branch_work, reference_integrate


def test_integrate_linear():
    res = integrate(lambda x: x, 0.0, 1.0)
    assert abs(res.value - 0.5) < 1e-14
    assert res.evaluations >= 3


def test_integrate_exponential():
    res = integrate(lambda x: math.exp(-x), 0.0, 1.0, rel_tol=1e-12)
    assert abs(res.value - (1.0 - math.exp(-1.0))) < 1e-12


def test_integrate_empty_interval():
    assert integrate(lambda x: x**2, 2.0, 2.0).value == 0.0


@pytest.mark.parametrize(
    "f, a, b, expected",
    [
        (math.exp, 0.0, 10.0, 2185),  # 3, plus 2 per refinement
        (lambda x: 1.0 - 2.0 * x + 0.5 * x**3, -1.0, 2.0, 5),  # exact at once
        (lambda x: x**2, 2.0, 2.0, 0),  # empty interval: f is never called
    ],
)
def test_integrate_evaluations_count_calls_of_f(f, a, b, expected):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    res = integrate(counted, a, b, rel_tol=1e-12)
    assert res.evaluations == calls == expected


def test_integrate_reversed_bounds_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)


def test_integrate_depth_cap_on_discontinuity():
    with pytest.raises(ConvergenceError):
        integrate(lambda x: 1.0 if x > 1.0 / 3.0 else -1.0, 0.0, 1.0, rel_tol=1e-15)


coeff = st.floats(-5.0, 5.0, allow_nan=False)


@given(coeff, coeff, coeff, coeff)
def test_integrate_exact_on_cubics(a, b, c, d):
    # Simpson integrates cubics exactly per panel, so the very first
    # refinement already agrees and the adaptive pass terminates
    res = integrate(lambda x: a + b * x + c * x**2 + d * x**3, -1.0, 2.0, rel_tol=1e-12)
    exact = (
        a * 3.0
        + b / 2.0 * (4.0 - 1.0)
        + c / 3.0 * (8.0 + 1.0)
        + d / 4.0 * (16.0 - 1.0)
    )
    assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))


def test_find_root_linear():
    assert abs(find_root(lambda x: x - 1.0, 0.0, 2.0, tol=1e-12) - 1.0) < 1e-12


def test_find_root_energy_balance_form():
    # root of x + exp(-x) - 1 = 1 - ln 2, the saturated-reversal energy
    # balance at f_c = sigma = 1; regression value cross-checks the
    # closed-form predictor's own bisection
    target = 1.0 - math.log(2.0)
    root = find_root(lambda x: x + math.exp(-x) - 1.0 - target, 0.0, 4.0, tol=1e-13)
    assert abs(root - 0.9004770794799697) < 1e-10


def test_find_root_width_contract():
    f = lambda x: math.cos(x)
    root = find_root(f, 1.0, 2.0, tol=1e-10)
    assert abs(root - math.pi / 2.0) < 1e-10


def test_find_root_requires_sign_change():
    with pytest.raises(DomainError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_find_root_endpoint_zero():
    assert find_root(lambda x: x, 0.0, 1.0) == 0.0
    assert find_root(lambda x: x, -1.0, 0.0) == 0.0


def test_find_root_rejects_a_reversed_bracket():
    with pytest.raises(DomainError, match="bracket reversed"):
        find_root(lambda x: x, 1.0, -1.0)


def test_derivative_quadratic():
    assert abs(derivative(lambda x: x * x, 3.0) - 6.0) < 1e-8


@given(st.floats(-3.0, 3.0, allow_nan=False))
def test_derivative_linearity(alpha):
    f = lambda x: math.sin(x)
    d1 = derivative(lambda x: alpha * f(x), 0.7)
    d2 = alpha * derivative(f, 0.7)
    # the 1e-6 step divides out rounding noise of order eps/h
    assert abs(d1 - d2) < 1e-8 * max(1.0, abs(alpha))


def test_derivative_of_branch_energy():
    # slope of the accumulated branch work is the branch force itself:
    # f_c*(1 - exp(-x)) = 0.5 at x = ln 2 for f_c = sigma = 1
    p = FrictionParams(f_c=1.0, sigma=1.0)
    slope = derivative(lambda x: branch_work(x, p), math.log(2.0))
    assert abs(slope - 0.5) < 1e-9


def test_reference_integrate_rejects_refinement_one():
    cfg = SimConfig(params=FrictionParams(1.0, 1.0), x0=0.0, v0=1.0, dt=0.01, t_max=0.1)
    with pytest.raises(DomainError):
        reference_integrate(cfg, 1)

