"""Independent brute-force numerical kernels.

Adaptive quadrature, bracketed bisection and central finite differences.
These are the certification tools for every closed-form result in the
package: they deliberately share no code with the analytic branch/energy
formulas, so agreement between the two routes is evidence rather than
tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadResult",
    "integrate",
    "find_root",
    "derivative",
]

_MAX_DEPTH = 50


@dataclass(frozen=True)
class QuadResult:
    """Adaptive quadrature outcome: the value and the number of calls of the integrand."""

    value: float
    evaluations: int


def integrate(f: Callable[[float], float], a: float, b: float, rel_tol: float = 1e-10) -> QuadResult:
    """Adaptive Simpson quadrature of f over [a, b].

    Recursion depth is capped at 50; exceeding it raises ConvergenceError.
    On smooth integrands the result satisfies
    |value - truth| <= rel_tol*|value| + 1e-15. Simpson's rule is exact on
    cubics per panel, so polynomial integrands terminate immediately.
    evaluations counts the calls of f: 3, plus 2 per refinement (0 on an
    empty interval, where f is not called).
    """
    if a > b:
        raise DomainError(f"integration bounds reversed: a={a} > b={b}")
    if a == b:
        return QuadResult(0.0, 0)

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = rel_tol * abs(whole) + 1e-15
    refinements = 0

    def recurse(lo, mid, hi, flo, fmid, fhi, s, eps_local, depth):
        nonlocal refinements
        refinements += 1
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        s_left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        s_right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        s2 = s_left + s_right
        if abs(s2 - s) <= 15.0 * eps_local:
            return s2 + (s2 - s) / 15.0
        if depth <= 0:
            raise ConvergenceError(
                f"adaptive Simpson exceeded depth cap {_MAX_DEPTH} on "
                f"[{lo}, {hi}]"
            )
        left = recurse(lo, lm, mid, flo, flm, fmid, s_left, 0.5 * eps_local, depth - 1)
        return left + recurse(mid, rm, hi, fmid, frm, fhi, s_right, 0.5 * eps_local, depth - 1)

    value = recurse(a, m, b, fa, fm, fb, whole, eps, _MAX_DEPTH)
    return QuadResult(value, 3 + 2 * refinements)


def find_root(f: Callable[[float], float], a: float, b: float, tol: float = 1e-12) -> float:
    """Bisection root of f on [a, b]; requires a sign change on the bracket.

    Bisects until the bracket width drops below tol and returns the
    midpoint.
    """
    if a > b:
        raise DomainError(f"bracket reversed: a={a} > b={b}")
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise DomainError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    while (b - a) >= tol:
        m = 0.5 * (a + b)
        if m == a or m == b:
            break  # bracket at floating-point resolution
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def derivative(f: Callable[[float], float], x: float) -> float:
    """Central finite difference (f(x+h) - f(x-h)) / (2h).

    The step h = max(1e-6, 1e-6*|x|) balances truncation against rounding
    for double precision.
    """
    h = max(1e-6, 1e-6 * abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)

