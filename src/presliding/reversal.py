"""Closed-form calculus of motion reversals for the Dahl map (gamma == 1).

Everything here is derived for the ascending branch (positive velocity)
in the frame whose origin is the force zero crossing; descending
half-cycles are obtained by mirroring (f -> -f, x -> -x), which the
branch map permits because it is odd-symmetric under that flip.

The central objects are:

- the branch geometry: ``reversal_coordinate`` places a reversal with
  force f_i relative to the zero crossing;
- the energy: ``potential_energy`` is the recoverable energy of a reversal
  state, largest at the saturated reversal f_i = -f_c, where it is
  (1 - ln 2)*f_c^2/sigma;
- the next-reversal predictors: ``next_reversal_exact`` evaluates the
  closed-form root of the energy balance, ``next_reversal_approx`` uses
  the linearized decay factor (two published variants, see below);
- ``reversal_chain`` iterates the half-cycle recursion into the full
  sequence of decaying half-cycle energies.

With phi = |f_i|/f_c, the energy balance of a half-cycle reduces to the
stiffness-free map phi -> q of the next force ratio,
(1 - q)*exp(q) = (1 + phi)*exp(-phi), whose root is the principal
Lambert W branch q = 1 + W0(-(1 + phi)*exp(-(1 + phi))) (Corless et al.,
"On the Lambert W function", Adv. Comput. Math. 5, 1996). It is evaluated
in its log form log1p(-q) + q = log1p(phi) - phi: W0 itself loses about
eps/phi**2 of relative precision near its branch point -1/e, which the
log form avoids. sigma and f_c only scale displacements and energies, so
the sequence of reversal force ratios does not depend on sigma at all.

The linearized predictor x = (f_c/sigma)*(phi - log1p(phi))/D has two
published variants that differ only in the k of its denominator
D = 1 - k*(1 + phi)**-0.6: k = f_c/sigma as printed, k = 1 as rederived.
The source material is internally inconsistent about which is meant, so
the validation suite measures both against the exact root. D is evaluated
as (1 - k) - k*expm1(-0.6*log1p(phi)), which keeps its digits at small
phi. The "rederived" prediction, followed by the branch force there, is a
sigma-free map too: q = -expm1(E/D) with E = log1p(phi) - phi and k = 1.
"""

from __future__ import annotations

import math
from itertools import pairwise
from typing import Literal

from .errors import ConvergenceError, DomainError
from .hysteresis import FrictionParams

__all__ = [
    "reversal_coordinate",
    "potential_energy",
    "omega",
    "omega_approx",
    "next_reversal_exact",
    "next_reversal_approx",
    "reversal_chain",
]

# exponent of the slope correction in the linearized decay factor; a fixed
# model constant, not a tunable
SLOPE_EXPONENT = 0.6

# below this |t|, log1p(t) - t cancels away more than eps/|t| of its value,
# so it is summed from its Taylor series instead (six terms reach eps)
_SERIES_CUTOFF = 1e-3
_LOG1P_EXCESS_COEFFS = tuple((-1) ** (k + 1) / k for k in range(7, 1, -1))
# a Halley step this small leaves an error of the order of its cube
_HALLEY_STOP = 1e-6
_HALLEY_MAX_ITER = 8


def _phi(f_i: float, p: FrictionParams, allow_zero: bool = False) -> float:
    """phi = |f_i|/f_c of a reversal force f_i in [-f_c, 0), or [-f_c, 0] with allow_zero."""
    p.require_gamma_one()
    hi_ok = (f_i <= 0.0) if allow_zero else (f_i < 0.0)
    if not (-p.f_c <= f_i and hi_ok):
        upper = "0]" if allow_zero else "0)"
        raise DomainError(
            f"reversal force f_i={f_i} outside admissible range [-f_c, {upper} "
            f"with f_c={p.f_c}"
        )
    return -f_i / p.f_c


def _slope_log(phi: float) -> float:
    # ln of the slope correction (f_c/(f_c - f_i))**0.6 = (1 + phi)**-0.6, stable for phi near 0
    return SLOPE_EXPONENT * -math.log1p(phi)


def _approx_denom(phi: float, k: float) -> float:
    # D = 1 - k*(1 + phi)**-0.6 of the linearized predictor, without cancellation near phi = 0
    return (1.0 - k) - k * math.expm1(_slope_log(phi))


def _log1p_excess(t: float) -> float:
    """log1p(t) - t for t > -1, with full relative precision near t = 0."""
    if abs(t) < _SERIES_CUTOFF:
        s = 0.0
        for c in _LOG1P_EXCESS_COEFFS:
            s = s * t + c
        return t * t * s
    return math.log1p(t) - t


def _branch_x(s: float, x_scale: float) -> float:
    # zero-crossing-frame displacement where the ascending branch
    # f(x) = f_c*(1 - exp(-x/x_scale)) carries the force s*f_c; x_scale = f_c/sigma
    return -x_scale * math.log1p(-s)


def _energy(phi: float, e_scale: float) -> float:
    # recoverable energy of a reversal with force ratio phi = |f_i|/f_c; e_scale from _scales
    return e_scale * -_log1p_excess(phi)


def _scales(p: FrictionParams) -> tuple[float, float]:
    # the closed forms' length scale f_c/sigma and energy scale f_c^2/sigma, the latter
    # formed as f_c*(f_c/sigma): the square of f_c alone may overflow or underflow
    x_scale = p.f_c / p.sigma
    return x_scale, p.f_c * x_scale


def _exact_ratio(phi: float, excess: float) -> float:
    """Next force ratio q of the exact map from phi, with excess = _log1p_excess(phi).

    phi = |f_i|/f_c is in (0, 1]. It solves log1p(-q) + q =
    log1p(phi) - phi, the log form of q = 1 + W0(-(1 + phi)*exp(-(1 + phi))),
    by Halley's method. The start phi/(1 + 2*phi/3) is the [1/1] Pade form
    of the small-phi series q = phi - 2*phi**2/3 + 4*phi**3/9 - ...; it is
    within 1% of the root on the whole domain, and within 4*phi**3/135
    relative of it, so below phi = 1e-6 it is already the root to rounding
    (and Halley's step would underflow for phi below ~1e-154): within 1 ulp
    of an 80-digit root at phi from 2e-6 down to 1e-300 (worst 0.95 ulp, at
    1e-8). At phi <= 1.5e-16 it rounds to phi itself, at most 0.61 ulp above
    the root and, below about 1.36e-16, the root's nearest double; so a
    chain's constant tail there is rounding, not a stall. Just above
    _SERIES_CUTOFF, log1p(t) - t cancels: the worst of 4,000 log-uniform
    samples on [6e-4, 0.1] is about 1.8e-13 relative, near phi = 1.1e-3.
    """
    q = phi / (1.0 + phi * (2.0 / 3.0))
    if phi >= 1e-6:
        for _ in range(_HALLEY_MAX_ITER):
            # h(q) = log1p(-q) + q - excess has h' = -q/(1-q) and h'' = -1/(1-q)**2
            h = _log1p_excess(-q) - excess
            step = 2.0 * q * (1.0 - q) * h / (2.0 * q * q + h)
            q += step
            if abs(step) <= _HALLEY_STOP * q:
                break
        else:
            raise ConvergenceError("Halley iteration for the next force ratio stalled at "
                                   f"phi={phi}")
    return q


def _approx_ratio(phi: float, excess: float) -> float:
    # next force ratio of the "rederived" map; a phi that has underflowed to 0 stays 0
    return -math.expm1(excess / _approx_denom(phi, 1.0)) if phi > 0.0 else phi


def reversal_coordinate(f_i: float, p: FrictionParams) -> float:
    """Reversal displacement in the frame with the force zero crossing at 0.

    x_i = (f_c/sigma) * ln(f_c / (f_c - f_i)) < 0 for admissible f_i in
    [-f_c, 0).
    """
    return _branch_x(-_phi(f_i, p), _scales(p)[0])


def potential_energy(f_i: float, p: FrictionParams) -> float:
    """Recoverable potential energy of a reversal with force f_i in [-f_c, 0].

    E_p = (f_c^2/sigma) * (ln(f_c/(f_c - f_i)) - f_i/f_c) >= 0, zero only
    at f_i = 0. This also equals the peak kinetic energy of the following
    half-cycle, attained at the force zero crossing.
    """
    return _energy(_phi(f_i, p, allow_zero=True), _scales(p)[1])


def omega(x: float, p: FrictionParams) -> float:
    """Exponential decay factor of the ascending branch: exp(-(sigma/f_c)*x)."""
    return math.exp(-(p.sigma / p.f_c) * x)


def omega_approx(f_i: float, p: FrictionParams) -> float:
    """Slope K of the linearized decay factor 1 - K*x, anchored at 1 at x = 0.

    K = (sigma/f_c) * (f_c/(f_c - f_i))**0.6 folds in the reversal state
    so the chord stays close to the exponential over the upcoming
    half-cycle.
    """
    return math.exp(_slope_log(_phi(f_i, p))) * (p.sigma / p.f_c)


def next_reversal_exact(f_i: float, p: FrictionParams) -> float:
    """Next reversal displacement from the energy balance, in closed form.

    Returns the unique x > 0 (zero-crossing frame) where the work absorbed
    by the ascending branch equals the potential energy released since the
    last reversal: f_c*x + (f_c^2/sigma)*(exp(-(sigma/f_c)*x) - 1) ==
    potential_energy(f_i). The branch reaches that point with force q*f_c,
    where q is the Lambert W root of the module docstring, so
    x = -(f_c/sigma)*ln(1 - q).
    """
    phi = _phi(f_i, p)
    return _branch_x(_exact_ratio(phi, _log1p_excess(phi)), _scales(p)[0])


def next_reversal_approx(
    f_i: float, p: FrictionParams, *, form: Literal["printed", "rederived"]
) -> float:
    """Next reversal displacement from the linearized energy balance.

    Substituting the linear decay factor into the energy balance makes it
    explicitly solvable: x = (E_p/f_c) / (1 - k*(f_c/(f_c-f_i))**0.6), with
    k = f_c/sigma as published ("printed") or k = 1, what the substitution
    of the linear slope actually yields ("rederived"). Both forms take the
    one evaluation of D in the module docstring, so they agree exactly at
    sigma == f_c. Neither is endorsed here; the validation suite quantifies
    both against next_reversal_exact. Raises on a non-positive denominator,
    which only "printed" reaches (once sigma/f_c drops below the slope
    correction).
    """
    phi = _phi(f_i, p)
    if form not in ("printed", "rederived"):
        raise DomainError(f"unknown approximation form {form!r}")
    x_scale = _scales(p)[0]
    denom = _approx_denom(phi, x_scale if form == "printed" else 1.0)
    if denom <= 0.0:
        raise DomainError(
            f"degenerate denominator {denom} for form={form!r}, f_i={f_i}, "
            f"sigma/f_c={p.ratio}"
        )
    return x_scale * (-_log1p_excess(phi) / denom)


def reversal_chain(
    f_0: float, n_steps: int, p: FrictionParams, mode: Literal["exact", "approx"] = "exact"
) -> list[list]:
    """Iterate the half-cycle recursion from a seed reversal force f_0 < 0.

    Each step maps phi = |f_n|/f_c to the next ratio by a sigma-free map of
    the module docstring: the exact root, or the "rederived" one in "approx"
    mode. Sign mirroring handles descending half-cycles, so F_n and the
    coordinates x_n (zero-crossing frame) alternate sign while |F_n| decays,
    strictly until a step leaves phi as it is (exact: at phi <= 1.5e-16, within
    0.61 ulp of the root, see _exact_ratio; approx: once phi underflows to 0).

    Returns the columns [n, F_n, x_n, E_p, E_d] of reversals n = 0 ..
    n_steps-1, one list each: E_p is the recoverable energy at reversal n
    and E_d the energy dissipated on the half-cycle after it (the last uses
    one extra prediction). Partial sums of E_d telescope to E_p(0) - E_p(n_steps).
    """
    phi = _phi(f_0, p)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if mode not in ("exact", "approx"):
        raise DomainError(f"unknown chain mode {mode!r}")
    next_ratio = _exact_ratio if mode == "exact" else _approx_ratio
    phis, excesses = [phi], [_log1p_excess(phi)]
    for _ in range(n_steps):
        phi = next_ratio(phi, excesses[-1])
        phis.append(phi)
        excesses.append(_log1p_excess(phi))
    # F_n is phi_n*f_c after a negative F_{n-1} and -phi_n*f_c otherwise; x_n has F_n's sign
    f_c, (x_scale, e_scale) = p.f_c, _scales(p)
    f = f_0  # the previous force
    f_n = [f_0] + [(f := phi * f_c if f < 0.0 else -phi * f_c) for phi in phis[1:-1]]
    x_n = [(-x_scale if fn < 0.0 else x_scale) * math.log1p(phi) for phi, fn in zip(phis, f_n)]
    e_p = [e_scale * -excess for excess in excesses]
    e_d = [a - b for a, b in pairwise(e_p)]
    del e_p[-1]
    return [list(range(len(f_n))), f_n, x_n, e_p, e_d]
