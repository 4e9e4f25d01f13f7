"""Closed-form calculus of motion reversals for the Dahl map (gamma == 1).

Everything here is derived for the ascending branch (positive velocity)
in the frame whose origin is the force zero crossing; descending
half-cycles are obtained by mirroring (f -> -f, x -> -x), which the
branch map permits because it is odd-symmetric under that flip.

The central objects are:

- the branch geometry: ``reversal_coordinate`` places a reversal with
  force f_i relative to the zero crossing;
- the energies: ``energy_antiderivative`` accumulates restoring-force work
  along the branch and ``potential_energy`` is the recoverable energy of a
  reversal state, largest at the saturated reversal f_i = -f_c, where it is
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

The linearized predictor exists in two algebraic variants that disagree
by a stiffness-ratio factor inside the denominator; the source material
is internally inconsistent about which is meant. Both are implemented
("printed" and "rederived") and the validation suite measures each
against the exact root instead of guessing.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple

from .errors import ConvergenceError, DomainError
from .hysteresis import FrictionParams

__all__ = [
    "ReversalChainEntry",
    "reversal_coordinate",
    "energy_antiderivative",
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


class ReversalChainEntry(NamedTuple):
    """One reversal of the recursive half-cycle chain.

    n    step index (0 is the seed reversal).
    f_n  signed restoring force at reversal n; alternates sign.
    x_n  reversal coordinate in the frame of the branch leaving reversal n
         (force zero crossing at the origin); mirrors sign with f_n.
    e_p  recoverable potential energy at reversal n.
    e_d  energy dissipated on the half-cycle from reversal n to n+1.
    """

    n: int
    f_n: float
    x_n: float
    e_p: float
    e_d: float


def _check_reversal_force(f_i: float, p: FrictionParams, allow_zero: bool = False) -> None:
    hi_ok = (f_i <= 0.0) if allow_zero else (f_i < 0.0)
    if not (-p.f_c <= f_i and hi_ok):
        upper = "0]" if allow_zero else "0)"
        raise DomainError(
            f"reversal force f_i={f_i} outside admissible range [-f_c, {upper} "
            f"with f_c={p.f_c}"
        )


def _slope_correction(f_i: float, p: FrictionParams) -> float:
    # (f_c/(f_c - f_i))**0.6, with ln(f_c/(f_c - f_i)) evaluated stably for f_i near 0
    return math.exp(SLOPE_EXPONENT * -math.log1p(-f_i / p.f_c))


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
    # recoverable energy of a reversal with force ratio phi = |f_i|/f_c; e_scale = f_c**2/sigma
    return e_scale * -_log1p_excess(phi)


def _next_force_ratio(phi: float, rhs: float) -> float:
    """Next reversal force ratio q from phi = |f_i|/f_c in (0, 1].

    rhs is _log1p_excess(phi), which the caller has at hand for E_p.
    Solves log1p(-q) + q = log1p(phi) - phi, the log form of
    q = 1 + W0(-(1 + phi)*exp(-(1 + phi))), by Halley's method. The start
    phi/(1 + 2*phi/3) is the [1/1] Pade form of the small-phi series
    q = phi - 2*phi**2/3 + 4*phi**3/9 - ...; it is within 1% of the root
    on the whole domain, and within 4*phi**3/135 relative of it, so below
    phi = 1e-6 it is already the root to rounding (and Halley's step would
    underflow for phi below ~1e-154).
    """
    q = phi / (1.0 + phi * (2.0 / 3.0))
    if phi < 1e-6:
        return q
    for _ in range(_HALLEY_MAX_ITER):
        # h(q) = log1p(-q) + q - rhs has h' = -q/(1-q) and h'' = -1/(1-q)**2
        h = _log1p_excess(-q) - rhs
        step = 2.0 * q * (1.0 - q) * h / (2.0 * q * q + h)
        q += step
        if abs(step) <= _HALLEY_STOP * q:
            return q
    raise ConvergenceError(f"Halley iteration for the next force ratio stalled at phi={phi}")


def reversal_coordinate(f_i: float, p: FrictionParams) -> float:
    """Reversal displacement in the frame with the force zero crossing at 0.

    x_i = (f_c/sigma) * ln(f_c / (f_c - f_i)) < 0 for admissible f_i in
    [-f_c, 0).
    """
    p.require_gamma_one()
    _check_reversal_force(f_i, p)
    return _branch_x(f_i / p.f_c, p.f_c / p.sigma)


def energy_antiderivative(x: float, p: FrictionParams) -> float:
    """Restoring-force work accumulated along the ascending branch.

    In the zero-crossing frame the branch is f(x) = f_c*(1 - exp(-(sigma/f_c)*x))
    and its antiderivative, anchored to 0 at the origin, is
    f_c*x + (f_c^2/sigma)*(exp(-(sigma/f_c)*x) - 1). Evaluated with expm1 so
    the quadratic small-x behavior keeps full relative precision.
    """
    p.require_gamma_one()
    scale = p.f_c / p.sigma
    return p.f_c * x + p.f_c * scale * math.expm1(-x / scale)


def potential_energy(f_i: float, p: FrictionParams) -> float:
    """Recoverable potential energy of a reversal with force f_i in [-f_c, 0].

    E_p = (f_c^2/sigma) * (ln(f_c/(f_c - f_i)) - f_i/f_c) >= 0, zero only
    at f_i = 0. This also equals the peak kinetic energy of the following
    half-cycle, attained at the force zero crossing.
    """
    p.require_gamma_one()
    _check_reversal_force(f_i, p, allow_zero=True)
    return _energy(-f_i / p.f_c, p.f_c**2 / p.sigma)


def omega(x: float, p: FrictionParams) -> float:
    """Exponential decay factor of the ascending branch: exp(-(sigma/f_c)*x)."""
    return math.exp(-(p.sigma / p.f_c) * x)


def omega_approx(f_i: float, p: FrictionParams) -> float:
    """Slope K of the linearized decay factor 1 - K*x, anchored at 1 at x = 0.

    K = (sigma/f_c) * (f_c/(f_c - f_i))**0.6 folds in the reversal state
    so the chord stays close to the exponential over the upcoming
    half-cycle.
    """
    p.require_gamma_one()
    _check_reversal_force(f_i, p)
    return (p.sigma / p.f_c) * _slope_correction(f_i, p)


def next_reversal_exact(f_i: float, p: FrictionParams) -> float:
    """Next reversal displacement from the energy balance, in closed form.

    Returns the unique x > 0 (zero-crossing frame) where the work absorbed
    by the ascending branch equals the potential energy released since the
    last reversal: energy_antiderivative(x) == potential_energy(f_i). The
    branch reaches that point with force q*f_c, where q is the Lambert W
    root of the module docstring, so x = -(f_c/sigma)*ln(1 - q).
    """
    p.require_gamma_one()
    _check_reversal_force(f_i, p)
    phi = -f_i / p.f_c
    return _branch_x(_next_force_ratio(phi, _log1p_excess(phi)), p.f_c / p.sigma)


def next_reversal_approx(
    f_i: float, p: FrictionParams, *, form: Literal["printed", "rederived"]
) -> float:
    """Next reversal displacement from the linearized energy balance.

    Substituting the linear decay factor into the energy balance makes it
    explicitly solvable. Two variants are shipped:

    - "printed": x = (E_p/f_c) / (1 - (f_c/sigma)*(f_c/(f_c-f_i))**0.6),
      the formula as published;
    - "rederived": x = (E_p/f_c) / (1 - (f_c/(f_c-f_i))**0.6), what the
      substitution of the linear slope actually yields.

    The two agree only at sigma == f_c. Neither is endorsed here; the
    validation suite quantifies both against next_reversal_exact. Raises
    on a non-positive denominator ("printed" degenerates once
    sigma/f_c drops below the slope correction).
    """
    p.require_gamma_one()
    _check_reversal_force(f_i, p)
    e_p = _energy(-f_i / p.f_c, p.f_c**2 / p.sigma)
    correction = _slope_correction(f_i, p)
    if form == "printed":
        denom = 1.0 - (p.f_c / p.sigma) * correction
    elif form == "rederived":
        denom = 1.0 - correction
    else:
        raise DomainError(f"unknown approximation form {form!r}")
    if denom <= 0.0:
        raise DomainError(
            f"degenerate denominator {denom} for form={form!r}, f_i={f_i}, "
            f"sigma/f_c={p.ratio}"
        )
    return (e_p / p.f_c) / denom


def reversal_chain(
    f_0: float,
    n_steps: int,
    p: FrictionParams,
    mode: Literal["exact", "approx"] = "exact",
) -> list[ReversalChainEntry]:
    """Iterate the half-cycle recursion from a seed reversal force f_0 < 0.

    Each step maps the current reversal force ratio phi = |f_n|/f_c to the
    next one: in "exact" mode by the closed-form map of the module
    docstring, which does not involve sigma, in "approx" mode through the
    "rederived" linearized predictor and the branch force there. Descending
    half-cycles are handled by sign mirroring, so recorded forces
    alternate sign while their magnitudes decay strictly.

    Returns n_steps fully populated entries (n = 0 .. n_steps-1); the
    dissipated energy of the last entry uses one extra prediction beyond
    it. Partial sums of e_d telescope to e_p(0) - e_p(n_steps).
    """
    p.require_gamma_one()
    _check_reversal_force(f_0, p)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if mode not in ("exact", "approx"):
        raise DomainError(f"unknown chain mode {mode!r}")

    f_c = p.f_c
    x_scale = f_c / p.sigma
    e_scale = f_c**2 / p.sigma
    entries: list[ReversalChainEntry] = []
    f_n = f_0
    phi = -f_0 / f_c
    excess = _log1p_excess(phi)  # E_p = e_scale * -excess, as in _energy
    e_p = e_scale * -excess
    for n in range(n_steps):
        if mode == "exact":
            phi_next = _next_force_ratio(phi, excess)
        else:
            f_up = -phi * f_c  # ascending-frame force of this half-cycle
            x_next = next_reversal_approx(f_up, p, form="rederived")
            x_up = _branch_x(f_up / f_c, x_scale)  # ascending-frame reversal coordinate
            phi_next = (f_c - (f_c - f_up) * omega(x_next - x_up, p)) / f_c
        excess = _log1p_excess(phi_next)
        e_p_next = e_scale * -excess
        x_n = _branch_x(-phi, x_scale)
        entries.append(ReversalChainEntry(n, f_n, x_n if f_n < 0.0 else -x_n, e_p, e_p - e_p_next))
        phi, e_p = phi_next, e_p_next
        f_n = phi * f_c if f_n < 0.0 else -phi * f_c
    return entries

