"""Restoring-force maps with memory.

Two rate-independent force-displacement maps are implemented:

- the Dahl friction model, in its differential form (``dahl_rate``, any
  shape exponent gamma >= 0) and in its algebraic branch form
  (``dahl_branch``, gamma == 1 only), and
- the saturating linear spring (``stop_spring``), the piecewise
  affine stop-type map that serves as the zero-dissipation reference.

A branch map is built once per branch: ``dahl_branch(b, p)`` and
``stop_spring(b, p)``, for one FrictionParams p, check the branch and bind
its constants, and return the force as a function of x alone.

A hysteresis branch is the curve traced after one velocity reversal; it
is fully described by the reversal point, the force there, and the
motion direction (``BranchState``). All values are immutable NamedTuples,
which check their fields in the constructor and in ``_replace``, and all
operations are pure functions.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .errors import DomainError
from .oracle import integrate

__all__ = [
    "FrictionParams",
    "BranchState",
    "dahl_rate",
    "dahl_branch",
    "reverse_branch",
    "stop_spring",
    "loop_dissipation",
]


def _validated(cls):
    """Make cls's constructor run cls._check, and route _make, which _replace
    calls and which would build the tuple unchecked, through the constructor."""
    new, check = cls.__new__, cls._check

    @functools.wraps(new)
    def __new__(klass, *args, **kwargs):
        self = new(klass, *args, **kwargs)
        check(self)
        return self

    cls.__new__, cls._make = __new__, classmethod(lambda klass, fields: klass(*fields))
    return cls


@_validated
class FrictionParams(NamedTuple):
    """Dahl model constants.

    f_c    Coulomb friction level, the saturation magnitude of the force (> 0).
    sigma  rest stiffness, the force-displacement slope at zero force (> 0).
    gamma  dimensionless shape exponent (>= 0). The closed-form branch and
           energy formulas require gamma == 1 exactly; the differential
           form accepts any value.
    mass   oscillating point mass (> 0).
    """

    f_c: float
    sigma: float
    gamma: float = 1.0
    mass: float = 1.0

    def _check(self) -> None:
        if not 0 < self.f_c < math.inf:
            raise DomainError(f"f_c must be finite and > 0, got {self.f_c}")
        if not 0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0 <= self.gamma < math.inf:
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")
        # 2**gamma and sigma*2**gamma must be finite; the larger exponent is named
        log_sigma = math.log2(self.sigma)
        if max(log_sigma, 0.0) + self.gamma >= 1024.0:
            name, value = ("sigma", self.sigma) if log_sigma > self.gamma else ("gamma", self.gamma)
            raise DomainError(f"{name}={value} overflows the peak Dahl slope sigma*2**gamma")
        if not 0 < self.mass < math.inf:
            raise DomainError(f"mass must be finite and > 0, got {self.mass}")

    @property
    def ratio(self) -> float:
        """Stiffness-to-friction ratio sigma/f_c, the shape parameter of decay."""
        return self.sigma / self.f_c

    def require_gamma_one(self) -> None:
        if self.gamma != 1.0:
            raise DomainError(
                f"closed-form branch operations require gamma == 1, got {self.gamma}"
            )


@_validated
class BranchState(NamedTuple):
    """Memory of one hysteresis branch: last reversal point and direction.

    x_rev      displacement of the last reversal.
    f_rev      restoring force at that reversal (|f_rev| <= f_c is checked
               against the governing FrictionParams at use sites).
    direction  sign of velocity on the branch, exactly +1 or -1.
    """

    x_rev: float
    f_rev: float
    direction: int

    def _check(self) -> None:
        if self.direction not in (+1, -1):
            raise DomainError(f"direction must be +1 or -1, got {self.direction}")


def dahl_rate(f: float, v: float, p: FrictionParams) -> float:
    """Force-displacement slope dF/dx of the Dahl model (differential form).

    Returns sigma * (1 - (f/f_c)*sgn(v))**gamma. For v == 0 the force does
    not evolve and the rate is 0. The force must lie inside the admissible
    band |f| <= f_c; outside it the simplified power form is invalid and a
    DomainError is raised (an integrator driving the state there took too
    large a step).
    """
    if v == 0.0:
        return 0.0
    if abs(f) > p.f_c:
        raise DomainError(
            f"|f|={abs(f)} escaped the admissible band f_c={p.f_c}; "
            "integration step too large"
        )
    s = 1.0 if v > 0.0 else -1.0
    # |f| <= f_c makes the rounded |f/f_c| at most 1, so the base is >= 0
    return p.sigma * (1.0 - (f / p.f_c) * s) ** p.gamma


def dahl_branch(b: BranchState, p: FrictionParams) -> Callable[[float], float]:
    """Dahl branch force as a map x -> F (algebraic form, gamma == 1).

    F(x) = d*(f_c - (f_c - d*f_rev)*exp(-d*(sigma/f_c)*(x - x_rev))) with
    d = b.direction. gamma == 1 and |f_rev| <= f_c are checked here, once,
    in that order; the returned map raises for a query behind the reversal
    point (the branch has no physical meaning there) and returns f_rev
    exactly at x == x_rev. The result is bounded, |F| <= f_c, and tends
    monotonically to direction*f_c.
    """
    p.require_gamma_one()
    x_rev, f_rev, direction, f_c = b.x_rev, b.f_rev, b.direction, p.f_c
    if abs(f_rev) > f_c:
        raise DomainError(f"|f_rev|={abs(f_rev)} exceeds f_c={f_c}")
    d = 1.0 if direction > 0 else -1.0
    rate, headroom = -d * (p.sigma / f_c), f_c - d * f_rev

    def force(x: float) -> float:
        if (x - x_rev) * d < 0.0:
            raise DomainError(
                f"x={x} lies behind the reversal point x_rev={x_rev} "
                f"for direction {direction:+d}"
            )
        if x == x_rev:
            return f_rev  # exact pass-through of the initial condition
        return d * (f_c - headroom * math.exp(rate * (x - x_rev)))

    return force


def reverse_branch(b: BranchState, x_new: float, p: FrictionParams) -> BranchState:
    """Branch bookkeeping at a motion reversal.

    Evaluates the current branch at x_new and returns the new branch that
    starts there with flipped direction. Pure; b is unchanged.
    """
    return BranchState(x_new, dahl_branch(b, p)(x_new), -b.direction)


def stop_spring(b: BranchState, p: FrictionParams) -> Callable[[float], float]:
    """Saturating linear spring force with memory as a map x -> F (stop type).

    F(x) = clamp(f_rev + sigma*(x - x_rev), -f_c, +f_c); gamma and mass are
    not read. Inside the band the map is exactly affine, so closed
    unsaturated cycles are conservative.
    """
    x_rev, f_rev, sigma, f_c = b.x_rev, b.f_rev, p.sigma, p.f_c

    def force(x: float) -> float:
        return min(max(f_rev + sigma * (x - x_rev), -f_c), f_c)

    return force


def loop_dissipation(
    b_up: BranchState,
    b_down: BranchState,
    x_lo: float,
    x_hi: float,
    branch: Callable[[BranchState, FrictionParams], Callable[[float], float]],
    params: FrictionParams,
) -> float:
    """Area between an ascending and a descending branch over [x_lo, x_hi].

    Net dissipated energy of one cycle: integral of
    (branch(b_up, params)(x) - branch(b_down, params)(x)) dx, computed by
    adaptive quadrature to relative tolerance 1e-10. For a clockwise
    hysteresis map the ascending branch lies above the descending one and
    the result is >= 0; for the unsaturated linear spring it vanishes.

    branch is dahl_branch or stop_spring; params is the FrictionParams that
    both take. Each branch map is built once, after the bounds are checked.
    """
    if x_lo > x_hi:
        raise DomainError(f"x_lo={x_lo} must not exceed x_hi={x_hi}")
    if x_lo == x_hi:
        return 0.0
    if b_up.direction != +1:
        raise DomainError("b_up must be an ascending branch (direction +1)")
    if b_down.direction != -1:
        raise DomainError("b_down must be a descending branch (direction -1)")
    if b_up.x_rev > x_lo:
        raise DomainError("b_up must ascend from at or below x_lo")
    if b_down.x_rev < x_hi:
        raise DomainError("b_down must descend from at or above x_hi")

    up, down = branch(b_up, params), branch(b_down, params)

    def gap(x: float) -> float:
        return up(x) - down(x)

    return integrate(gap, x_lo, x_hi, rel_tol=1e-10).value
