"""Exception types shared across the package."""

__all__ = ["DomainError", "StepRejectionError", "ConvergenceError", "ConfigError"]


class DomainError(ValueError):
    """An argument lies outside the admissible domain of an operation."""


class StepRejectionError(RuntimeError):
    """A simulation step, or the run, cannot go on.

    Raised when the friction force leaves the admissible band inside a
    step or at its end (the message names the settings to change), when
    two reversals fall inside one step, and when a run exhausts its step
    budget (oscillator.MAX_STEPS) before it stops.
    """


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to converge: adaptive quadrature
    (oracle.integrate), reversal bisection (oscillator.locate_reversal) or the
    Halley iteration for the next force ratio (reversal._exact_ratio)."""


class ConfigError(ValueError):
    """An experiment configuration is missing fields or violates invariants."""
