"""Exception types shared across the package."""

__all__ = ["DomainError", "StepRejectionError", "ConvergenceError", "ConfigError"]


class DomainError(ValueError):
    """An argument lies outside the admissible domain of an operation."""


class StepRejectionError(RuntimeError):
    """The friction force escaped the admissible band during a step.

    Signals that the integration step is too large for the current
    stiffness-to-friction ratio.
    """


class ConvergenceError(RuntimeError):
    """An iterative kernel (quadrature, bisection) failed to converge."""


class ConfigError(ValueError):
    """An experiment configuration is missing fields or violates invariants."""
