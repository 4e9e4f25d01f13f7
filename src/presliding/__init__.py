"""Pre-sliding friction hysteresis: Dahl oscillator, reversal energy calculus,
decay-cycle prediction, and the brute-force oracles that certify them."""

from .errors import ConfigError, ConvergenceError, DomainError, StepRejectionError
from .hysteresis import (
    BranchState,
    FrictionParams,
    dahl_branch,
    dahl_rate,
    loop_dissipation,
    reverse_branch,
    stop_spring,
)
from .oracle import derivative, find_root, integrate
from .oscillator import ReversalRecord, SimConfig, Trajectory, simulate
from .reversal import (
    next_reversal_approx,
    next_reversal_exact,
    omega,
    omega_approx,
    potential_energy,
    reversal_chain,
    reversal_coordinate,
)

__version__ = "0.1.0"
