"""Reference routes the tests check the simulator against."""

import ast
import inspect
from dataclasses import replace

import numpy as np

from presliding import DomainError, simulate


def package_imports(module) -> set[str]:
    """Names of the presliding modules that module's source imports."""
    internal = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            internal.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("presliding"):
            internal.add(node.module.removeprefix("presliding."))
        elif isinstance(node, ast.Import):
            internal.update(
                a.name.removeprefix("presliding.")
                for a in node.names
                if a.name.startswith("presliding")
            )
    return internal


def reference_integrate(cfg, refinement: int):
    """Re-run a simulation with the step size divided by `refinement`.

    The returned fine trajectory acts as the convergence oracle for the
    fixed-step integrator (a 4th-order method shrinks its global error by
    ~refinement**4). refinement must be >= 2.
    """
    if refinement < 2:
        raise DomainError(f"refinement must be >= 2, got {refinement}")
    return simulate(replace(cfg, dt=cfg.effective_dt() / refinement))


def peak_velocity_between_reversals(traj, i: int) -> tuple[float, float]:
    """Sample-level maximizer of |v| between reversals i and i+1.

    Returns (t_0, v_peak) with v_peak signed. The restoring force vanishes
    there (peak speed coincides with the force zero crossing), which the
    caller can verify against |f| at t_0.
    """
    if i < 0 or i + 1 >= len(traj.reversals):
        raise IndexError(
            f"need reversal records {i} and {i + 1}, have {len(traj.reversals)}"
        )
    t, v = np.asarray(traj.t), np.asarray(traj.v)
    t_lo = traj.reversals[i].t_i
    t_hi = traj.reversals[i + 1].t_i
    idx = np.nonzero((t >= t_lo) & (t <= t_hi))[0]
    k = idx[np.argmax(np.abs(v[idx]))]
    return float(t[k]), float(v[k])
