"""Seeded job generators for the three benchmark workloads.

A job is the config dict a CLI user would hand to ``presliding <kind>``
(without ``output_dir``, which the runner sets per job). Jobs come in
blocks of fixed kind mix; inside a block every continuous parameter is
drawn by Latin-hypercube stratification, so each block covers its range
evenly and block cost varies little from seed to seed. The marginal of
each parameter is still the distribution the workload names.

Every drawn value stays inside ranges where the program is known to
succeed, so no seed makes a job fail.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOADS = {
    "sim-sweep": (
        "simulate and fig7 jobs over sigma/f_c log-uniform in [10, 1000] and v0 in "
        "[0.2, 1.0]: time goes to oscillator, CSV rows and fig7 builders, no closed form"
    ),
    "closed-form": (
        "exact reversal chains (200-800 half-cycles) mixed with fig3-fig6 on seeded "
        "sweeps: time goes to reversal, figures and CSV, no simulation"
    ),
    "validate": (
        "repeated validate jobs; the only workload that reaches oracle, "
        "hysteresis.loop_dissipation and validation (the seed is unused)"
    ),
}

# Kind sequence of one block. Every kind appears among the first jobs of
# a block, so the few jobs the self-test runs reach every kind.
_PATTERNS = {
    "sim-sweep": ["simulate", "fig7"] * 4,
    "closed-form": (["chain", "fig3", "fig4", "fig5", "fig6"] + ["chain"] * 5) * 5,
    "validate": ["validate"] * 4,
}

# About 100 s of timed jobs at today's speed; the runner cycles through
# the list if a run needs more.
_N_BLOCKS = {"sim-sweep": 64, "closed-form": 160, "validate": 64}

SEED_USED = {"sim-sweep": True, "closed-form": True, "validate": False}


def block_size(workload: str) -> int:
    return len(_PATTERNS[workload])


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n stratified uniforms in [0, 1): one per stratum, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


def _sim_sweep_block(rng: np.random.Generator, kinds: list[str]) -> list[dict]:
    n = len(kinds)
    ratios = _log_uniform(_strata(rng, n), 10.0, 1000.0)
    v0s = 0.2 + 0.8 * _strata(rng, n)
    jobs = []
    for kind, ratio, v0 in zip(kinds, ratios, v0s):
        sim = {"v0": float(v0)}
        if kind == "simulate":
            jobs.append({"kind": "simulate", "params": {"f_c": 1.0, "sigma": float(ratio)},
                         "sim": sim})
        else:
            jobs.append({"kind": "fig7", "sweep": [float(ratio)], "sim": sim})
    return jobs


def _closed_form_block(rng: np.random.Generator, kinds: list[str]) -> list[dict]:
    n_chain = kinds.count("chain")
    steps = 200 + np.floor(601 * _strata(rng, n_chain)).astype(int)
    seeds = -(0.05 + 0.95 * _strata(rng, n_chain))
    chain_ratios = _log_uniform(_strata(rng, n_chain), 1.0, 1000.0)
    chains = iter(zip(steps, seeds, chain_ratios))

    def ratio_sweep(lo: float, hi: float, k: int) -> list[float]:
        return [float(r) for r in _log_uniform(_strata(rng, k), lo, hi)]

    jobs = []
    for kind in kinds:
        if kind == "chain":
            n_steps, f0, ratio = next(chains)
            jobs.append({"kind": "chain", "params": {"f_c": 1.0, "sigma": float(ratio)},
                         "chain": {"mode": "exact", "n_steps": int(n_steps),
                                   "f0_over_fc": float(f0)}})
        elif kind == "fig3":
            jobs.append({"kind": "fig3", "sweep": ratio_sweep(1.0, 1000.0, 4)})
        elif kind == "fig4":
            jobs.append({"kind": "fig4", "sweep": ratio_sweep(1.0, 10.0, 3)})
        elif kind == "fig5":
            # friction levels at sigma = 1; above f_c ~ 1.5 the printed
            # predictor degenerates and fig5_predictions.csv holds nan
            f_cs = 0.5 + 1.5 * _strata(rng, 3)
            jobs.append({"kind": "fig5", "sweep": [float(v) for v in f_cs]})
        else:
            jobs.append({"kind": "fig6", "sweep": ratio_sweep(10.0, 1000.0, 3)})
    return jobs


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's full job list for a seed."""
    kinds = _PATTERNS[workload]
    if workload == "validate":
        return [{"kind": "validate"} for _ in range(_N_BLOCKS[workload] * len(kinds))]
    rng = np.random.default_rng(seed)
    build = _sim_sweep_block if workload == "sim-sweep" else _closed_form_block
    jobs: list[dict] = []
    for _ in range(_N_BLOCKS[workload]):
        jobs += build(rng, kinds)
    return jobs


def jobs_sha256(jobs: list[dict]) -> str:
    blob = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
