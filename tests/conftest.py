"""Shared fixtures: validate's runs, simulated once and reused across test modules."""

import pytest

from presliding.oscillator import simulate
from presliding.validation import RUNS


@pytest.fixture(scope="session")
def runs():
    """Each validation.RUNS name to its trajectory, as validation.run_all simulates it."""
    return {name: simulate(cfg) for name, cfg in RUNS.items()}


@pytest.fixture(scope="session")
def traj10(runs):
    return runs["r10"]


@pytest.fixture(scope="session")
def traj100(runs):
    return runs["r100"]


@pytest.fixture(scope="session")
def traj1000(runs):
    return runs["r1000"]
