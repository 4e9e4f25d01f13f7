"""Shared fixtures: the standard oscillator runs reused across test modules."""

import pytest

from presliding import FrictionParams, SimConfig, simulate


def standard_run(ratio: float):
    """The CLI's default simulation at sigma/f_c = ratio."""
    return simulate(SimConfig(FrictionParams(f_c=1.0, sigma=ratio)))


@pytest.fixture(scope="session")
def traj10():
    return standard_run(10.0)


@pytest.fixture(scope="session")
def traj100():
    return standard_run(100.0)


@pytest.fixture(scope="session")
def traj1000():
    return standard_run(1000.0)
