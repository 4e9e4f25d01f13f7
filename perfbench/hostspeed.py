"""Host speed, measured with a reference kernel the benchmark owns.

A shared host's CPU can run the same code at half speed for a second or
two, and spend a different share of each minute that way, which moves
the timings of whole runs. The runner times a fixed pure-Python kernel
between jobs; a job's wall time divided by the slowness of the kernel
runs just before and just after it (kernel time over ``NOMINAL_S``) is
the job's time at nominal host speed. The kernel is written here, not
taken from the program, so no change to the program changes it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

# The kernel's typical time on a 2-vCPU x86-64 host with Python 3.11.7.
NOMINAL_S = 0.0035
EVERY_S = 0.1  # one kernel sample per this much job time


def reference_kernel() -> float:
    """Wall time of RK4 steps of a Dahl-damped oscillator, formatted to 17 digits."""
    t0 = time.perf_counter()
    x, v, f, e = 0.0, 0.5, 0.0, 0.0
    dt, sigma = 0.01, 10.0

    def rhs(x, v, f):
        s = 1.0 if v > 0.0 else -1.0
        return v, -f, sigma * (1.0 - f * s) * v, f * v

    rows = []
    for _ in range(500):
        k1 = rhs(x, v, f)
        k2 = rhs(x + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], f + 0.5 * dt * k1[2])
        k3 = rhs(x + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], f + 0.5 * dt * k2[2])
        k4 = rhs(x + dt * k3[0], v + dt * k3[1], f + dt * k3[2])
        c = dt / 6.0
        x += c * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += c * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        f += c * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        e += c * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        rows.append(f"{x:.17g},{v:.17g},{f:.17g},{math.exp(-abs(e)):.17g}")
    "\n".join(rows)
    return time.perf_counter() - t0


class HostSpeed:
    """Timestamped kernel samples of one run, taken between jobs."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._owed = EVERY_S

    def sample(self) -> None:
        self.samples.append(reference_kernel())
        self.times.append(time.perf_counter())
        self._owed = 0.0

    def after(self, job_seconds: float) -> None:
        """Sample once at least EVERY_S of job time has passed since the last sample."""
        self._owed += job_seconds
        if self._owed >= EVERY_S:
            self.sample()

    def adjust(self, start: float, seconds: float) -> float:
        """A wall time at nominal host speed: divided by the slowness of the
        samples right before and right after the interval."""
        k = bisect.bisect_left(self.times, start)
        around = self.samples[max(k - 1, 0):k + 1]
        return seconds * NOMINAL_S / statistics.fmean(around)

    def slowness(self) -> float:
        """Mean slowness over the run."""
        return statistics.fmean(self.samples) / NOMINAL_S
