"""Correction for a host whose speed drifts while the benchmark runs.

On a shared virtual CPU the same pure-Python work can take twice as long
for stretches of several seconds, and it slows uniformly: a small and a
large potential solve keep their ratio.  So the benchmark times a fixed
kernel next to the workload and scales every measured time by
``NOMINAL_S / kernel time``, reporting it at one nominal host speed.  The
kernel is exact Gauss-Jordan elimination of a fixed 10 x 10 ``Fraction``
matrix, written here and independent of tropkit, so a library change
cannot move it.  Raw times are reported next to the scaled ones.

Process start-up does not follow that kernel: it is file reads, page
faults and imports more than arithmetic.  Work done in fresh child
processes (the CLI workload) is scaled instead by the start-up of a bare
interpreter, ``python -c pass``, timed the same way between operations.
"""

from __future__ import annotations

import random
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

NOMINAL_S = 0.004         # about the kernel's time on an idle 2-vCPU test VM
NOMINAL_START_S = 0.05    # about a bare interpreter's start-up there
HALF_WINDOW = 2           # kernel timings on each side of an operation
INTERVAL_S = 0.2          # timed seconds of work between kernel timings
START_INTERVAL_S = 0.6    # the same for start-ups, which cost more

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(1, 9), _rng.randint(1, 4)) for _ in range(10)]
           for _ in range(10)]


def kernel_seconds() -> float:
    """Time one exact elimination of the fixed matrix."""
    start = perf_counter()
    a = [row[:] for row in _MATRIX]
    for c in range(len(a)):
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(len(a)):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return perf_counter() - start


def start_seconds() -> float:
    """Time the start-up and exit of a bare interpreter."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


class HostSpeed:
    """Kernel timings taken between operations, and the scaling they give."""

    def __init__(self, kernel=kernel_seconds, nominal: float = NOMINAL_S,
                 interval: float = INTERVAL_S):
        self.kernel = kernel
        self.nominal = nominal
        self.interval = interval
        self.samples: list[tuple[int, float]] = []   # (ops before it, seconds)

    def sample(self, position: int, times: int = 1) -> None:
        """Time the kernel ``times`` times before operation ``position``."""
        for _ in range(times):
            self.samples.append((position, self.kernel()))

    def scale(self, seconds: list[float]) -> list[float]:
        """Each operation's time at nominal speed, by the median kernel time
        of the HALF_WINDOW samples taken before it and after it."""
        positions = [p for p, _ in self.samples]
        out = []
        for i, measured in enumerate(seconds):
            j = bisect_right(positions, i)
            near = [k for _, k in self.samples[max(0, j - HALF_WINDOW):j + HALF_WINDOW]]
            out.append(measured * self.nominal / median(near))
        return out

    def factors(self) -> list[float]:
        return [self.nominal / k for _, k in self.samples]
