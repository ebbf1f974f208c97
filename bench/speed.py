"""Host-speed calibration for the benchmark's timings.

On a 2-vCPU Intel Xeon virtual machine whose host runs other tenants'
work, the speed of pure-Python code drifts by up to 60% over periods of
seconds to minutes (a fixed loop took 5.0 to 8.1 ms).  A run of half a
minute cannot average that out.  So the benchmark runs a small kernel of
its own every CAL_PERIOD seconds while it measures, and scales every raw
duration by NOMINAL_S / (the kernel's mean time within WINDOW_S of that
duration).  Scaled times read as seconds on a host where the kernel takes
NOMINAL_S.  The mean, not the median: an operation's time integrates the
slowdowns it meets, and the mean of the kernel's times does the same.

The kernel is stdlib-only and shares no code with the program under test,
so a faster program does not make the kernel faster.  It does what the
program's hot paths do: exact Fraction arithmetic in small matrices, and
hashing of tuples.
"""

import bisect
import statistics
import time
from fractions import Fraction

CAL_PERIOD = 0.05
NOMINAL_S = 0.0015
WINDOW_S = 2.0  # samples within this distance of a duration describe it

_GRAM = [[Fraction(int(i + j == 4)) for j in range(5)] for i in range(5)]
_GRAM[2][2] = Fraction(2)
_ROOTS = ([1, 0, 1, 0, 0], [0, 1, 1, 0, 0])


def _kernel() -> int:
    """Product of reflections in a 5-dimensional Lorentz-like space."""
    n = 5
    m = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    seen = set()
    for a in _ROOTS:
        ga = [sum(_GRAM[i][j] * a[j] for j in range(n)) for i in range(n)]
        norm = sum(a[i] * ga[i] for i in range(n))
        r = [[Fraction(i == j) - 2 * a[i] * ga[j] / norm for j in range(n)]
             for i in range(n)]
        m = [[sum(m[i][k] * r[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        seen.add(tuple(tuple(row) for row in m))
    return len(seen)


class SpeedLog:
    """Kernel timings over a stretch of measurement, and the scaling they
    imply for any raw interval inside that stretch."""

    def __init__(self):
        self.at = []
        self.took = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    def sample_for(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= CAL_PERIOD:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start in nominal seconds."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.took[lo:hi] or self.took
        return (end - start) * NOMINAL_S / statistics.fmean(near)
