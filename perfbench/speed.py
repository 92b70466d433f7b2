"""Machine-speed probe for runs on a shared host.

The host the benchmark runs on gives it a share of a few cores whose
speed switches within seconds between a fast and a slow phase, as
neighbours come and go.  A timing taken in one phase and compared with
one taken in the other measures the host as much as the program.

So a run interleaves the requests with fixed reference work that does
not touch extractomat.  After each request it runs probe units until the
probe has taken ``SHARE`` of the request time.  A unit does Python
integer, dict and ``Fraction`` work and numpy sorting and counting, the
kinds of work the workloads do.  A speed factor is the mean unit time
over ``REF_UNIT_S``, the unit's mean time on the machine the benchmark
was sized on; a time divided by its factor is in reference-machine
seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy

# Mean time of one probe unit on the machine the benchmark was sized on
# (2-core virtual Intel Xeon, Python 3.11, numpy 2.4), over 2,000 units;
# its fast and slow phases ran a unit in about 5.5 and 9 ms.
REF_UNIT_S = 0.0071
# Probe time as a share of request and set-up time.
SHARE = 0.1
# A request's factor is the mean of at least this many units on either
# side of it.
WINDOW = 4

_ARR = numpy.random.default_rng(20140901).integers(0, 1 << 16, size=1 << 15)


def probe_unit() -> int:
    """One unit of fixed reference work; returns a checksum."""
    counts: dict[int, int] = {}
    for x in range(80):
        for y in range(80):
            key = (bin(x & y).count("1") & 1) ^ ((x * 40503 + y) >> 7 & 7)
            counts[key] = counts.get(key, 0) + 1
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, 2 * i + 1)
    total = 0
    for shift in range(1, 9):
        mixed = numpy.sort(_ARR ^ (_ARR >> shift))
        total += int(numpy.bincount(mixed & 1023, minlength=1024).max())
    return sum(counts.values()) + acc.numerator % 97 + total


class SpeedProbe:
    """Runs probe units in proportion to request time; gives speed factors.

    A factor is a mean unit time over ``REF_UNIT_S``: above 1 the machine
    ran slower than the reference.  Phases change within seconds, so each
    request is scaled by the units run nearest to it in time: as many
    before it as after it, the units it paid for or ``WINDOW``, whichever
    is more.
    """

    def __init__(self):
        self.debt = 0.0
        self.units: list[float] = []

    def mark(self) -> int:
        """Position of a request that starts now among the probe units."""
        return len(self.units)

    def after(self, request_s: float) -> int:
        """Owe ``SHARE`` of a request's time to the probe and pay it;
        returns the number of units run."""
        start = len(self.units)
        self.debt += SHARE * request_s
        while self.debt > 0:
            t0 = time.perf_counter()
            probe_unit()
            dt = time.perf_counter() - t0
            self.units.append(dt)
            self.debt -= dt
        return len(self.units) - start

    def local(self, mark: int, paid: int) -> float:
        """Speed factor around the request started at ``mark`` that paid
        for ``paid`` units."""
        half = max(WINDOW, paid)
        near = self.units[max(0, mark - half):mark + half]
        return sum(near) / len(near) / REF_UNIT_S

    @property
    def factor(self) -> float:
        """Speed factor of the whole run."""
        return sum(self.units) / len(self.units) / REF_UNIT_S
