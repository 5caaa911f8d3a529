"""Machine-speed probe for reporting times in reference seconds.

The benchmark's machine is shared, and its speed drifts by tens of percent
over minutes.  The probe is a fixed piece of CPU work that does not touch
ratiocert: an interpreter loop, big-integer products and Fraction sums, the
same kinds of work the workloads do.  It runs next to the workload (between
the parts of each round and before each round), and a run's times are
scaled by REF_S over the run's median probe time.  A change to the program
moves reference seconds exactly as it moves measured seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

# probe time that defines one reference second's worth of machine speed
REF_S = 0.05


def probe_s() -> float:
    """Seconds taken by the fixed probe work, now."""
    t = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc = (acc * 1_000_003 + i) % 2_147_483_647
    big = 3**30_000
    mask = (1 << 47_000) - 1
    for _ in range(30):
        big = (big * big) & mask | (1 << 46_999)
    f = Fraction(0)
    for k in range(1, 200):
        f += Fraction(1, k * k)
    return time.perf_counter() - t
