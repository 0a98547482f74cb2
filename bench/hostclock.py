"""Wall times normalised for the speed of a shared host.

On a shared VM, other tenants slow every process by up to 40% for stretches
of seconds to minutes. A benchmark run can fall entirely inside such a
stretch, so a run's median or best wall time moves with the host and not
with the program. :class:`HostClock` times a fixed pure-Python loop
(:func:`calibrate`) before and after each timed process, and divides the
process's wall time by how much slower than :data:`REFERENCE_S` that loop
ran around it. The loop shares no code with the program under test, so a
change to the program cannot move it.

The result is host-normalised: seconds on a nominal host where
:func:`calibrate` takes exactly :data:`REFERENCE_S`. It is not the wall
time seen on the machine that ran the benchmark, which is slower by the
recorded factor. Comparisons between commits hold because the constant
cancels; absolute figures should be read from the uncorrected walls.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

# A fixed scale, not a measured time: the calibration time of the nominal
# host that normalised wall times are expressed in. It sits just under the
# fastest calibrate() call seen on the 2-vCPU Intel Xeon VM the benchmark
# was sized on (0.049 s over 300 calls, median 0.084 s, Python 3.11), so
# host factors there are always above 1. Changing it rescales every
# normalised figure and breaks comparison with earlier results.
REFERENCE_S = 0.046


def calibrate() -> float:
    """Wall time of a fixed workload shaped like the CLI's: float folds,
    dicts, string formatting, a sort and a JSON dump."""
    rng = random.Random(12345)
    start = perf_counter()
    rows = []
    for index in range(4000):
        f, g, u = 0.3, 0.3, 0.4
        steps = []
        for _ in range(rng.randint(1, 12)):
            f2 = rng.random() * 0.5
            g2 = rng.random() * 0.4
            u2 = 1.0 - f2 - g2
            k = f * g2 + g * f2
            norm = 1.0 - k
            f, g, u = (f * f2 + f * u2 + u * f2) / norm, (g * g2 + g * u2 + u * g2) / norm, u * u2 / norm
            steps.append(k)
        rows.append({"id": f"t{index:06d}", "bel": f, "pl": f + u, "k": steps})
    rows.sort(key=lambda r: (-r["bel"], -r["pl"], r["id"]))
    json.dumps(rows)
    return perf_counter() - start


class HostClock:
    def __init__(self) -> None:
        self._before = calibrate()
        self.factors: list[float] = []  # host slowdown around each timed process

    def correct(self, wall: float) -> float:
        """``wall`` in nominal-host seconds. Call right after the timed
        process ends; the calibration then brackets it on both sides."""
        after = calibrate()
        factor = (self._before + after) / 2 / REFERENCE_S
        self._before = after
        self.factors.append(factor)
        return wall / factor
