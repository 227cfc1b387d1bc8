"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by a factor of up to two
within a minute (other tenants contend for the same cores and caches), which
moves every wall-clock figure together.  So each timed run interleaves a fixed
calibration unit with the operations: pure Python written here, independent
of the engine, in the engine's style (adjacency lists, dicts, a deque, a
sort).  A time is reported at reference speed, that is, multiplied by
REF_UNIT_NS / (the calibration unit's time around that moment).  On a host
where the unit takes REF_UNIT_NS the figures are wall-clock times.  A change
to the engine moves the operations and not the unit, so it shows in full.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from collections import deque
from time import perf_counter_ns

# The unit's nominal time; on a 2.1 GHz VM core it takes 18-25 ms when quiet.
REF_UNIT_NS = 20_000_000
# At most this much engine time passes between two calibration units.
EVERY_NS = 250_000_000
# A time is scaled by the median of this many calibrations around it.
SPAN = 9

_N = 3000


def _reference_graph() -> list[list[int]]:
    """A fixed 8-regular-on-average multigraph from a 64-bit LCG."""
    x = 12345
    adj: list[list[int]] = [[] for _ in range(_N)]
    for v in range(_N):
        for _ in range(4):
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            w = x % _N
            if w != v:
                adj[v].append(w)
                adj[w].append(v)
    return adj


_ADJ = _reference_graph()


def unit() -> int:
    """The calibration work: breadth-first search from four sources, then a
    sort of the distance table.  Returns a checksum, which is constant."""
    total = 0
    for src in (0, 750, 1500, 2250):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            for w in _ADJ[v]:
                if w not in dist:
                    dist[w] = d
                    queue.append(w)
        total += sum(i * d for i, (d, _) in enumerate(sorted((d, v) for v, d in dist.items())))
    return total


def measure() -> tuple[int, int]:
    """Run one unit; return (start, duration) in ns."""
    t0 = perf_counter_ns()
    unit()
    return t0, perf_counter_ns() - t0


class Calibrator:
    """Runs a unit whenever EVERY_NS have passed since the last one, and maps
    a moment of the run to the speed factor around it."""

    def __init__(self) -> None:
        unit()  # warm the interpreter's caches for this code
        self.points: list[tuple[int, int]] = [measure()]

    def tick(self) -> None:
        if perf_counter_ns() - self.points[-1][0] >= EVERY_NS:
            self.points.append(measure())

    def finish(self) -> None:
        self.points.append(measure())

    def factor(self, t_ns: int) -> float:
        """REF_UNIT_NS over the median unit time of the SPAN calibrations
        centred on the last one made before t_ns."""
        k = max(bisect_right(self.points, (t_ns, 1 << 62)) - 1, 0)
        lo = max(0, min(k - SPAN // 2, len(self.points) - SPAN))
        around = [d for _, d in self.points[lo:lo + SPAN]]
        return REF_UNIT_NS / statistics.median(around)

    def unit_ms(self) -> list[float]:
        return [d / 1e6 for _, d in self.points]
