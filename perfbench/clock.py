"""A clock that reads seconds at a reference host speed.

The hosts this benchmark runs on share their CPUs with other machines, and
the same pure-Python loop can run 30 % slower for a few seconds, then fast
again.  Raw seconds carry those swings into every timing.  `ScaledClock`
takes them out: a timer signal runs `probe()`, a fixed loop of the
benchmark's own heap and dict work, every TICK_S seconds, and between two
probes the clock advances at PROBE_REFERENCE_S / (probe seconds) of real
time.  The probe does not depend on the simulator, so a change to the
simulator moves the scaled figures exactly as it moves raw ones on a steady
host.  The clock stands still while a probe runs.
"""

from __future__ import annotations

import heapq
import random
import signal
from time import perf_counter

TICK_S = 0.1
PROBE_REFERENCE_S = 0.001   # probe() on an unloaded host (see README)


def probe() -> float:
    """Seconds for a fixed pure-Python loop of heap and dict work."""
    t0 = perf_counter()
    rng = random.Random(1)
    heap, counts = [], {}
    for i in range(1000):
        heapq.heappush(heap, (rng.random(), i, None))
        counts[i & 63] = counts.get(i & 63, 0) + 1
    while heap:
        heapq.heappop(heap)
    return perf_counter() - t0


class ScaledClock:
    """Use as a context manager; `now()` gives scaled seconds inside it."""

    def __enter__(self):
        # (scaled seconds up to `last`, perf_counter at `last`, current rate),
        # replaced as one value so that now() never mixes two ticks
        self.state = (0.0, perf_counter(), PROBE_REFERENCE_S / probe())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        rate = PROBE_REFERENCE_S / probe()
        base, last, previous = self.state
        # the interval since the last probe ran at about the mean of the
        # speeds probed at its two ends
        self.state = (base + (t - last) * 0.5 * (previous + rate),
                      perf_counter(), rate)

    def now(self) -> float:
        base, last, rate = self.state
        return base + (perf_counter() - last) * rate
