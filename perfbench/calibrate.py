"""Host-speed probe: a fixed pure-Python kernel, timed where the work runs.

The benchmark host is shared and its speed drifts by a quarter or more
within minutes, which would swamp any change worth measuring.  So every
round probes the host between its work items -- between injections in
a cell round, before and after every unit in a study's worker
processes -- and the round's host seconds are scaled by
``REFERENCE_S / p``, where ``p`` is the probe time averaged over the
round's work (:class:`Speed`): seconds on a host where the probe takes
``REFERENCE_S``.  Probe time is kept out of every measured interval
that can exclude it.

Inside its loop the kernel creates no object the garbage collector
tracks, so the program's collector settings cannot move it, and it
touches nothing of the program, so no change to the program can move
it either.
Its work -- attribute reads and writes, dict lookups, integer
arithmetic and branches -- is what the simulator's stage loops do.
"""

import statistics
import time

#: Probe seconds on the host the first baseline was measured on.
REFERENCE_S = 0.0035


class _State:
    __slots__ = ("seed", "hits")


_TABLE = {i: (i * 7919) & 0xFFFF for i in range(256)}


def kernel(n: int = 15_000) -> int:
    state = _State()
    state.seed = 1
    state.hits = 0
    table = _TABLE
    acc = 0
    for i in range(n):
        acc = (acc + (table[i & 255] ^ state.seed)) & 0xFFFFFF
        state.seed = (state.seed * 1103515245 + 12345) & 0xFFFF
        if acc & 1:
            state.hits += 1
    return acc


def probe() -> float:
    """Median seconds of three kernel runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Probes between work items; the host speed over the work between.

    Construct it right before the first item and call :meth:`mark`
    after each.  Every interval of work is weighted by the mean of the
    two probes around it, so a slow spell of the host counts for as long
    as it lasted.
    """

    def __init__(self):
        self.probing_s = 0.0     # time spent in probes
        self.work_s = 0.0        # time between probes
        self.weighted = 0.0      # sum of interval x mean bracketing probe
        self._last = self._probe()

    def _probe(self) -> float:
        t0 = time.perf_counter()
        p = probe()
        self._end = time.perf_counter()
        self.probing_s += self._end - t0
        return p

    def mark(self) -> None:
        interval = time.perf_counter() - self._end
        p = self._probe()
        self.work_s += interval
        self.weighted += interval * (self._last + p) / 2
        self._last = p

    def probe_s(self) -> float:
        """Probe seconds, averaged over the work."""
        return self.weighted / self.work_s
