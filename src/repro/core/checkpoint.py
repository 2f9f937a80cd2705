"""Checkpointing support (§III: "employ the check-pointing features of
the simulators … to speed up the injection campaigns").

Snapshots are structured state blobs from ``OoOCore.snapshot()`` — flat
copies of the mutable machine state that share immutable objects
(decoded instructions, µops, program image) by reference, and share
with the previous snapshot every 4 KB memory page it left unchanged
(``Memory.snapshot``).  The golden run drops evenly spaced snapshots;
each injection run restores the latest snapshot at or before its
injection cycle *in place* into the dispatcher's reusable machine
(``sim.restore``), skipping the fault-free prefix entirely without ever
paying for a whole-machine ``deepcopy``.
"""

from __future__ import annotations

import pickle
import time
from bisect import bisect_right


def state_nbytes(*states) -> int:
    """Pickled size of ``OoOCore`` snapshot states, each memory page
    counted once however many of them share it (``Memory.snapshot``):
    what one pickle of them all — a golden blob, the integrity vault —
    carries, to within the few percent of decode objects they also share.

    The states are pickled one at a time because one pickle of them all
    memoizes every object of every state at once: about 3 MB more on a
    golden run of nine states, enough to raise a campaign's peak RSS.
    """
    total, seen = 0, set()
    for state in states:
        total += len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
        for page in state["mem"][0]:
            if id(page) in seen:
                total -= len(page)
            seen.add(id(page))
    return total


class CheckpointStore:
    """Machine snapshots taken during the golden run.

    The golden runtime is unknown up front, so spacing adapts: snapshots
    start at ``interval`` cycles apart and, whenever the budget of
    ``max_snaps`` fills up, every other snapshot is dropped and the
    interval doubles — one pass, bounded memory, roughly even coverage.
    """

    def __init__(self, interval: int = 512, max_snaps: int = 12):
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        if max_snaps < 2:
            raise ValueError("need at least two snapshot slots")
        self.interval = interval
        self.max_snaps = max_snaps
        self._snaps: list[tuple[int, object]] = []
        self._next_due = interval
        self.snapshot_s = 0.0     # wall time spent taking snapshots

    def maybe_take(self, sim) -> bool:
        """Snapshot *sim* if it just crossed an interval boundary;
        returns whether it did."""
        if sim.cycle < self._next_due:
            return False
        self.take(sim)
        if len(self._snaps) >= self.max_snaps:
            self._snaps = self._snaps[1::2]
            self.interval *= 2
        # Space the next snapshot from the one just taken.  With an odd
        # budget the thinning pass above drops the *newest* snapshot, so
        # deriving the due point from the last retained one would lag the
        # schedule by up to a full interval.
        self._next_due = sim.cycle + self.interval
        return True

    def take(self, sim) -> None:
        t0 = time.perf_counter()
        state = sim.snapshot()
        self.snapshot_s += time.perf_counter() - t0
        self._snaps.append((sim.cycle, state))

    def state_before(self, cycle: int):
        """Latest ``(snap_cycle, state)`` at or before *cycle*, or None."""
        idx = bisect_right(self._snaps, cycle, key=lambda snap: snap[0])
        if idx == 0:
            return None
        return self._snaps[idx - 1]

    def restore_before(self, cycle: int, sim):
        """Restore the latest snapshot at or before *cycle* into *sim*.

        Returns *sim* (positioned at the snapshot cycle), or ``None``
        when no snapshot qualifies — the caller starts from reset
        instead.
        """
        snap = self.state_before(cycle)
        if snap is None:
            return None
        sim.restore(snap[1])
        return sim

    @property
    def count(self) -> int:
        return len(self._snaps)

    @property
    def cycles(self) -> list[int]:
        return [c for c, _ in self._snaps]

    @property
    def snapshots(self) -> list[tuple[int, object]]:
        """The stored ``(cycle, state)`` pairs (shipped to workers)."""
        return list(self._snaps)

    @property
    def states(self) -> list:
        """The stored snapshot states, oldest first."""
        return [state for _, state in self._snaps]

    @classmethod
    def from_snapshots(cls, snaps, interval: int = 512,
                       max_snaps: int = 12) -> "CheckpointStore":
        """Rebuild a store around already-taken snapshots.

        Used by parallel workers, which receive the parent's golden-run
        checkpoints instead of re-running the golden execution.
        """
        store = cls(interval=interval, max_snaps=max_snaps)
        store._snaps = sorted(snaps, key=lambda snap: snap[0])
        if store._snaps:
            store._next_due = store._snaps[-1][0] + interval
        return store
