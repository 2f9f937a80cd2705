"""Golden access-trace recording — the data the pruner reasons from.

The campaign-level pruner (ROADMAP item 2; ZOFI's coverage pre-analysis
and ARMORY's fault-equivalence pruning are the models) rests on one
observation about deterministic simulators: a faulty run is
*bit-identical* to the golden run up to the first read of the corrupted
entry.  The golden run's per-entry access sequence therefore predicts,
without any simulation, everything that can happen to a flipped bit
before the machine first looks at it: the bit may be overwritten, the
line invalidated, or simply never touched again — all provably Masked.

:class:`TraceRecorder` piggybacks on the golden run and logs, for every
entry of the five paper structures (RF, L1D, L1I, L2, LSQ), the cycle-
stamped sequence of accesses observed at the storage-array boundary:

``r``
    a read (``WordArray.read`` / ``LineArray.read_bytes``, or a
    ``peek`` whose caller reports the read).  Dirty
    evictions read the line before handing it to the next level, so a
    corrupted dirty writeback shows up as a read — never prunable.
``W``
    a covering write (``WordArray.write`` — whole entry rewritten).
``w lo hi``
    a partial write (``LineArray.write_bytes``) touching bytes
    ``[lo, hi)`` of the line; covers a bit only if its byte is in range
    (the same granularity as the §III.B early-stop watch).
``F``
    a line fill (``LineArray.fill``) — a covering write that also makes
    the line live.
``i``
    a line invalidation — whatever the line held is discarded unread
    (mirror-mode evictions, flushes).

Recording puts one observer in each traced array's observer slot
(``repro.uarch.array``), the hook the §III.B early-stop watch uses too.
An observed array's owner takes no fast path, so every access reaches
a method that reports it, and a trace of any fault site is exact.  The
observers only listen: the golden execution, its checkpoints and its
statistics are unchanged.

Event stamps use the simulator's post-increment cycle counter, matching
the dispatcher's drive loop: a mask at cycle *c* is applied after every
event stamped ``<= c`` and before any event stamped ``c+1``, so
``bisect_right(stamps, c)`` is the exact index of the first event the
flip can influence.
"""

from __future__ import annotations

import hashlib
import json

# The five structures of the paper's study (Table IV / Figs. 2-6), and
# the only ones the pruner reasons about.
PRUNE_STRUCTURES = ("int_rf", "l1d", "l1i", "l2", "lsq")

TRACE_VERSION = 1


class StructureTrace:
    """Per-entry access events of one storage array over the golden run."""

    __slots__ = ("name", "kind", "entries", "bits_per_entry",
                 "initial_filled", "events")

    def __init__(self, name: str, kind: str, entries: int,
                 bits_per_entry: int, initial_filled=(), events=None):
        self.name = name
        self.kind = kind                    # "word" | "line"
        self.entries = entries
        self.bits_per_entry = bits_per_entry
        #: Lines already filled when recording started (cycle 0 state);
        #: word arrays are always considered filled.
        self.initial_filled = frozenset(initial_filled)
        #: entry -> chronological [cycle, kind(, lo, hi)] event lists.
        self.events: dict[int, list] = events if events is not None else {}

    def events_for(self, entry: int) -> list:
        return self.events.get(entry, ())

    def filled_at(self, entry: int, cycle: int) -> bool:
        """Is the entry live storage just after cycle *cycle*?

        Word arrays always hold storage.  For line arrays the last
        fill/invalidate event stamped ``<= cycle`` decides, falling back
        to the filled-set captured when recording started.
        """
        if self.kind != "line":
            return True
        filled = entry in self.initial_filled
        for ev in self.events.get(entry, ()):
            if ev[0] > cycle:
                break
            if ev[1] == "F":
                filled = True
            elif ev[1] == "i":
                filled = False
        return filled

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "entries": self.entries,
            "bits_per_entry": self.bits_per_entry,
            "initial_filled": sorted(self.initial_filled),
            "events": {str(e): evs
                       for e, evs in sorted(self.events.items())},
        }

    @staticmethod
    def from_dict(d: dict) -> "StructureTrace":
        return StructureTrace(
            name=d["name"], kind=d["kind"], entries=d["entries"],
            bits_per_entry=d["bits_per_entry"],
            initial_filled=d.get("initial_filled", ()),
            events={int(e): [list(ev) for ev in evs]
                    for e, evs in d.get("events", {}).items()})


class AccessTrace:
    """The golden run's access trace for one (setup, benchmark) pair.

    Fields are reassigned, never mutated in place (callers set
    ``benchmark`` after recording), and every assignment drops the
    memoised :attr:`digest`.
    """

    __slots__ = ("setup", "benchmark", "cycles", "structures", "_digest")

    def __init__(self, setup: str, benchmark: str, cycles: int,
                 structures: dict):
        self.setup = setup
        self.benchmark = benchmark
        self.cycles = cycles
        self.structures: dict[str, StructureTrace] = structures

    def __setattr__(self, name, value) -> None:
        object.__setattr__(self, "_digest", None)
        object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {
            "version": TRACE_VERSION,
            "setup": self.setup,
            "benchmark": self.benchmark,
            "cycles": self.cycles,
            "structures": {name: st.to_dict()
                           for name, st in sorted(self.structures.items())},
        }

    @staticmethod
    def from_dict(d: dict) -> "AccessTrace":
        return AccessTrace(
            setup=d["setup"], benchmark=d["benchmark"], cycles=d["cycles"],
            structures={name: StructureTrace.from_dict(sd)
                        for name, sd in d.get("structures", {}).items()})

    def to_bytes(self) -> bytes:
        """Canonical serialization — byte-identical for identical runs."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()

    @staticmethod
    def from_bytes(blob: bytes) -> "AccessTrace":
        return AccessTrace.from_dict(json.loads(blob.decode()))

    @property
    def digest(self) -> str:
        """sha256 of :meth:`to_bytes`, serialised once per field state."""
        if self._digest is None:
            object.__setattr__(self, "_digest",
                               hashlib.sha256(self.to_bytes()).hexdigest())
        return self._digest

    @property
    def n_events(self) -> int:
        return sum(len(evs) for st in self.structures.values()
                   for evs in st.events.values())


class _ArrayLog:
    """Logs one array's accesses into a :class:`StructureTrace`."""

    __slots__ = ("sim", "events", "whole")

    def __init__(self, sim, trace: StructureTrace):
        self.sim = sim
        self.events = trace.events
        self.whole = trace.kind == "word"   # a word write covers it all

    def _note(self, entry: int, ev: list) -> None:
        lst = self.events.get(entry)
        if lst is None:
            self.events[entry] = [ev]
        elif lst[-1] != ev:
            lst.append(ev)

    def read(self, entry: int) -> None:
        self._note(entry, [self.sim.cycle, "r"])

    def write(self, entry: int, lo: int, hi: int) -> None:
        self._note(entry, [self.sim.cycle, "W"] if self.whole
                   else [self.sim.cycle, "w", lo, hi])

    def fill(self, entry: int) -> None:
        self._note(entry, [self.sim.cycle, "F"])

    def invalidate(self, entry: int) -> None:
        self._note(entry, [self.sim.cycle, "i"])


class TraceRecorder:
    """Observes a machine's storage arrays to log golden accesses.

    Attach before the golden run's first ``step()``, detach after, then
    :meth:`finish` yields the :class:`AccessTrace`.  Consecutive
    identical events of one entry within one cycle are coalesced (a
    same-cycle repeat adds no injection-window boundary — masks land on
    cycle edges).
    """

    def __init__(self, sim, structures=PRUNE_STRUCTURES):
        self._arrays: list = []
        self._traces: dict[str, StructureTrace] = {}
        sites = sim.fault_sites()
        for name in structures:
            site = sites.get(name)
            if site is None:
                continue
            arr = site.array
            lines = getattr(arr, "lines", None)
            st = StructureTrace(
                name, "word" if lines is None else "line", arr.entries,
                arr.bits_per_entry, initial_filled=[
                    i for i, buf in enumerate(lines or ()) if buf is not None])
            arr.observer = _ArrayLog(sim, st)
            self._arrays.append(arr)
            self._traces[name] = st

    def detach(self) -> None:
        """Empty the observer slots this recorder filled."""
        for arr in self._arrays:
            arr.observer = None
        self._arrays.clear()

    def finish(self, setup: str, benchmark: str, cycles: int) -> AccessTrace:
        self.detach()
        return AccessTrace(setup=setup, benchmark=benchmark, cycles=cycles,
                           structures=self._traces)
