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
event stamped ``<= c`` and before any event stamped ``c+1``, so the
first event the flip can influence is the first one stamped ``c+1`` or
later.

Each event is one 64-bit word, ``cycle << 19 | hi << 11 | lo << 3 |
kind``, with kinds r=0, W=1, w=2, F=3, i=4; ``lo``/``hi`` are the byte
range of a ``w`` and 0 for every other kind today.  An entry's events
are one ``array('Q')`` in the order they happened, so its words ascend
by cycle and ``bisect_left(words, (c + 1) << 19)`` is the index of the
first event after cycle *c*.  :func:`pack_event` is the one definition
of the layout (the recorder inlines its constants for speed).

:meth:`AccessTrace.to_bytes` is the trace's one serialization, shipped
in golden blobs and stored by the trace cache: a canonical-JSON header
and a newline, then every entry's words, little-endian, structure by
structure (sorted by name) and entry by entry (ascending).  The header
holds ``version``, ``setup``, ``benchmark``, ``cycles`` and, per
structure, ``name``, ``kind``, ``entries``, ``bits_per_entry``,
``initial_filled`` and the ``index`` of ``[entry, count]`` pairs that
cuts the words back into entries.  Any other ``version`` is refused,
so a trace of an older build is re-recorded, never misread.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from bisect import bisect_left

# The five structures of the paper's study (Table IV / Figs. 2-6), and
# the only ones the pruner reasons about.
PRUNE_STRUCTURES = ("int_rf", "l1d", "l1i", "l2", "lsq")

TRACE_VERSION = 2

#: Event kinds, by code: read, covering write, partial write, fill,
#: invalidate.
EVENT_KINDS = "rWwFi"
READ, WRITE, PARTIAL, FILL, INVALIDATE = range(len(EVENT_KINDS))
KIND_MASK = 0x7
LO_SHIFT = 3
HI_SHIFT = 11
BYTE_MASK = 0xff
CYCLE_SHIFT = 19

_SWAP = sys.byteorder != "little"     # the bytes are little-endian


def pack_event(cycle: int, kind: str, lo: int = 0, hi: int = 0) -> int:
    """One event as its trace word; *kind* is a letter of
    :data:`EVENT_KINDS`."""
    return (cycle << CYCLE_SHIFT | hi << HI_SHIFT | lo << LO_SHIFT
            | EVENT_KINDS.index(kind))


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
        #: entry -> chronological event words (``array('Q')``).
        self.events: dict[int, array] = events if events is not None else {}

    def events_for(self, entry: int):
        return self.events.get(entry, ())

    def filled_at(self, entry: int, cycle: int) -> bool:
        """Is the entry live storage just after cycle *cycle*?

        Word arrays always hold storage.  For line arrays the last
        fill/invalidate event stamped ``<= cycle`` decides, falling back
        to the filled-set captured when recording started.
        """
        if self.kind != "line":
            return True
        words = self.events.get(entry, ())
        for i in range(bisect_left(words, (cycle + 1) << CYCLE_SHIFT) - 1,
                       -1, -1):
            kind = words[i] & KIND_MASK
            if kind == FILL:
                return True
            if kind == INVALIDATE:
                return False
        return entry in self.initial_filled


class AccessTrace:
    """The golden run's access trace for one (setup, benchmark) pair.

    Fields are reassigned, never mutated in place (callers set
    ``benchmark`` after recording), and every assignment drops the
    memoised :attr:`digest` and :attr:`nbytes`.
    """

    __slots__ = ("setup", "benchmark", "cycles", "structures", "_packed")

    def __init__(self, setup: str, benchmark: str, cycles: int,
                 structures: dict):
        self.setup = setup
        self.benchmark = benchmark
        self.cycles = cycles
        self.structures: dict[str, StructureTrace] = structures

    def __setattr__(self, name, value) -> None:
        object.__setattr__(self, "_packed", None)
        object.__setattr__(self, name, value)

    def to_bytes(self) -> bytes:
        """Canonical serialization — byte-identical for identical runs."""
        header = {"version": TRACE_VERSION, "setup": self.setup,
                  "benchmark": self.benchmark, "cycles": self.cycles,
                  "structures": []}
        arrays = []
        for name, st in sorted(self.structures.items()):
            entries = sorted(st.events)
            header["structures"].append({
                "name": name, "kind": st.kind, "entries": st.entries,
                "bits_per_entry": st.bits_per_entry,
                "initial_filled": sorted(st.initial_filled),
                "index": [[e, len(st.events[e])] for e in entries]})
            arrays += [st.events[e] for e in entries]
        if _SWAP:
            arrays = [array("Q", words) for words in arrays]
            for words in arrays:
                words.byteswap()
        head = json.dumps(header, sort_keys=True, separators=(",", ":"))
        return b"".join([head.encode(), b"\n", *arrays])

    @staticmethod
    def from_bytes(blob: bytes) -> "AccessTrace":
        """Rebuild a :meth:`to_bytes` trace; raises ValueError on
        another version or a body that does not match its index."""
        cut = blob.find(b"\n")
        header = json.loads(blob[:cut] if cut >= 0 else blob)
        version = header.get("version") if isinstance(header, dict) \
            else None
        if version != TRACE_VERSION:
            raise ValueError(f"access trace version {version!r}; this "
                             f"build reads version {TRACE_VERSION}")
        body = memoryview(blob)[cut + 1:]
        structures = {}
        pos = 0
        for sd in header["structures"]:
            events = {}
            for entry, count in sd["index"]:
                words = events[entry] = array("Q")
                words.frombytes(body[pos:pos + 8 * count])
                if _SWAP:
                    words.byteswap()
                pos += 8 * count
            structures[sd["name"]] = StructureTrace(
                sd["name"], sd["kind"], sd["entries"], sd["bits_per_entry"],
                initial_filled=sd["initial_filled"], events=events)
        if pos != len(body):
            raise ValueError(f"access trace body holds {len(body)} bytes; "
                             f"its index names {pos}")
        trace = AccessTrace(setup=header["setup"],
                            benchmark=header["benchmark"],
                            cycles=header["cycles"], structures=structures)
        object.__setattr__(trace, "_packed",
                           (hashlib.sha256(blob).hexdigest(), len(blob)))
        return trace

    def _memo(self) -> tuple[str, int]:
        if self._packed is None:
            blob = self.to_bytes()
            object.__setattr__(self, "_packed",
                               (hashlib.sha256(blob).hexdigest(), len(blob)))
        return self._packed

    @property
    def digest(self) -> str:
        """sha256 of :meth:`to_bytes`, serialised once per field state."""
        return self._memo()[0]

    @property
    def nbytes(self) -> int:
        """Length of :meth:`to_bytes`, from the same serialization."""
        return self._memo()[1]

    @property
    def n_events(self) -> int:
        return sum(len(words) for st in self.structures.values()
                   for words in st.events.values())


class _ArrayLog:
    """Logs one array's accesses into a :class:`StructureTrace`.

    Builds each event's word inline (see :func:`pack_event`): 19 is
    ``CYCLE_SHIFT``, 11 ``HI_SHIFT``, 3 ``LO_SHIFT``, and the low bits
    the kind's code.
    """

    __slots__ = ("sim", "events", "whole")

    def __init__(self, sim, trace: StructureTrace):
        self.sim = sim
        self.events = trace.events
        self.whole = trace.kind == "word"   # a word write covers it all

    def _note(self, entry: int, word: int) -> None:
        words = self.events.get(entry)
        if words is None:
            self.events[entry] = array("Q", (word,))
        elif words[-1] != word:
            words.append(word)

    def read(self, entry: int) -> None:
        self._note(entry, self.sim.cycle << 19)

    def write(self, entry: int, lo: int, hi: int) -> None:
        self._note(entry, self.sim.cycle << 19 | 1 if self.whole
                   else self.sim.cycle << 19 | hi << 11 | lo << 3 | 2)

    def fill(self, entry: int) -> None:
        self._note(entry, self.sim.cycle << 19 | 3)

    def invalidate(self, entry: int) -> None:
        self._note(entry, self.sim.cycle << 19 | 4)


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
