"""Injectable storage arrays — the foundation of the fault injectors.

The paper's central premise (§III.C) is that performance simulators model
array-based hardware structures (register files, cache data/tag arrays,
queues, buffers, TLBs, BTBs) faithfully enough that flipping a modeled
storage bit is "largely equivalent to injecting it on the actual
hardware".  Every such structure in both simulators stores its state in a
:class:`WordArray` or :class:`LineArray` so that the injectors address
any bit of any entry uniformly, for all three fault models:

* **transient** — one-shot XOR of a stored bit at a given cycle;
* **intermittent** — a bit reads as stuck at 0/1 during a cycle window;
* **permanent** — a bit reads as stuck at 0/1 forever.

The arrays also implement the campaign controller's two early-stop
optimizations (§III.B): they report whether an entry is *live* at
injection time (via an owner-provided liveness callback), and a
:class:`Watch` in their one observer slot detects "overwritten before
ever read".  The pruner's golden trace observes through the same slot.
Owners take their fast paths only while it is empty; ``peek`` reports
nothing.

Every array supports the structured snapshot protocol used by the
checkpoint engine: ``snapshot()`` returns a cheap flat blob of the
mutable state (data words/lines, stuck-bit list, fault epoch) and
``restore(state)`` loads such a blob back *in place*, so the owning
structure keeps its identity — liveness closures and fault sites that
captured the array stay valid across restores.  An observer is not
machine state: ``restore`` detaches it.
"""

from __future__ import annotations


class StuckBit:
    """One stuck-at fault on (entry, bit) active during [start, end)."""

    __slots__ = ("entry", "bit", "value", "start", "end")

    def __init__(self, entry: int, bit: int, value: int,
                 start: int = 0, end: float = float("inf")):
        self.entry = entry
        self.bit = bit
        self.value = value
        self.start = start
        self.end = end

    def active(self, cycle: int) -> bool:
        return self.start <= cycle < self.end


class Watch:
    """The §III.B early-stop watch on one (entry, bit) of *array*.

    :attr:`event` becomes ``"read"``, or ``"overwritten"`` for a write
    or fill covering the bit's byte, and the watch then detaches.  An
    invalidation is no event: the line's next fill is the overwrite.
    """

    __slots__ = ("array", "entry", "byte", "event")

    def __init__(self, array: "StorageArray", entry: int, bit: int):
        self.array = array
        self.entry = entry
        self.byte = bit // 8
        self.event: str | None = None

    def _seen(self, event: str) -> None:
        self.event = event
        self.array.observer = None

    def read(self, entry: int) -> None:
        if entry == self.entry:
            self._seen("read")

    def write(self, entry: int, lo: int, hi: int) -> None:
        if entry == self.entry and lo <= self.byte < hi:
            self._seen("overwritten")

    def fill(self, entry: int) -> None:
        if entry == self.entry:
            self._seen("overwritten")

    def invalidate(self, entry: int) -> None:
        pass


class StorageArray:
    """Common fault/observer machinery; subclasses define the storage."""

    def __init__(self, name: str, entries: int, bits_per_entry: int):
        self.name = name
        self.entries = entries
        self.bits_per_entry = bits_per_entry
        self.stuck: list[StuckBit] = []
        # None, or what hears every access: read(entry), write(entry,
        # lo, hi) of bytes [lo, hi), fill(entry), invalidate(entry).
        self.observer = None
        # Bumped whenever a fault alters stored state so owners can
        # invalidate any decoded-entry caches they keep for speed.
        self.fault_epoch = 0

    @property
    def total_bits(self) -> int:
        return self.entries * self.bits_per_entry

    def locate(self, flat_bit: int) -> tuple[int, int]:
        """Map a flat bit offset to (entry, bit)."""
        if not 0 <= flat_bit < self.total_bits:
            raise IndexError(f"{self.name}: bit {flat_bit} out of range")
        return divmod(flat_bit, self.bits_per_entry)[0], \
            flat_bit % self.bits_per_entry

    # -- fault API -------------------------------------------------------------

    def flip(self, entry: int, bit: int) -> None:
        """Transient fault: XOR the stored bit right now."""
        self._check(entry, bit)
        self._flip_storage(entry, bit)
        self.fault_epoch += 1

    def set_stuck(self, entry: int, bit: int, value: int,
                  start: int = 0, end: float = float("inf")) -> None:
        """Intermittent (bounded window) or permanent (unbounded) fault."""
        self._check(entry, bit)
        self.stuck.append(StuckBit(entry, bit, value, start, end))
        self.fault_epoch += 1

    def clear_faults(self) -> None:
        self.stuck.clear()
        self.observer = None
        self.fault_epoch += 1

    def watch_entry(self, entry: int, bit: int) -> Watch:
        """Arm the overwritten-before-read detector on (entry, bit)."""
        self.observer = watch = Watch(self, entry, bit)
        return watch

    def report_read(self, entry: int) -> None:
        """Report a read whose value the caller took from ``peek``."""
        if self.observer is not None:
            self.observer.read(entry)

    def _check(self, entry: int, bit: int) -> None:
        if not 0 <= entry < self.entries:
            raise IndexError(f"{self.name}: entry {entry} out of range")
        if not 0 <= bit < self.bits_per_entry:
            raise IndexError(f"{self.name}: bit {bit} out of range")

    def _flip_storage(self, entry: int, bit: int) -> None:
        raise NotImplementedError

    # -- snapshot protocol ------------------------------------------------------

    def _snapshot_faults(self):
        """Fault machinery state as a flat tuple.

        :class:`StuckBit` objects are never mutated after creation, so
        the list is shallow-copied and the items shared.
        """
        return (tuple(self.stuck), self.fault_epoch)

    def _restore_faults(self, state) -> None:
        stuck, self.fault_epoch = state
        self.stuck = list(stuck)
        self.observer = None


class WordArray(StorageArray):
    """Array of word-sized entries stored as Python ints.

    Used for register files, queue payloads, packed TLB/BTB/issue-queue
    entries and prefetcher tables.
    """

    def __init__(self, name: str, entries: int, bits_per_entry: int):
        super().__init__(name, entries, bits_per_entry)
        self.data = [0] * entries
        self._mask = (1 << bits_per_entry) - 1

    def read(self, entry: int, cycle: int = 0) -> int:
        value = self.data[entry]
        if self.stuck:
            value = self._apply_stuck(entry, value, cycle)
        if self.observer is not None:
            self.observer.read(entry)
        return value

    def write(self, entry: int, value: int) -> None:
        self.data[entry] = value & self._mask
        if self.observer is not None:
            self.observer.write(entry, 0, (self.bits_per_entry + 7) // 8)

    def peek(self, entry: int) -> int:
        """Read without reporting it to the observer (liveness, tests)."""
        return self.data[entry]

    def _apply_stuck(self, entry: int, value: int, cycle: int) -> int:
        for sb in self.stuck:
            if sb.entry == entry and sb.active(cycle):
                if sb.value:
                    value |= (1 << sb.bit)
                else:
                    value &= ~(1 << sb.bit)
        return value

    def _flip_storage(self, entry: int, bit: int) -> None:
        self.data[entry] ^= (1 << bit)

    def snapshot(self):
        return (self.data.copy(), self._snapshot_faults())

    def restore(self, state) -> None:
        data, faults = state
        self.data = data.copy()
        self._restore_faults(faults)


class LineArray(StorageArray):
    """Array of cache-line-sized entries stored as bytearrays.

    Lines are allocated lazily (``None`` means the physical line holds
    unobserved garbage — it is always filled before any read).  A
    byte-granular write reports the bytes it covers.
    """

    def __init__(self, name: str, lines: int, line_size: int):
        super().__init__(name, lines, line_size * 8)
        self.line_size = line_size
        self.lines: list[bytearray | None] = [None] * lines

    def read_bytes(self, line: int, offset: int, size: int,
                   cycle: int = 0) -> bytes:
        buf = self.lines[line]
        if buf is None:
            raise ValueError(f"{self.name}: read of unfilled line {line}")
        if self.stuck:
            buf = self._apply_stuck(line, buf, cycle)
        if self.observer is not None:
            self.observer.read(line)
        return bytes(buf[offset:offset + size])

    def write_bytes(self, line: int, offset: int, data: bytes) -> None:
        buf = self.lines[line]
        if buf is None:
            raise ValueError(f"{self.name}: write to unfilled line {line}")
        buf[offset:offset + len(data)] = data
        if self.observer is not None:
            self.observer.write(line, offset, offset + len(data))

    def fill(self, line: int, data: bytes) -> None:
        """Install a full line (refill)."""
        self.lines[line] = bytearray(data)
        if self.observer is not None:
            self.observer.fill(line)

    def invalidate(self, line: int) -> None:
        self.lines[line] = None
        if self.observer is not None:
            self.observer.invalidate(line)

    def is_filled(self, line: int) -> bool:
        return self.lines[line] is not None

    def peek_line(self, line: int) -> bytes | None:
        buf = self.lines[line]
        return bytes(buf) if buf is not None else None

    def _apply_stuck(self, line: int, buf: bytearray, cycle: int):
        out = bytearray(buf)
        for sb in self.stuck:
            if sb.entry == line and sb.active(cycle):
                byte, bit = divmod(sb.bit, 8)
                if sb.value:
                    out[byte] |= (1 << bit)
                else:
                    out[byte] &= ~(1 << bit)
        return out

    def _flip_storage(self, line: int, bit: int) -> None:
        buf = self.lines[line]
        if buf is None:
            # Physical garbage in a never-filled line: the flip cannot be
            # observed (any use is preceded by a fill).  Record nothing.
            return
        byte, bitpos = divmod(bit, 8)
        buf[byte] ^= (1 << bitpos)

    def snapshot(self):
        return ([bytes(buf) if buf is not None else None
                 for buf in self.lines],
                self._snapshot_faults())

    def restore(self, state) -> None:
        lines, faults = state
        self.lines = [bytearray(buf) if buf is not None else None
                      for buf in lines]
        self._restore_faults(faults)


class FaultSite:
    """One injectable structure exposed by a simulator.

    ``live`` answers "does entry *e* currently hold live state?" — the
    campaign controller's early-stop rule (i).  ``desc`` feeds the
    Table IV feature listing.
    """

    __slots__ = ("name", "array", "live", "desc")

    def __init__(self, name: str, array: StorageArray, live=None,
                 desc: str = ""):
        self.name = name
        self.array = array
        self.live = live if live is not None else (lambda entry: True)
        self.desc = desc or name

    @property
    def total_bits(self) -> int:
        return self.array.total_bits
