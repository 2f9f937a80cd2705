"""Branch target buffers, in the two organizations of Table II.

MARSS keeps two BTBs — a 4-way 1K-entry buffer for direct branches and a
4-way 512-entry buffer for indirect branches — while gem5 keeps a single
direct-mapped 2K-entry BTB for all branches.  Entries are stored packed
(``tag | target``) in an injectable :class:`WordArray`; a flipped target
bit steers the front end down a wrong path that the execute stage later
repairs (a perf-only event, which is why BTBs barely show up in the
vulnerability figures).
"""

from __future__ import annotations

from repro.uarch.array import FaultSite, WordArray

_TAG_BITS = 16
_TARGET_BITS = 32


class BTB:
    """Set-associative (or direct-mapped) branch target buffer."""

    def __init__(self, name: str, entries: int, assoc: int):
        self.name = name
        self.entries = entries
        self.assoc = assoc
        self.sets = entries // assoc
        # Packed entry: [valid(1) | tag(16) | target(32)]
        self.array = WordArray(name, entries, 1 + _TAG_BITS + _TARGET_BITS)
        self._valid_bit = 1 << (_TAG_BITS + _TARGET_BITS)
        self.lru = [list(range(assoc)) for _ in range(self.sets)]

    def _set_tag(self, pc: int) -> tuple[int, int]:
        set_idx = (pc >> 1) % self.sets
        tag = (pc >> 1) & ((1 << _TAG_BITS) - 1)
        return set_idx, tag

    def lookup(self, pc: int, cycle: int = 0) -> int | None:
        """Predicted target for *pc*, or None on a BTB miss."""
        set_idx, tag = self._set_tag(pc)
        base = set_idx * self.assoc
        for way in range(self.assoc):
            packed = self.array.read(base + way, cycle)
            if packed & self._valid_bit and \
                    ((packed >> _TARGET_BITS) & ((1 << _TAG_BITS) - 1)) == tag:
                order = self.lru[set_idx]
                if order[0] != way:
                    order.remove(way)
                    order.insert(0, way)
                return packed & 0xFFFFFFFF
        return None

    def update(self, pc: int, target: int) -> None:
        set_idx, tag = self._set_tag(pc)
        base = set_idx * self.assoc
        victim = None
        arr = self.array
        # No lookup need precede an update, so the scan reports what it
        # reads: the way written depends on each tag and valid bit seen
        # (unless direct-mapped, where it is the one way whatever it holds).
        report = self.assoc > 1 and arr.observer is not None
        for way in range(self.assoc):
            packed = arr.peek(base + way)
            if report:
                arr.report_read(base + way)
            if packed & self._valid_bit and \
                    ((packed >> _TARGET_BITS) & ((1 << _TAG_BITS) - 1)) == tag:
                victim = way
                break
            if victim is None and not packed & self._valid_bit:
                victim = way
        if victim is None:
            victim = self.lru[set_idx][-1]
        packed = self._valid_bit | (tag << _TARGET_BITS) | \
            (target & 0xFFFFFFFF)
        self.array.write(base + victim, packed)
        order = self.lru[set_idx]
        if order[0] != victim:
            order.remove(victim)
            order.insert(0, victim)

    def site(self) -> FaultSite:
        def live(entry: int) -> bool:
            return bool(self.array.peek(entry) & self._valid_bit)
        return FaultSite(self.name, self.array, live=live,
                         desc=f"{self.name} ({self.entries} entries, "
                              f"{self.assoc}-way)")

    def snapshot(self):
        return (self.array.snapshot(), [tuple(order) for order in self.lru])

    def restore(self, state) -> None:
        array, lru = state
        self.array.restore(array)
        self.lru = [list(order) for order in lru]
