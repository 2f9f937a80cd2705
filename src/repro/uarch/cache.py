"""Set-associative cache with injectable data and tag arrays.

Two write policies, matching the two simulators (§III.C and DESIGN.md):

* ``mirror=False`` (gem5-like): a true **write-back** cache.  Stores dirty
  lines; dirty evictions propagate (possibly corrupted) data downwards.
* ``mirror=True`` (MARSS-like): the data array is a **mirror** of
  architecturally-current memory, the way the paper had to bolt data
  arrays onto MARSS next to QEMU's own memory image.  Stores update every
  resident copy *and* main memory; evictions discard the line (memory is
  already current), so a fault that is never loaded again dies with the
  line — one of MaFIN's extra masking mechanisms.

The cache is purely a *state* model: hit/miss decisions, replacement and
data movement.  The pipelines assign latencies and keep statistics.
"""

from __future__ import annotations

from repro.uarch.array import FaultSite, LineArray, WordArray


class Cache:
    def __init__(self, name: str, size: int, assoc: int, line_size: int,
                 mirror: bool = False):
        if size % (assoc * line_size):
            raise ValueError(f"{name}: size not divisible by way size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.mirror = mirror
        self.sets = size // (assoc * line_size)
        self.off_bits = line_size.bit_length() - 1
        self.set_bits = self.sets.bit_length() - 1
        self.tag_shift = self.off_bits + self.set_bits
        nlines = self.sets * assoc
        self.data = LineArray(name, nlines, line_size)
        # Packed tag entry: [dirty | valid | tag]; flipping a tag bit
        # causes false misses/hits, flipping valid drops a line.
        self.tag_bits = 32 - self.tag_shift
        self.tags = WordArray(name + "_tag", nlines, self.tag_bits + 2)
        self._valid_bit = 1 << self.tag_bits
        self._dirty_bit = 1 << (self.tag_bits + 1)
        self._tag_mask = (1 << self.tag_bits) - 1
        # A hit matches the valid bit and the tag; the dirty bit is ignored.
        self._hit_mask = self._valid_bit | self._tag_mask
        self._set_mask = self.sets - 1
        self._off_mask = line_size - 1
        # MRU-first replacement order per set.
        self.lru = [list(range(assoc)) for _ in range(self.sets)]

    # -- address helpers ---------------------------------------------------

    def set_of(self, addr: int) -> int:
        return (addr >> self.off_bits) & (self.sets - 1)

    def tag_of(self, addr: int) -> int:
        return (addr >> self.tag_shift) & ((1 << self.tag_bits) - 1)

    def line_base(self, addr: int) -> int:
        return addr & ~(self.line_size - 1)

    def line_index(self, set_idx: int, way: int) -> int:
        return set_idx * self.assoc + way

    def addr_of_line(self, line: int, cycle: int = 0) -> int:
        """Reconstruct the base address stored in a line's tag."""
        set_idx, way = divmod(line, self.assoc)
        packed = self.tags.peek(line)
        tag = packed & ((1 << self.tag_bits) - 1)
        return (tag << self.tag_shift) | (set_idx << self.off_bits)

    # -- lookup / access ------------------------------------------------------

    def lookup(self, addr: int, cycle: int = 0) -> int | None:
        """Return the hitting way, or None.  Reads the tag array.

        A fault-free tag array (no stuck bits, no observer) is scanned
        directly; otherwise every way goes through ``WordArray.read``.
        """
        assoc = self.assoc
        base = ((addr >> self.off_bits) & self._set_mask) * assoc
        want = ((addr >> self.tag_shift) & self._tag_mask) | self._valid_bit
        field = self._hit_mask
        tags = self.tags
        if not tags.stuck and tags.observer is None:
            data = tags.data
            for way in range(assoc):
                if data[base + way] & field == want:
                    return way
            return None
        for way in range(assoc):
            if tags.read(base + way, cycle) & field == want:
                return way
        return None

    def probe(self, addr: int, cycle: int = 0) -> int | None:
        """:meth:`lookup`, and on a hit make the way most recently used."""
        way = self.lookup(addr, cycle)
        if way is not None:
            self.touch((addr >> self.off_bits) & self._set_mask, way)
        return way

    def touch(self, set_idx: int, way: int) -> None:
        order = self.lru[set_idx]
        if order[0] != way:
            order.remove(way)
            order.insert(0, way)

    def read_data(self, addr: int, size: int, way: int,
                  cycle: int = 0) -> bytes:
        line = ((addr >> self.off_bits) & self._set_mask) * self.assoc + way
        return self.data.read_bytes(line, addr & self._off_mask, size, cycle)

    def write_data(self, addr: int, data: bytes, way: int,
                   set_dirty: bool = True) -> None:
        line = self.line_index(self.set_of(addr), way)
        offset = addr & (self.line_size - 1)
        self.data.write_bytes(line, offset, data)
        if set_dirty and not self.mirror:
            # The lookup that found *way* read this tag entry.
            self.tags.write(line, self.tags.peek(line) | self._dirty_bit)

    def is_dirty(self, line: int) -> bool:
        return bool(self.tags.peek(line) & self._dirty_bit)

    def is_valid_line(self, line: int) -> bool:
        return bool(self.tags.peek(line) & self._valid_bit)

    # -- fill / evict ------------------------------------------------------------

    def victim_way(self, set_idx: int) -> int:
        # Every fill follows a lookup of this set that missed, and so
        # read each way's tag entry, in the same cycle.
        base = set_idx * self.assoc
        for way in range(self.assoc):
            if not self.tags.peek(base + way) & self._valid_bit:
                return way
        return self.lru[set_idx][-1]

    def evict(self, set_idx: int, way: int, consume: bool = True):
        """Remove a line; returns (addr, data, dirty) or None if invalid.

        In mirror mode the data is discarded without reading it (memory
        is current), so a resident fault dies unobserved; in write-back
        mode a dirty line's data is read out for the writeback.
        """
        line = self.line_index(set_idx, way)
        # Only fill calls this: see victim_way for the read before it.
        packed = self.tags.peek(line)
        if not packed & self._valid_bit:
            return None
        tag = packed & ((1 << self.tag_bits) - 1)
        addr = (tag << self.tag_shift) | (set_idx << self.off_bits)
        dirty = bool(packed & self._dirty_bit)
        data = None
        if dirty and not self.mirror and consume:
            data = self.data.read_bytes(line, 0, self.line_size)
        self.tags.write(line, 0)
        self.data.invalidate(line)
        return (addr, data, dirty)

    def fill(self, addr: int, line_data: bytes, cycle: int = 0):
        """Install *line_data* at *addr*; returns the eviction (if any)."""
        set_idx = self.set_of(addr)
        way = self.victim_way(set_idx)
        evicted = self.evict(set_idx, way)
        line = self.line_index(set_idx, way)
        self.tags.write(line, self.tag_of(addr) | self._valid_bit)
        self.data.fill(line, line_data)
        self.touch(set_idx, way)
        return evicted

    # -- fault-injection support -----------------------------------------------------

    def data_site(self) -> FaultSite:
        return FaultSite(self.name, self.data,
                         live=self.data.is_filled,
                         desc=f"{self.name} data array "
                              f"({self.size}B, {self.assoc}-way)")

    def tag_site(self) -> FaultSite:
        return FaultSite(self.name + "_tag", self.tags,
                         live=self.is_valid_line,
                         desc=f"{self.name} tag/valid/dirty array")

    def occupancy(self) -> int:
        """Number of valid lines (used by tests and reports)."""
        return sum(1 for i in range(self.tags.entries)
                   if self.tags.peek(i) & self._valid_bit)

    # -- snapshot protocol -----------------------------------------------------

    def snapshot(self):
        return (self.data.snapshot(), self.tags.snapshot(),
                [tuple(order) for order in self.lru])

    def restore(self, state) -> None:
        data, tags, lru = state
        self.data.restore(data)
        self.tags.restore(tags)
        self.lru = [list(order) for order in lru]
