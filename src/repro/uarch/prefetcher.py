"""Stride prefetcher — the "New" MaFIN components of Table IV.

The paper *added* L1D and L1I prefetchers to MARSS ("Enhancement of the
x86 model of MARSS with new components (performance related) to fully
resemble a modern design") and made them injectable.  This is a classic
PC/region-indexed stride table: ``[valid | tag | last_addr | stride |
confidence]`` packed into an injectable :class:`WordArray`.  A corrupted
stride or last-address launches prefetches of the wrong lines — again a
perf/pollution effect rather than a correctness one.
"""

from __future__ import annotations

from repro.uarch.array import FaultSite, WordArray

_TAG_BITS = 10
_ADDR_BITS = 32
_STRIDE_BITS = 12  # signed


class StridePrefetcher:
    """Train on an access stream; emit prefetch addresses on confidence."""

    def __init__(self, name: str, entries: int = 16, line_size: int = 64):
        self.name = name
        self.entries = entries
        self.line_size = line_size
        # Packed: [valid | tag | last(32) | stride(12) | conf(2)]
        self.array = WordArray(
            name, entries, 1 + _TAG_BITS + _ADDR_BITS + _STRIDE_BITS + 2)
        self._conf_shift = 0
        self._stride_shift = 2
        self._last_shift = 2 + _STRIDE_BITS
        self._tag_shift = self._last_shift + _ADDR_BITS
        self._valid_bit = 1 << (self._tag_shift + _TAG_BITS)

    def train(self, key: int, addr: int, cycle: int = 0) -> int | None:
        """Observe an access; returns a prefetch address or None.

        The entry is rewritten as ``[valid | tag | addr | stride | conf]``;
        an unknown or mismatching entry, or a stride out of range,
        restarts with stride and confidence 0.
        """
        entries = self.entries
        idx = key % entries
        tag = (key // entries) % (1 << _TAG_BITS)
        arr = self.array
        if arr.stuck or arr.observer is not None:
            packed = arr.read(idx, cycle)
        else:
            packed = arr.data[idx]
            # The entry already holds [valid | tag | addr | 0 | 0]: the
            # update below would find delta 0 (out of range for an addr
            # of 2^32 or more), so stride 0, confidence 0, no target,
            # and rebuild the word stored, which it does not rewrite.
            if packed == self._valid_bit | tag << self._tag_shift | \
                    (addr & 0xFFFFFFFF) << self._last_shift:
                return None
        new_stride = conf = 0
        target = None
        if packed & self._valid_bit and \
                (packed >> self._tag_shift) & ((1 << _TAG_BITS) - 1) == tag:
            last = (packed >> self._last_shift) & 0xFFFFFFFF
            stride_raw = (packed >> self._stride_shift) & \
                ((1 << _STRIDE_BITS) - 1)
            stride = stride_raw - (1 << _STRIDE_BITS) \
                if stride_raw & (1 << (_STRIDE_BITS - 1)) else stride_raw
            delta = addr - last
            if -(1 << (_STRIDE_BITS - 1)) <= delta < (1 << (_STRIDE_BITS - 1)):
                new_stride = delta
                if delta == stride and stride != 0:
                    conf = min((packed & 3) + 1, 3)
                if conf >= 2:
                    target = (addr + delta) & 0xFFFFFFFF
        packed = self._valid_bit | (tag << self._tag_shift) | \
            ((addr & 0xFFFFFFFF) << self._last_shift) | \
            ((new_stride & ((1 << _STRIDE_BITS) - 1)) << self._stride_shift) \
            | conf
        # Re-storing the word already held changes nothing unless an
        # observer hears the write (a watch counts it as an overwrite).
        if arr.observer is not None or arr.data[idx] != packed:
            arr.write(idx, packed)
        return target

    def site(self) -> FaultSite:
        def live(entry: int) -> bool:
            return bool(self.array.peek(entry) & self._valid_bit)
        return FaultSite(self.name, self.array, live=live,
                         desc=f"{self.name} stride table ({self.entries})")

    def snapshot(self):
        return self.array.snapshot()

    def restore(self, state) -> None:
        self.array.restore(state)
