"""Instruction/data TLBs with injectable valid + tag (+ frame) bits.

Table IV lists "Data TLB — Valid, Tag" and "Instr. TLB — Valid, Tag" as
injectable in both tools.  Entries pack ``[valid | vpn-tag | pfn]``: a
flipped tag bit makes the entry match the wrong page (wrong translation)
or stop matching (extra walk); a flipped frame bit redirects accesses to
a different physical page.
"""

from __future__ import annotations

from repro.sim.memory import PAGE_SHIFT
from repro.uarch.array import FaultSite, WordArray

_VPN_BITS = 20
_PFN_BITS = 20


class TLB:
    """Fully-associative TLB with FIFO replacement."""

    def __init__(self, name: str, entries: int = 32):
        self.name = name
        self.entries = entries
        # Packed: [valid(1) | vpn(20) | pfn(20)]
        self.array = WordArray(name, entries, 1 + _VPN_BITS + _PFN_BITS)
        self._valid_bit = 1 << (_VPN_BITS + _PFN_BITS)
        self._next = 0
        # vpn -> pfn accelerator, rebuilt whenever a fault or replacement
        # touches the packed array (the array stays authoritative).
        self._lut: dict[int, int] = {}
        self._lut_epoch = 0

    def _rebuild_lut(self) -> None:
        """Map each valid VPN to the pfn of its *first* entry.

        The array scan in :meth:`translate` returns the first match, so
        when a fault makes two entries hold one VPN the table must too.
        """
        lut = self._lut
        lut.clear()
        for i in range(self.entries):
            packed = self.array.peek(i)
            if packed & self._valid_bit:
                vpn = (packed >> _PFN_BITS) & ((1 << _VPN_BITS) - 1)
                if vpn not in lut:
                    lut[vpn] = packed & ((1 << _PFN_BITS) - 1)
        self._lut_epoch = self.array.fault_epoch

    def translate(self, addr: int, cycle: int = 0) -> int | None:
        """Physical address for *addr*, or None on a TLB miss."""
        vpn = (addr >> PAGE_SHIFT) & ((1 << _VPN_BITS) - 1)
        arr = self.array
        if not arr.stuck and arr.observer is None:
            if self._lut_epoch != arr.fault_epoch:
                self._rebuild_lut()
            pfn = self._lut.get(vpn)
            if pfn is None:
                return None
            return (pfn << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1))
        for i in range(self.entries):
            packed = arr.read(i, cycle)
            if packed & self._valid_bit and \
                    ((packed >> _PFN_BITS) & ((1 << _VPN_BITS) - 1)) == vpn:
                pfn = packed & ((1 << _PFN_BITS) - 1)
                return (pfn << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1))
        return None

    def insert(self, addr: int, paddr: int) -> None:
        vpn = (addr >> PAGE_SHIFT) & ((1 << _VPN_BITS) - 1)
        pfn = (paddr >> PAGE_SHIFT) & ((1 << _PFN_BITS) - 1)
        packed = self._valid_bit | (vpn << _PFN_BITS) | pfn
        self.array.write(self._next, packed)
        self._next = (self._next + 1) % self.entries
        # Rebuilt rather than patched: the evicted VPN may still be held
        # by an entry a fault aliased to it, and the new VPN may already
        # be held by an earlier one.  TLBs miss a few times per run.
        self._rebuild_lut()

    def site(self) -> FaultSite:
        def live(entry: int) -> bool:
            return bool(self.array.peek(entry) & self._valid_bit)
        return FaultSite(self.name, self.array, live=live,
                         desc=f"{self.name} valid+tag+frame "
                              f"({self.entries} entries)")

    def snapshot(self):
        # The LUT must travel with the array: its epoch can match the
        # restored fault_epoch while its contents are stale, which would
        # silently turn hits into misses (a timing divergence).
        return (self.array.snapshot(), self._next, dict(self._lut),
                self._lut_epoch)

    def restore(self, state) -> None:
        array, nxt, lut, lut_epoch = state
        self.array.restore(array)
        self._next = nxt
        self._lut = dict(lut)
        self._lut_epoch = lut_epoch
