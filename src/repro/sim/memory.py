"""Flat physical memory with a page-permission map.

Both simulators and the functional reference interpreter share this
model.  Addressing is identity-mapped (virtual == physical); the page
table only carries permissions, which is all the fault study needs — the
TLB arrays in the timing simulators cache (page → page, perms) entries so
TLB tag/valid bit flips still cause wrong translations.
"""

from __future__ import annotations

import struct

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

PERM_R = 1
PERM_W = 2
PERM_X = 4
PERM_KERNEL = 8  # accessible only to kernel-mode accesses


class MemFault(Exception):
    """An architectural memory fault.

    ``kind`` is ``"pf"`` (unmapped page) or ``"gp"`` (permission
    violation).  Caught by the pipelines and delivered to the kernel
    model at commit time.
    """

    def __init__(self, kind: str, addr: int):
        super().__init__(f"{kind} @ {addr:#x}")
        self.kind = kind
        self.addr = addr


class Memory:
    """Byte-addressable memory of ``size`` bytes plus a permission map."""

    def __init__(self, size: int = 1 << 20):
        self.size = size
        self.data = bytearray(size)
        self.perms: dict[int, int] = {}
        # The pages of the last snapshot or restore: the base whose
        # unchanged pages the next snapshot shares.
        self._pages: tuple[bytes, ...] | None = None

    # -- mapping ----------------------------------------------------------

    def map_region(self, base: int, length: int, perms: int) -> None:
        """Grant *perms* to every page overlapping [base, base+length)."""
        first = base >> PAGE_SHIFT
        last = (base + length - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            self.perms[page] = perms

    def load_program(self, sections) -> None:
        for sec in sections:
            end = sec.base + len(sec.data)
            if end > self.size:
                raise ValueError(f"section at {sec.base:#x} exceeds memory")
            self.data[sec.base:end] = sec.data
            perms = PERM_R
            if sec.writable:
                perms |= PERM_W
            if sec.executable:
                perms |= PERM_X
            self.map_region(sec.base, max(len(sec.data), 1), perms)

    def check(self, addr: int, size: int, want: int, kernel: bool = False):
        """Raise :class:`MemFault` unless the access is permitted."""
        if addr < 0 or addr + size > self.size:
            raise MemFault("pf", addr)
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            perms = self.perms.get(page)
            if perms is None:
                raise MemFault("pf", addr)
            if (perms & PERM_KERNEL) and not kernel:
                raise MemFault("gp", addr)
            if not perms & want:
                raise MemFault("gp", addr)

    def page_perms(self, addr: int) -> int:
        """Permission bits for the page containing *addr* (0 if unmapped)."""
        return self.perms.get(addr >> PAGE_SHIFT, 0)

    # -- typed access (checked) -------------------------------------------

    def read(self, addr: int, size: int, kernel: bool = False) -> int:
        self.check(addr, size, PERM_R, kernel)
        if size == 4:
            return struct.unpack_from("<I", self.data, addr)[0]
        if size == 1:
            return self.data[addr]
        if size == 2:
            return struct.unpack_from("<H", self.data, addr)[0]
        raise ValueError(f"bad access size {size}")

    def write(self, addr: int, size: int, value: int,
              kernel: bool = False) -> None:
        self.check(addr, size, PERM_W, kernel)
        if size == 4:
            struct.pack_into("<I", self.data, addr, value & 0xFFFFFFFF)
        elif size == 1:
            self.data[addr] = value & 0xFF
        elif size == 2:
            struct.pack_into("<H", self.data, addr, value & 0xFFFF)
        else:
            raise ValueError(f"bad access size {size}")

    def fetch_window(self, addr: int, length: int) -> bytes:
        self.check(addr, 1, PERM_X)
        end = min(addr + length, self.size)
        return bytes(self.data[addr:end])

    # -- raw line access for the cache models (no permission checks; the
    #    pipelines check permissions at the access, not at the fill) ------

    def read_block(self, addr: int, length: int) -> bytes:
        block = bytes(self.data[addr:addr + length])
        if len(block) < length:
            # Out-of-range physical reads (only reachable through fault-
            # corrupted translations) return zero-fill, like an open bus.
            block += bytes(length - len(block))
        return block

    def write_block(self, addr: int, data: bytes) -> None:
        self.data[addr:addr + len(data)] = data

    # -- snapshot protocol ------------------------------------------------

    def snapshot(self):
        """``(pages, perms)``: the image as a tuple of ``PAGE_SIZE`` bytes.

        No writer tracks dirty pages, so each page is compared in place
        against the same page of the last snapshot or restore; an equal
        page *is* that object.  A golden run's pristine state and
        checkpoints thus hold each unchanged page once, in memory and in
        any one pickle of them.
        """
        data, base = self.data, self._pages
        offsets = range(0, self.size, PAGE_SIZE)
        with memoryview(data) as view:
            if base is None:
                pages = tuple(bytes(view[off:off + PAGE_SIZE])
                              for off in offsets)
            else:
                same = data.startswith
                pages = tuple(page if same(page, off)
                              else bytes(view[off:off + PAGE_SIZE])
                              for off, page in zip(offsets, base))
        self._pages = pages
        return (pages, dict(self.perms))

    def restore(self, state) -> None:
        pages, perms = state
        # In-place so the kernel model and caches keep their reference.
        with memoryview(self.data) as view:
            for off, page in zip(range(0, self.size, PAGE_SIZE), pages):
                view[off:off + PAGE_SIZE] = page
        self._pages = pages
        self.perms.clear()
        self.perms.update(perms)
