"""Issue queue with packed, injectable entries.

Table IV lists the Issue Queue among the injectable structures of both
tools.  The *dataflow payload* of each entry — µop kind, operation,
destination/source physical tags, ready bits, immediate, access size —
is stored packed in a :class:`WordArray`, so a bit flip genuinely changes
which registers are read, which operation executes, or which immediate is
used.  (The ROB linkage is control logic, which performance simulators do
not model as arrays; the paper scopes injection to storage arrays.)

A decoded-entry cache keyed on the array's ``fault_epoch`` keeps the
fault machinery off the no-fault hot path: while the packed array has
no stuck bits and no observer, a slot whose epoch is current is exactly
the unpacked word, so :meth:`IssueQueue.insert` fills it straight from
its arguments and :meth:`IssueQueue.wake` flips only its ready bits.
The queue also keeps a *ready list*, the slots whose decoded sources
are both ready, which issue select reads instead of scanning every
slot while the list is exact (:meth:`IssueQueue.ready_exact`).
"""

from __future__ import annotations

from repro.uarch.array import FaultSite, WordArray

KINDS = ("alu", "load", "store", "br", "jmp", "ijmp", "sys", "nop")
OPS = ("add", "sub", "and", "or", "xor", "shl", "shr", "sar", "mul", "div",
       "mod", "not", "neg", "mov", "movt", "cmp",
       "eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge",
       "none")

_KIND_BITS = 3
_OP_BITS = 5
_TAG_BITS = 9
_SIZE_BITS = 3

# Field layout, LSB first.
_OFF_KIND = 0
_OFF_OP = _OFF_KIND + _KIND_BITS
_OFF_DST = _OFF_OP + _OP_BITS
_OFF_HAS_DST = _OFF_DST + _TAG_BITS
_OFF_SRC1 = _OFF_HAS_DST + 1
_OFF_HAS_SRC1 = _OFF_SRC1 + _TAG_BITS
_OFF_RDY1 = _OFF_HAS_SRC1 + 1
_OFF_SRC2 = _OFF_RDY1 + 1
_OFF_HAS_SRC2 = _OFF_SRC2 + _TAG_BITS
_OFF_RDY2 = _OFF_HAS_SRC2 + 1
_OFF_SIZE = _OFF_RDY2 + 1
_OFF_IMM = _OFF_SIZE + _SIZE_BITS
ENTRY_BITS = _OFF_IMM + 32

_TAG_MASK = (1 << _TAG_BITS) - 1
_RDY1 = 1 << _OFF_RDY1
_RDY2 = 1 << _OFF_RDY2
_KIND_CODE = {kind: i for i, kind in enumerate(KINDS)}
_OP_CODE = {op: i << _OFF_OP for i, op in enumerate(OPS)}
_OP_CODE[None] = _OP_CODE["none"]


def static_fields(kind, op, size, imm) -> tuple:
    """The part of an entry fixed by its µop: (word, kind, op, size, imm).

    ``word`` holds the packed kind, op, size and imm bits; the others
    are the decoded slot's fields, with the masking and sign rules of
    the unpacker.  A dispatch plan computes them once per decoded
    instruction.  Raises ValueError for an unknown kind or op.
    """
    word = _KIND_CODE.get(kind)
    if word is None:
        word = KINDS.index(kind)      # raises ValueError
    op_code = _OP_CODE.get(op)
    if op_code is None:
        op_code = OPS.index(op) << _OFF_OP
    size = size & ((1 << _SIZE_BITS) - 1)
    imm = imm & 0xFFFFFFFF
    word |= op_code | size << _OFF_SIZE | imm << _OFF_IMM
    return (word, kind, op if op is not None else "none", size,
            imm - 0x100000000 if imm & 0x80000000 else imm)


class IQSlot:
    """Decoded view of one issue-queue entry plus its ROB linkage."""

    __slots__ = ("kind", "op", "dst", "src1", "rdy1", "src2", "rdy2",
                 "size", "imm", "rob", "epoch")

    def __init__(self):
        self.rob = None
        self.epoch = -1


class IssueQueue:
    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size
        self.array = WordArray(name, size, ENTRY_BITS)
        self.valid = [False] * size
        self.slots = [IQSlot() for _ in range(size)]
        self.free = list(range(size - 1, -1, -1))
        self.count = 0
        # Wakeup index: producing tag -> slot indices waiting on it.
        # Purely a scheduling accelerator; the packed array stays the
        # authoritative state (a corrupted tag can strand its consumer,
        # which deadlocks the pipeline — a realistic fault outcome).
        self.waiters: dict[int, list[int]] = {}
        # Ready list: valid slots whose decoded sources are both ready.
        # Derived state, rebuilt on restore; exact while the array has
        # stayed fault-free since, i.e. at ``ready_epoch``.
        self.ready: set[int] = set()
        self.ready_epoch = 0

    # -- decode ---------------------------------------------------------------

    def _unpack_into(self, slot: IQSlot, word: int) -> None:
        slot.kind = KINDS[word & ((1 << _KIND_BITS) - 1)]
        op_idx = (word >> _OFF_OP) & ((1 << _OP_BITS) - 1)
        slot.op = OPS[op_idx] if op_idx < len(OPS) else "none"
        slot.dst = (word >> _OFF_DST) & _TAG_MASK \
            if word & (1 << _OFF_HAS_DST) else None
        slot.src1 = (word >> _OFF_SRC1) & _TAG_MASK \
            if word & (1 << _OFF_HAS_SRC1) else None
        slot.rdy1 = bool(word & (1 << _OFF_RDY1))
        slot.src2 = (word >> _OFF_SRC2) & _TAG_MASK \
            if word & (1 << _OFF_HAS_SRC2) else None
        slot.rdy2 = bool(word & (1 << _OFF_RDY2))
        slot.size = (word >> _OFF_SIZE) & ((1 << _SIZE_BITS) - 1)
        imm = (word >> _OFF_IMM) & 0xFFFFFFFF
        slot.imm = imm - 0x100000000 if imm & 0x80000000 else imm
        slot.epoch = self.array.fault_epoch

    # -- queue operations -----------------------------------------------------

    def insert(self, rob, kind, op, dst, src1, rdy1, src2, rdy2, size,
               imm) -> int | None:
        """Allocate a slot; returns the index or None when full."""
        return self.insert_static(rob, static_fields(kind, op, size, imm),
                                  dst, src1, rdy1, src2, rdy2)

    def insert_static(self, rob, static, dst, src1, rdy1, src2,
                      rdy2) -> int | None:
        """:meth:`insert` with the µop's :func:`static_fields` precomputed.

        ORs the tags and ready bits into the static word, writes it to
        the array and fills the decoded slot from the same masked
        fields, so the slot equals what unpacking the stored word would
        give.
        """
        if not self.free:
            return None
        idx = self.free.pop()
        word, kind, op, size, imm = static
        slot = self.slots[idx]
        if dst is not None:
            dst = dst & _TAG_MASK
            word |= dst << _OFF_DST | 1 << _OFF_HAS_DST
        slot.dst = dst
        if src1 is not None:
            tag = src1 & _TAG_MASK
            word |= tag << _OFF_SRC1 | 1 << _OFF_HAS_SRC1
            rdy1 = bool(rdy1)
            if rdy1:
                word |= _RDY1
            slot.src1 = tag
        else:
            word |= _RDY1
            slot.src1 = None
            rdy1 = True
        if src2 is not None:
            tag = src2 & _TAG_MASK
            word |= tag << _OFF_SRC2 | 1 << _OFF_HAS_SRC2
            rdy2 = bool(rdy2)
            if rdy2:
                word |= _RDY2
            slot.src2 = tag
        else:
            word |= _RDY2
            slot.src2 = None
            rdy2 = True
        arr = self.array
        arr.write(idx, word)
        slot.rdy1 = rdy1
        slot.rdy2 = rdy2
        slot.kind = kind
        slot.op = op
        slot.size = size
        slot.imm = imm
        slot.epoch = arr.fault_epoch
        slot.rob = rob
        self.valid[idx] = True
        self.count += 1
        if rdy1 and rdy2:
            self.ready.add(idx)
        else:
            if not rdy1:
                self.waiters.setdefault(src1, []).append(idx)
            if not rdy2 and src2 != src1:
                self.waiters.setdefault(src2, []).append(idx)
        return idx

    def view(self, idx: int, cycle: int = 0) -> IQSlot:
        """Decoded entry; re-reads the packed word after any fault."""
        slot = self.slots[idx]
        arr = self.array
        if arr.stuck or arr.observer is not None or \
                slot.epoch != arr.fault_epoch:
            self._unpack_into(slot, arr.read(idx, cycle))
        return slot

    def wake(self, tag: int) -> None:
        """Mark sources matching a produced physical tag as ready."""
        waiting = self.waiters.pop(tag, None)
        if not waiting:
            return
        arr = self.array
        data = arr.data
        epoch = arr.fault_epoch \
            if not arr.stuck and arr.observer is None else None
        valid = self.valid
        for idx in waiting:
            if not valid[idx]:
                continue  # slot released or squashed since it enqueued
            slot = self.slots[idx]
            if slot.epoch == epoch:
                # Fault-free and current: the slot mirrors data[idx].
                word = data[idx]
                if slot.src1 == tag and not slot.rdy1:
                    word |= _RDY1
                    slot.rdy1 = True
                if slot.src2 == tag and not slot.rdy2:
                    word |= _RDY2
                    slot.rdy2 = True
                data[idx] = word
                if slot.rdy1 and slot.rdy2:
                    self.ready.add(idx)
                continue
            # The compare reads the stored tags before the write-back
            # (the word stays the peeked one: stuck bits do not apply).
            word = arr.peek(idx)
            arr.report_read(idx)
            changed = False
            if word & (1 << _OFF_HAS_SRC1) and \
                    not word & _RDY1 and \
                    ((word >> _OFF_SRC1) & _TAG_MASK) == tag:
                word |= _RDY1
                changed = True
            if word & (1 << _OFF_HAS_SRC2) and \
                    not word & _RDY2 and \
                    ((word >> _OFF_SRC2) & _TAG_MASK) == tag:
                word |= _RDY2
                changed = True
            if changed:
                arr.write(idx, word)
                self._unpack_into(self.slots[idx], word)

    def release(self, idx: int) -> None:
        self.valid[idx] = False
        self.slots[idx].rob = None
        self.free.append(idx)
        self.count -= 1
        self.ready.discard(idx)

    def ready_exact(self) -> bool:
        """True while :attr:`ready` lists exactly the valid slots whose
        decoded sources are both ready, and every valid slot is current.

        That holds while the array has no stuck bits and no observer, and
        no fault has bumped its epoch since the list was last rebuilt.
        """
        arr = self.array
        return not arr.stuck and arr.observer is None and \
            self.ready_epoch == arr.fault_epoch

    def occupied(self):
        """Indices of valid entries (oldest-first by ROB sequence)."""
        return [i for i in range(self.size) if self.valid[i]]

    def site(self) -> FaultSite:
        return FaultSite(self.name, self.array,
                         live=lambda e: self.valid[e],
                         desc=f"issue queue ({self.size} entries, packed)")

    # -- snapshot protocol ------------------------------------------------------

    def snapshot(self, copy_entry):
        """Flat state blob; *copy_entry* maps a live ROB entry into the
        snapshot's object graph (the core passes its memoised copier so
        IQ linkage, ROB list and event queues share one copy per entry).
        """
        slots = []
        for idx in range(self.size):
            if not self.valid[idx]:
                slots.append(None)
                continue
            s = self.slots[idx]
            slots.append((s.kind, s.op, s.dst, s.src1, s.rdy1, s.src2,
                          s.rdy2, s.size, s.imm, s.epoch,
                          copy_entry(s.rob)))
        return (self.array.snapshot(), tuple(self.valid), tuple(self.free),
                self.count,
                {tag: tuple(idxs) for tag, idxs in self.waiters.items()},
                slots)

    def restore(self, state, copy_entry) -> None:
        array, valid, free, count, waiters, slots = state
        self.array.restore(array)
        self.valid = list(valid)
        self.free = list(free)
        self.count = count
        self.waiters = {tag: list(idxs) for tag, idxs in waiters.items()}
        for idx, data in enumerate(slots):
            slot = self.slots[idx]
            if data is None:
                slot.rob = None
                slot.epoch = -1
                continue
            (slot.kind, slot.op, slot.dst, slot.src1, slot.rdy1, slot.src2,
             slot.rdy2, slot.size, slot.imm, slot.epoch, rob) = data
            slot.rob = copy_entry(rob)
        self._rebuild_ready()

    def _rebuild_ready(self) -> None:
        """Recompute the ready list from the slots; it is exact only if
        every valid slot is current (a slot made before a fault is not).
        """
        epoch = self.array.fault_epoch
        self.ready = set()
        current = True
        for idx, slot in enumerate(self.slots):
            if not self.valid[idx]:
                continue
            if slot.epoch != epoch:
                current = False
            elif slot.rdy1 and slot.rdy2:
                self.ready.add(idx)
        self.ready_epoch = epoch if current else -1
