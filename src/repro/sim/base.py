"""Cycle-level out-of-order core shared by the two simulators.

This module is the substrate the fault injectors run on: a full-system,
cycle-level OoO pipeline (fetch/decode with branch prediction through a
real L1I, rename onto a physical register file, issue queue scheduling,
split/unified LSQ with store-to-load forwarding, precise squash on
mispredictions and memory-order violations, commit with architectural
exceptions and syscalls) in which *every array-shaped structure* is an
injectable :class:`~repro.uarch.array.StorageArray`.

The MARSS-like and gem5-like personalities subclass this core and differ
only in the knobs of :class:`~repro.sim.config.SimConfig` — write-policy
(mirror vs write-back), hypervisor vs in-simulator system activity, load
issue aggressiveness, predictor indexing, BTB organization, assertion
density, prefetchers — exactly the implementation differences the paper
identifies as the sources of diverging reliability reports.
"""

from __future__ import annotations

import struct

from repro.errors import SimAssertError, SimCrashError
from repro.isa import arm as arm_isa
from repro.isa import x86 as x86_isa
from repro.isa.common import (BRANCH_CONDS, NUM_ARCH_REGS, ArithFault,
                              Instr, UOp, alu_exec, cond_holds, u32)
from repro.sim.kernel import Kernel, KernelPanic, ProcessExit, ProcessKilled
from repro.sim.memory import MemFault, Memory, PAGE_SHIFT, PERM_R, PERM_W, \
    PERM_X
from repro.sim.stats import new_stats
from repro.uarch.array import FaultSite, WordArray
from repro.uarch.btb import BTB
from repro.uarch.cache import Cache
from repro.uarch.issueq import IssueQueue, static_fields
from repro.uarch.predictor import TournamentPredictor
from repro.uarch.prefetcher import StridePrefetcher
from repro.uarch.ras import RAS
from repro.uarch.tlb import TLB

_ISA_MODULES = {"x86": x86_isa, "arm": arm_isa}

_ALU_LAT = {"mul": 3, "div": 12, "mod": 12}
# Ops that take a complex-ALU port at issue.
_COMPLEX_OPS = frozenset(_ALU_LAT)
# IQ op codes that no ALU can execute (reachable only through a
# corrupted issue-queue entry).
_NOT_ALU_OPS = frozenset(("eq", "ne", "lt", "le", "gt", "ge", "ult", "ule",
                          "ugt", "uge", "none"))

# Module-level decode memo: decoding is a pure function of the fetched
# bytes, so entries are safe to share across runs and simulators.
_DECODE_CACHE: dict = {}
_DECODE_CACHE_MAX = 1 << 16


def _dispatch_plan(instr) -> tuple:
    """Build and keep *instr*'s dispatch plan; see :attr:`Instr.plan`.

    ``(nuops, need_iq, nloads, nstores, ndst, uops)``: the resources
    :meth:`OoOCore._has_resources` checks, then one ``(uop, kind, src1,
    src2, dst, iq_static)`` per µop with its first two architectural
    sources, its architectural destination and, for a µop that enters
    the issue queue, its :func:`~repro.uarch.issueq.static_fields`.
    A decoded instruction never changes, so neither does its plan.
    """
    uops = []
    for uop in instr.uops:
        kind = uop.kind
        srcs = uop.srcs()
        uops.append((uop, kind,
                     srcs[0] if srcs else None,
                     srcs[1] if len(srcs) > 1 else None,
                     uop.dst(),
                     None if kind in ("sys", "nop")
                     else static_fields(kind, uop.op, uop.size, uop.imm)))
    plan = (max(len(uops), 1),
            sum(1 for u in uops if u[5] is not None),
            sum(1 for u in uops if u[1] == "load"),
            sum(1 for u in uops if u[1] == "store"),
            sum(1 for u in uops if u[4] is not None),
            tuple(uops))
    instr.plan = plan
    return plan


class RobEntry:
    __slots__ = (
        "seq", "uop", "pc", "instr", "state", "value", "dst_arch",
        "dst_phys", "old_phys", "iq_idx", "lsq", "fault", "fault_addr",
        "pred", "taken", "target", "fallthrough", "snapshot", "first",
        "last", "align_event", "is_wrongpath_marker", "retry_epoch",
    )

    def __init__(self, seq, uop, pc, instr):
        self.seq = seq
        self.uop = uop
        self.pc = pc
        self.instr = instr
        self.state = 0            # 0 waiting, 1 executing, 2 done
        self.value = None
        self.dst_arch = None
        self.dst_phys = None
        self.old_phys = None
        self.iq_idx = None
        self.lsq = None
        self.fault = None
        self.fault_addr = 0
        self.pred = None          # (taken, target) recorded at fetch
        self.taken = None         # actual outcome at execute
        self.target = None
        self.fallthrough = 0
        self.snapshot = None      # (map copy, ras_top, ras_depth) at instr
        self.first = False
        self.last = False
        self.align_event = False
        self.is_wrongpath_marker = False
        self.retry_epoch = -1


class LsqEntry:
    __slots__ = ("seq", "is_store", "addr", "size", "slot", "resolved",
                 "executed", "rob", "kernel")

    def __init__(self, seq, is_store, slot, rob):
        self.seq = seq
        self.is_store = is_store
        self.addr = None
        self.size = 4
        self.slot = slot
        self.resolved = False
        self.executed = False
        self.rob = rob
        self.kernel = False


def _copy_rob_entry(entry, memo):
    """Copy one in-flight ROB entry, preserving graph identity via *memo*.

    The in-flight object graph is cyclic (RobEntry.lsq ↔ LsqEntry.rob,
    and the ROB, event queues and IQ slots alias the same entries), so
    snapshot and restore both route every entry reference through one
    memo per pass.  `uop`/`instr` are immutable and `pred`/`snapshot`
    tuples are copied-on-use by the core, so all four are shared.
    """
    if entry is None:
        return None
    dup = memo.get(id(entry))
    if dup is not None:
        return dup
    dup = RobEntry.__new__(RobEntry)
    memo[id(entry)] = dup
    dup.seq = entry.seq
    dup.uop = entry.uop
    dup.pc = entry.pc
    dup.instr = entry.instr
    dup.state = entry.state
    dup.value = entry.value
    dup.dst_arch = entry.dst_arch
    dup.dst_phys = entry.dst_phys
    dup.old_phys = entry.old_phys
    dup.iq_idx = entry.iq_idx
    dup.lsq = _copy_lsq_entry(entry.lsq, memo)
    dup.fault = entry.fault
    dup.fault_addr = entry.fault_addr
    dup.pred = entry.pred
    dup.taken = entry.taken
    dup.target = entry.target
    dup.fallthrough = entry.fallthrough
    dup.snapshot = entry.snapshot
    dup.first = entry.first
    dup.last = entry.last
    dup.align_event = entry.align_event
    dup.is_wrongpath_marker = entry.is_wrongpath_marker
    dup.retry_epoch = entry.retry_epoch
    return dup


def _copy_lsq_entry(entry, memo):
    if entry is None:
        return None
    dup = memo.get(id(entry))
    if dup is not None:
        return dup
    dup = LsqEntry.__new__(LsqEntry)
    memo[id(entry)] = dup
    dup.seq = entry.seq
    dup.is_store = entry.is_store
    dup.addr = entry.addr
    dup.size = entry.size
    dup.slot = entry.slot
    dup.resolved = entry.resolved
    dup.executed = entry.executed
    dup.rob = _copy_rob_entry(entry.rob, memo)
    dup.kernel = entry.kernel
    return dup


class RunOutcome:
    """Result of a timing-simulator run (consumed by the injectors)."""

    def __init__(self, reason, exit_code, output, events, stats, cycles,
                 signal=None, detail=""):
        self.reason = reason      # exit|killed|panic|deadlock|cycle-limit
        self.exit_code = exit_code
        self.output = output
        self.events = events
        self.stats = stats
        self.cycles = cycles
        self.signal = signal
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.reason == "exit"

    def __repr__(self):
        return (f"RunOutcome({self.reason}, exit={self.exit_code}, "
                f"cycles={self.cycles})")


class OoOCore:
    """One simulated machine instance running one program."""

    def __init__(self, program, config):
        if program.isa != config.isa:
            raise ValueError(
                f"program is {program.isa}, config wants {config.isa}")
        self.config = config
        self.program = program
        self.max_ilen = _ISA_MODULES[config.isa].MAX_ILEN

        self.mem = Memory(config.mem_size)
        self.mem.load_program(program.sections)
        self.kernel = Kernel(self.mem, config.isa)
        self._init_page_table()

        # Memory hierarchy.
        mirror = config.mirror_caches
        self.l1i = Cache("l1i", config.l1i.size, config.l1i.assoc,
                         config.l1i.line_size, mirror=mirror)
        self.l1d = Cache("l1d", config.l1d.size, config.l1d.assoc,
                         config.l1d.line_size, mirror=mirror)
        self.l2 = Cache("l2", config.l2.size, config.l2.assoc,
                        config.l2.line_size, mirror=mirror)
        self.itlb = TLB("itlb", config.itlb_entries)
        self.dtlb = TLB("dtlb", config.dtlb_entries)

        # Front end.
        self.predictor = TournamentPredictor(
            config.predictor_local, config.predictor_global,
            scheme=config.predictor_scheme)
        self.btb = BTB("btb", config.btb_direct.entries,
                       config.btb_direct.assoc)
        self.btb_ind = (BTB("btb_ind", config.btb_indirect.entries,
                            config.btb_indirect.assoc)
                        if config.btb_indirect else None)
        self.ras = RAS(entries=config.ras_entries)
        if config.prefetchers:
            self.l1d_pref = StridePrefetcher("l1d_pref",
                                             line_size=config.l1d.line_size)
            self.l1i_pref = StridePrefetcher("l1i_pref",
                                             line_size=config.l1i.line_size)
        else:
            self.l1d_pref = None
            self.l1i_pref = None

        # Register files and renaming.
        n = config.phys_int_regs
        self.prf = WordArray("int_rf", n, 32)
        self.prf_ready = [False] * n
        self.fp_rf = WordArray("fp_rf", config.phys_fp_regs, 32)
        self.map = [0] * NUM_ARCH_REGS
        self.committed_map = [0] * NUM_ARCH_REGS
        self.free_list = list(range(n - 1, NUM_ARCH_REGS - 1, -1))
        for areg in range(NUM_ARCH_REGS):
            self.map[areg] = areg
            self.committed_map[areg] = areg
            self.prf_ready[areg] = True
        sp = x86_isa.SP if config.isa == "x86" else arm_isa.SP
        self.prf.write(self.map[sp], self.kernel.stack_top)

        # Back end.
        self.iq = IssueQueue("iq", config.iq_size)
        self.rob: list[RobEntry] = []
        self.seq = 0
        self.lsq: list[LsqEntry] = []
        if config.lsq_unified:
            self.lsq_data = WordArray("lsq", config.lsq_size, 32)
            self._lsq_free = list(range(config.lsq_size - 1, -1, -1))
            self._sq_free = None
        else:
            # Split queues: only the store queue holds data (Remark 1).
            self.lsq_data = WordArray("lsq", config.lsq_size, 32)
            self._sq_free = list(range(config.lsq_size - 1, -1, -1))
            self._lq_count = 0

        # Execution bookkeeping.
        self.events: dict[int, list] = {}
        self.fu_busy = {"alu": 0, "mul": 0, "mem": 0}
        self.cycle = 0
        self.fetch_pc = program.entry
        self.fetch_resume = 0
        self.fetch_halted = False
        self.commit_stall_until = 0
        self.last_commit_cycle = 0
        self.stats = new_stats()
        self.finished: RunOutcome | None = None
        self._store_epoch = 0     # bumped when stores resolve/retire
        self._fetch_buf = None    # (pc, instr) pending for resources
        self._fetch_missed = False
        self._kernel_lat = 0
        self._faulty = False      # set by the injector; gates crash policy
        self._fault_sites = None  # lazily built by fault_sites()

    @property
    def isa(self):
        """ISA module (resolved dynamically so machines stay picklable)."""
        return _ISA_MODULES[self.config.isa]

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _init_page_table(self) -> None:
        """Write identity PTEs into the kernel page.

        gem5-style TLB walks read these through the data cache, so cached
        PTE corruption causes wrong translations; MARSS-style walks go to
        the hypervisor's memory directly.
        """
        self.pte_base = self.kernel.kdata_base + 256
        npages = self.mem.size >> PAGE_SHIFT
        for vpn in range(npages):
            struct.pack_into("<I", self.mem.data, self.pte_base + vpn * 4,
                             vpn)

    # ------------------------------------------------------------------
    # Simulator-identity hooks
    # ------------------------------------------------------------------

    def check(self, cond: bool, msg: str) -> None:
        """Dense (MARSS) assertion checking; sparse in gem5 subclass."""
        raise NotImplementedError

    def sites_extra(self) -> list[FaultSite]:
        return []

    # ------------------------------------------------------------------
    # Fault-site registry
    # ------------------------------------------------------------------

    def fault_sites(self) -> dict[str, FaultSite]:
        """All injectable structures of this machine (Table IV).

        Built once per machine and cached: the sites close over this
        machine and its arrays, both of which :meth:`restore` updates in
        place, so the cache stays valid across checkpoint restores.
        """
        if self._fault_sites is not None:
            return self._fault_sites

        def reg_live(entry: int) -> bool:
            return entry not in self._free_set()

        sites = [
            FaultSite("int_rf", self.prf, live=reg_live,
                      desc=f"integer physical register file "
                           f"({self.prf.entries}x32)"),
            FaultSite("fp_rf", self.fp_rf, live=lambda e: False,
                      desc=f"FP physical register file "
                           f"({self.fp_rf.entries}x32)"),
            self.l1d.data_site(), self.l1d.tag_site(),
            self.l1i.data_site(), self.l1i.tag_site(),
            self.l2.data_site(), self.l2.tag_site(),
            FaultSite("lsq", self.lsq_data, live=self._lsq_slot_live,
                      desc="load/store queue data field"),
            self.iq.site(),
            self.itlb.site(), self.dtlb.site(),
            self.btb.site(), self.ras.site(),
        ]
        if self.btb_ind:
            sites.append(self.btb_ind.site())
        if self.l1d_pref:
            sites.append(self.l1d_pref.site())
            sites.append(self.l1i_pref.site())
        sites.extend(self.sites_extra())
        self._fault_sites = {s.name: s for s in sites}
        return self._fault_sites

    def _free_set(self):
        return set(self.free_list)

    def _lsq_slot_live(self, slot: int) -> bool:
        return any(e.slot == slot and e.resolved for e in self.lsq)

    # ------------------------------------------------------------------
    # Memory hierarchy
    # ------------------------------------------------------------------

    def _translate(self, va: int, tlb: TLB, instruction: bool) -> tuple[int, int]:
        """(physical address, latency); inserts on miss."""
        pa = tlb.translate(va, self.cycle)
        if pa is not None:
            return pa, 0
        return self._translate_miss(va, tlb, instruction)

    def _translate_miss(self, va: int, tlb: TLB,
                        instruction: bool) -> tuple[int, int]:
        """Walk the page table for a TLB miss and insert the result."""
        self.stats["itlb_miss" if instruction else "dtlb_miss"] += 1
        lat, pfn = self._walk(va)
        pa = (pfn << PAGE_SHIFT) | (va & ((1 << PAGE_SHIFT) - 1))
        tlb.insert(va, pa)
        return pa, lat

    def _walk(self, va: int) -> tuple[int, int]:
        """Page-table walk; returns (latency, pfn)."""
        vpn = (va >> PAGE_SHIFT) % (self.mem.size >> PAGE_SHIFT)
        pte_addr = self.pte_base + vpn * 4
        if self.config.hypervisor:
            # QEMU services the walk against its own memory image.
            self.stats["hypervisor_ops"] += 1
            pfn = self.mem.read(pte_addr, 4, kernel=True)
            return self.config.hypervisor_latency // 4, pfn & 0xFFFFF
        # The walker uses physical addresses directly (no recursion into
        # the TLB), but reads the PTE through the data-cache hierarchy —
        # gem5-style cached walks, so cached PTE corruption mistranslates.
        lat, pfn = self._cached_access_pa(pte_addr, 4, False)
        self.stats["kernel_cache_accesses"] += 1
        return lat + 2, pfn & 0xFFFFF

    def _line_present_l1(self, cache: Cache, pa: int, is_write: bool,
                         instruction: bool = False):
        """Ensure the line holding *pa* is in *cache*; (latency, way).

        On a hit the way is the one the lookup found: nothing changes
        between that lookup and the caller's data access, and a watched
        read is idempotent, so looking it up again would be redundant.
        """
        way = cache.probe(pa, self.cycle)
        if way is None:
            return self._l1_fill(cache, pa, is_write, instruction)
        if instruction:
            self.stats["l1i_hit"] += 1
        elif is_write:
            self.stats["l1d_write_hit"] += 1
        else:
            self.stats["l1d_read_hit"] += 1
        return self.config.l1_latency, way

    def _l1_fill(self, cache: Cache, pa: int, is_write: bool,
                 instruction: bool):
        """L1 miss: fill the line from L2 or memory; (latency, way).

        The way comes from a fresh tag lookup after the fill; it is None
        only when a fault made the filled line unreachable.
        """
        cfg = self.config
        stats = self.stats
        if instruction:
            stats["l1i_miss"] += 1
        elif is_write:
            stats["l1d_write_miss"] += 1
        else:
            stats["l1d_read_miss"] += 1
        line_addr = cache.line_base(pa)
        lat, line_data = self._l2_fetch_line(line_addr, is_write)
        evicted = cache.fill(line_addr, line_data, self.cycle)
        if evicted is not None:
            stats["l1i_replacements" if instruction
                  else "l1d_replacements"] += 1
            self._handle_eviction(evicted, from_l1=True)
        return cfg.l1_latency + lat, cache.lookup(pa, self.cycle)

    def _l2_fetch_line(self, line_addr: int, is_write: bool):
        """Line bytes for an L1 fill, from L2 or memory; (latency, data)."""
        cfg = self.config
        stats = self.stats
        way = self.l2.probe(line_addr, self.cycle)
        if way is not None:
            stats["l2_write_hit" if is_write else "l2_read_hit"] += 1
            data = self.l2.read_data(line_addr, self.l2.line_size, way,
                                     self.cycle)
            return cfg.l2_latency, data
        stats["l2_write_miss" if is_write else "l2_read_miss"] += 1
        data = self.mem.read_block(line_addr, self.l2.line_size)
        evicted = self.l2.fill(line_addr, data, self.cycle)
        if evicted is not None:
            stats["l2_replacements"] += 1
            self._handle_eviction(evicted, from_l1=False)
        return cfg.l2_latency + cfg.mem_latency, data

    def _handle_eviction(self, evicted, from_l1: bool) -> None:
        addr, data, dirty = evicted
        if not dirty or data is None:
            return  # clean line, or mirror mode (memory already current)
        if from_l1:
            # Write the victim line back into L2 (allocating if needed).
            self.stats["l1d_writebacks"] += 1
            way = self.l2.lookup(addr, self.cycle)
            if way is None:
                ev2 = self.l2.fill(addr, data, self.cycle)
                line = self.l2.line_index(self.l2.set_of(addr),
                                          self.l2.lookup(addr, self.cycle))
                # That lookup read the tag entry it hit.
                self.l2.tags.write(line, self.l2.tags.peek(line) |
                                   self.l2._dirty_bit)
                if ev2 is not None:
                    self.stats["l2_replacements"] += 1
                    self._handle_eviction(ev2, from_l1=False)
            else:
                self.l2.write_data(addr, data, way, set_dirty=True)
        else:
            self.stats["l2_writebacks"] += 1
            self.mem.write_block(addr, data)

    def _cached_access(self, va: int, size: int, is_write: bool,
                       value: int = 0, kernel: bool = False):
        """One data access through dTLB + L1D/L2; returns (lat, value).

        Handles line-crossing accesses by splitting.  Mirror mode keeps
        every resident copy plus memory current on writes.
        """
        pa, tlat = self._translate(va, self.dtlb, instruction=False)
        lat, value = self._cached_access_pa(pa, size, is_write, value)
        if self.l1d_pref is not None and not kernel:
            self._train_prefetcher(self.l1d_pref, self.l1d, va,
                                   pa & (self.mem.size - 1))
        return lat + tlat, value

    def _cached_access_pa(self, pa: int, size: int, is_write: bool,
                          value: int = 0):
        """Physically-addressed access through L1D/L2; (lat, value)."""
        pa &= self.mem.size - 1   # corrupted translations stay on-chip
        l1d = self.l1d
        cycle = self.cycle
        lat = 0
        line_size = l1d.line_size
        total = b""
        remaining = size
        addr = pa
        data_bytes = value.to_bytes(size, "little") if is_write else None
        off_in_value = 0
        while remaining > 0:
            in_line = min(remaining, line_size - (addr & (line_size - 1)))
            line_lat, way = self._line_present_l1(l1d, addr, is_write)
            lat += line_lat
            if way is None:
                self.check(False, "L1D line vanished during access")
                raise SimCrashError("L1D line vanished during access")
            if is_write:
                chunk = data_bytes[off_in_value:off_in_value + in_line]
                l1d.write_data(addr, chunk, way)
                if self.config.mirror_caches:
                    # Mirror semantics: update L2 copy and memory too.
                    l2way = self.l2.lookup(addr, cycle)
                    if l2way is not None:
                        self.l2.write_data(addr, chunk, l2way,
                                           set_dirty=False)
                    self.mem.write_block(addr, chunk)
            else:
                total += l1d.read_data(addr, in_line, way, cycle)
            addr += in_line
            off_in_value += in_line
            remaining -= in_line
        if is_write:
            return lat, None
        return lat, int.from_bytes(total, "little")

    def _train_prefetcher(self, pref: StridePrefetcher, cache: Cache,
                          key_addr: int, pa: int) -> None:
        target = pref.train((key_addr >> 4) & 0xFFFF,
                            pa & ~(cache.line_size - 1), self.cycle)
        if target is None:
            return
        target &= self.mem.size - 1
        if cache.lookup(target, self.cycle) is None:
            self.stats["prefetches_issued"] += 1
            _lat, data = self._l2_fetch_line(cache.line_base(target), False)
            evicted = cache.fill(cache.line_base(target), data, self.cycle)
            if evicted is not None:
                self._handle_eviction(evicted, from_l1=True)

    # -- kernel accessors (syscall-time) --------------------------------------

    def _kread_hyper(self, addr: int, size: int) -> int:
        self.stats["hypervisor_ops"] += 1
        return self.mem.read(addr, size, kernel=True)

    def _kwrite_hyper(self, addr: int, size: int, value: int) -> None:
        self.stats["hypervisor_ops"] += 1
        self.mem.write(addr, size, value, kernel=True)

    def _kread_cached(self, addr: int, size: int) -> int:
        self.stats["kernel_cache_accesses"] += 1
        lat, value = self._cached_access(addr, size, False, kernel=True)
        self._kernel_lat += lat
        return value

    def _kwrite_cached(self, addr: int, size: int, value: int) -> None:
        self.stats["kernel_cache_accesses"] += 1
        lat, _ = self._cached_access(addr, size, True, value, kernel=True)
        self._kernel_lat += lat

    # ------------------------------------------------------------------
    # Fetch / decode / rename / dispatch
    # ------------------------------------------------------------------

    def _decode_at(self, pc: int):
        """Fetch bytes through the L1I and decode; (instr, lat, fault).

        ``lat`` exceeding ``l1_latency * lines_touched`` means at least
        one line missed; the caller stalls fetch and retries (the fill
        already happened, so the retry hits).
        """
        cycle = self.cycle
        itlb = self.itlb
        pa = itlb.translate(pc, cycle)
        if pa is None:
            pa, lat = self._translate_miss(pc, itlb, instruction=True)
        else:
            lat = 0
        mem_size = self.mem.size
        pa &= mem_size - 1
        max_ilen = self.max_ilen
        remaining = min(max_ilen, mem_size - pa)
        if remaining <= 0:
            return None, lat, "pf"
        l1i = self.l1i
        l1_latency = self.config.l1_latency
        line_size = l1i.line_size
        missed = lat > 0
        window = b""
        addr = pa
        while remaining > 0:
            in_line = min(remaining, line_size - (addr & (line_size - 1)))
            way = l1i.probe(addr, cycle)
            if way is None:
                line_lat, way = self._l1_fill(l1i, addr, False, True)
                if line_lat > l1_latency:
                    missed = True
                lat += line_lat
                if way is None:
                    raise SimCrashError("L1I line vanished during fetch")
            else:
                self.stats["l1i_hit"] += 1
                lat += l1_latency
            window += l1i.read_data(addr, in_line, way, cycle)
            addr += in_line
            remaining -= in_line
        self._fetch_missed = missed
        if len(window) < max_ilen:
            window += bytes(max_ilen - len(window))
        if self.l1i_pref is not None:
            self._train_prefetcher(self.l1i_pref, l1i, pc & ~63, pa)
        key = (self.config.isa, pc, window)
        instr = _DECODE_CACHE.get(key)
        if instr is None:
            if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
                _DECODE_CACHE.clear()
            instr = self.isa.decode_window(window, pc)
            _DECODE_CACHE[key] = instr
        return instr, lat, None

    def _has_resources(self, instr) -> bool:
        """Check ROB/IQ/LSQ/free-list space without side effects."""
        plan = instr.plan or _dispatch_plan(instr)
        nuops, need_iq, nloads, nstores, ndst, _uops = plan
        cfg = self.config
        if len(self.rob) + nuops > cfg.rob_size:
            return False
        if self.iq.count + need_iq > self.iq.size:
            return False
        if cfg.lsq_unified:
            if len(self._lsq_free) < nloads + nstores:
                return False
        else:
            if len(self._sq_free) < nstores:
                return False
            if self._lq_count + nloads > cfg.lsq_size:
                return False
        if len(self.free_list) < ndst + 2:
            return False
        return True

    def _dispatch_instr(self, instr, pc, pred) -> None:
        """Rename and insert all µops of one instruction.

        Resources must have been checked with :meth:`_has_resources`,
        which also builds the instruction's dispatch plan.  An undefined
        instruction dispatches as a single bubble entry and halts fetch
        (the decoder cannot trust any later bytes); commit turns it
        into an assert (MARSS) or an architectural #UD (gem5).
        """
        uops = instr.plan[5]
        if not uops:
            entry = RobEntry(self.seq, UOp("nop"), pc, instr)
            self.seq += 1
            entry.first = entry.last = True
            entry.snapshot = (self.map.copy(), self.ras.top, self.ras.depth)
            entry.state = 2
            self.rob.append(entry)
            self.fetch_halted = True
            return
        # Rename (sources read the map before the destination updates
        # it), physical register allocation, IQ insert and LSQ allocation
        # in one pass over the µops.
        m = self.map
        snapshot = (m.copy(), self.ras.top, self.ras.depth)
        fallthrough = (pc + instr.length) & 0xFFFFFFFF
        free_list = self.free_list
        prf_ready = self.prf_ready
        rob = self.rob
        iq_insert = self.iq.insert_static
        seq = self.seq
        last = len(uops) - 1
        for i, (uop, kind, a1, a2, dst_arch, iq_static) in enumerate(uops):
            entry = RobEntry(seq, uop, pc, instr)
            seq += 1
            self.seq = seq
            entry.fallthrough = fallthrough
            if i == 0:
                entry.first = True
                entry.snapshot = snapshot
            s1 = m[a1] if a1 is not None else None
            s2 = m[a2] if a2 is not None else None
            if dst_arch is not None:
                phys = free_list.pop() if free_list else None
                if phys is not None:
                    prf_ready[phys] = False
                entry.dst_arch = dst_arch
                entry.dst_phys = phys
                entry.old_phys = m[dst_arch]
                m[dst_arch] = phys
            if iq_static is not None:
                idx = iq_insert(
                    entry, iq_static, entry.dst_phys,
                    s1, prf_ready[s1] if s1 is not None else True,
                    s2, prf_ready[s2] if s2 is not None else True)
                if idx is None:
                    self.check(False, "IQ overflow at dispatch")
                entry.iq_idx = idx
                if kind == "load" or kind == "store":
                    entry.lsq = self._alloc_lsq(entry, kind == "store")
            elif kind == "sys":
                # Syscalls serialize at commit; reserve the r0 result reg.
                phys = free_list.pop() if free_list else None
                if phys is not None:
                    prf_ready[phys] = False
                entry.dst_arch = 0
                entry.dst_phys = phys
                entry.old_phys = m[0]
                m[0] = phys
                entry.state = 2
            else:  # nop
                entry.state = 2
            if i == last:
                entry.last = True
                if instr.is_branch:
                    entry.pred = pred
            rob.append(entry)

    def _alloc_lsq(self, entry: RobEntry, is_store: bool) -> LsqEntry:
        if self.config.lsq_unified:
            slot = self._lsq_free.pop()
        elif is_store:
            slot = self._sq_free.pop()
        else:
            slot = -1  # gem5 load-queue entries carry no data field
            self._lq_count += 1
        lsq_entry = LsqEntry(entry.seq, is_store, slot, entry)
        self.lsq.append(lsq_entry)
        return lsq_entry

    def _release_lsq(self, lsq_entry: LsqEntry) -> None:
        if self.config.lsq_unified:
            self._lsq_free.append(lsq_entry.slot)
        elif lsq_entry.is_store:
            self._sq_free.append(lsq_entry.slot)
        else:
            self._lq_count -= 1

    def _fetch_cycle(self) -> None:
        if self.fetch_halted or self.cycle < self.fetch_resume:
            return
        page_perms = self.mem.perms
        width = self.config.fetch_width
        fetched = 0
        while fetched < width:
            pc = self.fetch_pc
            if not page_perms.get(pc >> PAGE_SHIFT, 0) & PERM_X:
                self._dispatch_fetch_fault(pc)
                return
            buf = self._fetch_buf
            if buf is not None and buf[0] == pc:
                instr = buf[1]
                self._fetch_buf = None
            else:
                try:
                    instr, lat, fault = self._decode_at(pc)
                except MemFault:
                    self._dispatch_fetch_fault(pc)
                    return
                if fault is not None:
                    self._dispatch_fetch_fault(pc)
                    return
                if self._fetch_missed:
                    # I-miss or iTLB walk: charge it; the retry hits.
                    self.fetch_resume = self.cycle + lat
                    return
            if not self._has_resources(instr):
                self._fetch_buf = (pc, instr)
                return
            pred = None
            next_pc = (pc + instr.length) & 0xFFFFFFFF
            if instr.is_branch:
                pred = self._predict(instr, pc, next_pc)
            self._dispatch_instr(instr, pc, pred)
            if not instr.uops:
                return  # undefined instruction halted fetch
            self.stats["fetched_instrs"] += 1
            fetched += 1
            if pred is not None and pred[0]:
                self.fetch_pc = pred[1]
                return
            self.fetch_pc = next_pc

    def _dispatch_fetch_fault(self, pc: int) -> None:
        """Insert a faulting bubble for an unfetchable pc, halt fetch."""
        if self.rob and not self.rob[-1].last:
            return  # wait for a clean instruction boundary
        if len(self.rob) >= self.config.rob_size:
            return
        dummy = Instr("<fetchfault>", 1, [])
        entry = RobEntry(self.seq, UOp("nop"), pc, dummy)
        self.seq += 1
        entry.first = entry.last = True
        entry.snapshot = (self.map.copy(), self.ras.top, self.ras.depth)
        entry.state = 2
        entry.fault = "pf"
        entry.fault_addr = pc
        self.rob.append(entry)
        self.fetch_halted = True

    def _predict(self, instr, pc: int, fallthrough: int):
        """(predicted_taken, predicted_target) and RAS maintenance."""
        self.stats["branches"] += 1
        if instr.is_ret:
            target = self.ras.pop(self.cycle)
            self.stats["ras_predictions"] += 1
            if target is None:
                target = fallthrough
            return (True, u32(target))
        if instr.is_call:
            self.ras.push(fallthrough)
            if instr.target is not None:
                return (True, instr.target)
        if instr.is_indirect:
            btb = self.btb_ind if self.btb_ind is not None else self.btb
            target = btb.lookup(pc, self.cycle)
            if target is None:
                return (False, fallthrough)
            return (True, u32(target))
        if instr.is_cond:
            taken = self.predictor.predict(pc)
            return (taken, instr.target if taken else fallthrough)
        # Unconditional direct (jmp / bl / call handled above).
        return (True, instr.target if instr.target is not None
                else fallthrough)

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------

    def _issue_cycle(self) -> None:
        cfg = self.config
        budget = cfg.issue_width
        alu_free = cfg.int_alus + cfg.complex_alus
        mul_free = cfg.complex_alus
        mem_free = cfg.mem_ports
        slots = self.iq.slots
        for _seq, idx in self._issue_candidates():
            if budget == 0:
                break
            # A squash triggered by an earlier candidate (memory-order
            # violation replay) may have released this slot meanwhile.
            slot = slots[idx]
            entry = slot.rob
            if entry is None or entry.state != 0:
                continue
            kind = slot.kind
            if kind == "load" or kind == "store":
                if mem_free == 0:
                    continue
                if self._execute(entry, slot):
                    mem_free -= 1
                    budget -= 1
            elif slot.op in _COMPLEX_OPS:
                if mul_free == 0:
                    continue
                if self._execute(entry, slot):
                    mul_free -= 1
                    budget -= 1
            else:
                if alu_free == 0:
                    continue
                if self._execute(entry, slot):
                    alu_free -= 1
                    budget -= 1

    def _issue_candidates(self) -> list:
        """(ROB seq, IQ slot) of every µop ready to issue, oldest first.

        Reads the issue queue's ready list while it is exact (the packed
        array fault-free since the list was rebuilt); otherwise scans
        every slot.  Both give the same list.
        """
        iq = self.iq
        if not iq.ready_exact():
            return self._scan_candidates()
        store_epoch = self._store_epoch
        slots = iq.slots
        candidates = []
        for idx in iq.ready:
            slot = slots[idx]
            entry = slot.rob
            if entry.state != 0:
                continue
            if slot.kind == "load" and entry.retry_epoch == store_epoch:
                continue  # still blocked by the same unresolved stores
            candidates.append((entry.seq, idx))
        candidates.sort()
        return candidates

    def _scan_candidates(self) -> list:
        """:meth:`_issue_candidates` by a scan of every IQ slot.

        The decoded slot cache is authoritative unless a fault touched
        the packed array; then each slot is re-read through the array.
        """
        iq = self.iq
        arr = iq.array
        fault_mode = bool(arr.stuck) or arr.observer is not None
        epoch = arr.fault_epoch
        store_epoch = self._store_epoch
        candidates = []
        for idx, slot in enumerate(iq.slots):
            # Only a valid slot holds a ROB entry.
            entry = slot.rob
            if entry is None or entry.state != 0:
                continue
            if fault_mode or slot.epoch != epoch:
                slot = iq.view(idx, self.cycle)
            if not (slot.rdy1 and slot.rdy2):
                continue
            if slot.kind == "load" and entry.retry_epoch == store_epoch:
                continue  # still blocked by the same unresolved stores
            candidates.append((entry.seq, idx))
        candidates.sort()
        return candidates

    def _read_phys(self, tag: int | None) -> int | None:
        if tag is None:
            return None
        if tag >= self.prf.entries or tag < 0:
            self.check(False, f"physical tag {tag} out of range")
            raise SimCrashError(f"physical register index {tag} invalid")
        return self.prf.read(tag, self.cycle)

    def _execute(self, entry: RobEntry, slot) -> bool:
        """Begin execution of one issued µop; returns False to retry."""
        kind = slot.kind
        cycle = self.cycle
        if kind == "alu":
            a = self._read_phys(slot.src1)
            b = slot.imm if slot.src2 is None else self._read_phys(slot.src2)
            op = slot.op
            if op in _NOT_ALU_OPS:
                # Only reachable via a corrupted IQ entry.
                self.check(False, f"invalid ALU op {op!r} in issue queue")
                raise SimCrashError(f"cannot execute ALU op {op!r}")
            old = 0
            if op == "movt":
                old = a if a is not None else 0
                a = None
            try:
                value = alu_exec(op, a, b, old)
            except ArithFault:
                entry.fault = "div0"
                value = 0
            entry.value = value
            entry.state = 1
            self.events.setdefault(cycle + _ALU_LAT.get(op, 1),
                                   []).append(entry)
            return True
        if kind == "br":
            flags = self._read_phys(slot.src1)
            cond = slot.op
            if cond not in BRANCH_CONDS:
                self.check(False, f"invalid branch condition {cond!r}")
            try:
                taken = cond_holds(cond, flags)
            except ValueError as exc:
                raise SimCrashError(str(exc)) from None
            entry.taken = taken
            entry.target = u32(slot.imm) if taken else entry.fallthrough
            entry.state = 1
            self.events.setdefault(cycle + 1, []).append(entry)
            return True
        if kind == "jmp":
            entry.taken = True
            entry.target = u32(slot.imm)
            entry.state = 1
            self.events.setdefault(cycle + 1, []).append(entry)
            return True
        if kind == "ijmp":
            base = self._read_phys(slot.src1)
            entry.taken = True
            entry.target = u32((base or 0) + slot.imm)
            entry.state = 1
            self.events.setdefault(cycle + 1, []).append(entry)
            return True
        if kind == "store":
            base = self._read_phys(slot.src1)
            value = self._read_phys(slot.src2)
            addr = u32((base or 0) + slot.imm)
            lsq = entry.lsq
            self.check(lsq is not None, "store issued without LSQ entry")
            if lsq is None:
                raise SimCrashError("store issued without LSQ entry")
            lsq.addr = addr
            lsq.size = slot.size if slot.size in (1, 2, 4) else 4
            lsq.resolved = True
            self._store_epoch += 1
            if lsq.slot >= 0:
                self.lsq_data.write(lsq.slot, value or 0)
            entry.value = value or 0
            self._precheck_mem(entry, addr, lsq.size, is_write=True)
            entry.state = 1
            self.events.setdefault(cycle + 1, []).append(entry)
            if self.config.aggressive_loads:
                self._check_order_violation(lsq)
            return True
        if kind == "load":
            return self._execute_load(entry, slot)
        raise SimCrashError(f"unexecutable µop kind {kind!r}")

    def _precheck_mem(self, entry: RobEntry, addr: int, size: int,
                      is_write: bool) -> None:
        """Architectural permission check; faults deliver at commit."""
        try:
            self.mem.check(addr, size, PERM_W if is_write else PERM_R)
        except MemFault as mf:
            entry.fault = mf.kind
            entry.fault_addr = addr
            return
        if self.kernel.needs_align_fixup(addr, size):
            entry.align_event = True

    def _older_store_blocks(self, lsq: LsqEntry):
        """(blocked, forward_entry) per this simulator's load policy.

        Scans youngest-older-store first so forwarding always comes from
        the most recent producer, and an unresolved store younger than
        any match correctly blocks a conservative (gem5-style) load.
        """
        for other in reversed(self.lsq):
            if other.seq >= lsq.seq or not other.is_store:
                continue
            if not other.resolved:
                if self.config.aggressive_loads:
                    continue    # MARSS: issue anyway, replay on conflict
                return True, None
            if other.addr is None:
                continue
            if other.addr == lsq.addr and other.size == lsq.size:
                return False, other
            if not (other.addr + other.size <= lsq.addr or
                    lsq.addr + lsq.size <= other.addr):
                # Partial overlap: MARSS asserts, gem5 stalls until the
                # store leaves the queue.
                self.check(other.addr == lsq.addr,
                           "partial store-to-load overlap in LSQ")
                return True, None
        return False, None

    def _execute_load(self, entry: RobEntry, slot) -> bool:
        base = self._read_phys(slot.src1)
        addr = u32((base or 0) + slot.imm)
        size = slot.size if slot.size in (1, 2, 4) else 4
        lsq = entry.lsq
        self.check(lsq is not None, "load issued without LSQ entry")
        if lsq is None:
            raise SimCrashError("load issued without LSQ entry")
        lsq.addr = addr
        lsq.size = size
        lsq.resolved = True
        blocked, fwd = self._older_store_blocks(lsq)
        if blocked:
            lsq.resolved = False
            entry.retry_epoch = self._store_epoch
            return False    # retry when the store picture changes
        self.stats["issued_loads"] += 1
        self._precheck_mem(entry, addr, size, is_write=False)
        if entry.fault is not None:
            entry.state = 1
            lsq.executed = True
            self.events.setdefault(self.cycle + 1, []).append(entry)
            return True
        if fwd is not None:
            self.stats["store_forwards"] += 1
            value = self.lsq_data.read(fwd.slot, self.cycle) \
                if fwd.slot >= 0 else (fwd.rob.value or 0)
            mask = (1 << (8 * size)) - 1
            latency = 2
            value &= mask
        else:
            latency, value = self._cached_access(addr, size, False)
        lsq.executed = True
        entry.state = 1
        if self.config.lsq_unified and lsq.slot >= 0:
            # MARSS: the load's value parks in the unified queue's data
            # field and is read back at writeback (an injectable window).
            self.lsq_data.write(lsq.slot, value)
            entry.value = None
        else:
            entry.value = value
        self.events.setdefault(self.cycle + latency, []).append(entry)
        return True

    def _check_order_violation(self, store: LsqEntry) -> None:
        """MARSS-style replay: a younger load ran before this store."""
        victim = None
        for other in self.lsq:
            if other.seq <= store.seq or other.is_store:
                continue
            if not other.executed or other.addr is None:
                continue
            if not (store.addr + store.size <= other.addr or
                    other.addr + other.size <= store.addr):
                if victim is None or other.seq < victim.seq:
                    victim = other
        if victim is not None:
            self.stats["load_replays"] += 1
            self._squash_from_seq(victim.rob.seq, victim.rob.pc)

    # ------------------------------------------------------------------
    # Writeback
    # ------------------------------------------------------------------

    def _writeback_cycle(self) -> None:
        entries = self.events.pop(self.cycle, None)
        if not entries:
            return
        prf = self.prf
        prf_ready = self.prf_ready
        iq = self.iq
        for entry in entries:
            if entry.state != 1:
                continue  # squashed after scheduling
            entry.state = 2
            value = entry.value
            if value is None and entry.uop.kind == "load" and \
                    entry.lsq is not None and entry.lsq.slot >= 0 and \
                    entry.fault is None:
                value = entry.value = self.lsq_data.read(entry.lsq.slot,
                                                         self.cycle)
            dst = entry.dst_phys
            if dst is not None:
                # A faulting load produces a zero so dependents can drain.
                prf.write(dst, value if value is not None else 0)
                prf_ready[dst] = True
                iq.wake(dst)
            if entry.iq_idx is not None:
                iq.release(entry.iq_idx)
                entry.iq_idx = None
            if entry.last and entry.pred is not None and \
                    entry.instr.is_branch:
                self._resolve_branch(entry)

    def _resolve_branch(self, entry: RobEntry) -> None:
        pred_taken, pred_target = entry.pred
        actual_taken = bool(entry.taken)
        actual_target = entry.target if actual_taken else entry.fallthrough
        if (actual_taken, actual_target) != (pred_taken, pred_target):
            self.stats["branch_mispredicts"] += 1
            self._squash_after_seq(entry.seq, actual_target)

    # ------------------------------------------------------------------
    # Squash machinery
    # ------------------------------------------------------------------

    def _squash_entries(self, start_idx: int) -> None:
        """Remove rob[start_idx:] and roll back rename/IQ/LSQ state."""
        doomed = self.rob[start_idx:]
        if not doomed:
            return
        first = doomed[0]
        self.check(first.first, "squash not at instruction boundary")
        snap_map, ras_top, ras_depth = first.snapshot
        self.map = snap_map.copy()
        self.ras.top = ras_top
        self.ras.depth = ras_depth
        for entry in reversed(doomed):
            self.stats["squashed_uops"] += 1
            entry.state = -1
            if entry.iq_idx is not None:
                self.iq.release(entry.iq_idx)
                entry.iq_idx = None
            if entry.lsq is not None:
                if entry.lsq in self.lsq:
                    self.lsq.remove(entry.lsq)
                    self._release_lsq(entry.lsq)
                entry.lsq = None
            if entry.dst_phys is not None:
                self.free_list.append(entry.dst_phys)
                entry.dst_phys = None
        del self.rob[start_idx:]
        self.fetch_halted = False

    def _squash_after_seq(self, seq: int, redirect: int) -> None:
        """Squash everything younger than *seq*; refetch at *redirect*."""
        idx = len(self.rob)
        for i, entry in enumerate(self.rob):
            if entry.seq > seq:
                idx = i
                break
        self._squash_entries(idx)
        self.fetch_pc = u32(redirect)
        self.fetch_resume = self.cycle + self.config.redirect_penalty

    def _squash_from_seq(self, seq: int, redirect_pc: int) -> None:
        """Squash *seq*'s whole instruction and everything younger."""
        idx = None
        for i, entry in enumerate(self.rob):
            if entry.seq >= seq:
                idx = i
                break
        if idx is None:
            return
        while idx > 0 and not self.rob[idx].first:
            idx -= 1
        self._squash_entries(idx)
        self.fetch_pc = u32(redirect_pc)
        self.fetch_resume = self.cycle + self.config.redirect_penalty

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    class _RegView:
        """Committed architectural register view for the kernel."""

        def __init__(self, core):
            self.core = core

        def __getitem__(self, areg: int) -> int:
            return self.core.prf.read(self.core.committed_map[areg],
                                      self.core.cycle)

        def __setitem__(self, areg: int, value: int) -> None:
            self.core.prf.write(self.core.committed_map[areg], value)

    def _commit_cycle(self) -> None:
        if self.cycle < self.commit_stall_until:
            return
        cfg = self.config
        rob = self.rob
        stats = self.stats
        width = cfg.commit_width
        committed = 0
        while rob and committed < width:
            entry = rob[0]
            if entry.state != 2:
                break
            if entry.fault is not None:
                self._commit_fault(entry)
                return
            if entry.first:
                mnemonic = entry.instr.mnemonic
                if cfg.dense_asserts:
                    if mnemonic == "<ud>":
                        raise SimAssertError(
                            f"decoder: unimplemented opcode at "
                            f"{entry.pc:#x}")
                    if mnemonic.endswith("!"):
                        raise SimAssertError(
                            f"decoder: reserved encoding bits set at "
                            f"{entry.pc:#x}")
                elif mnemonic == "<ud>":
                    entry.fault = "ud"
                    self._commit_fault(entry)
                    return
            kind = entry.uop.kind
            if kind == "sys":
                if not self._commit_syscall(entry):
                    return
            elif kind == "store":
                self._commit_store(entry)
            elif kind == "load":
                stats["committed_loads"] += 1
            if entry.align_event:
                self.kernel.deliver_fault("align", entry.pc)
            if entry.dst_phys is not None:
                self.committed_map[entry.dst_arch] = entry.dst_phys
                if entry.old_phys is not None:
                    self.free_list.append(entry.old_phys)
            lsq = entry.lsq
            if lsq is not None:
                if lsq in self.lsq:
                    self.lsq.remove(lsq)
                    self._release_lsq(lsq)
                if lsq.is_store:
                    self._store_epoch += 1
            last = entry.last
            if last:
                instr = entry.instr
                if instr.is_cond:
                    self.predictor.update(entry.pc, bool(entry.taken))
                if instr.is_branch and entry.taken:
                    if instr.is_indirect and not instr.is_ret:
                        btb = self.btb_ind if self.btb_ind else self.btb
                        btb.update(entry.pc, entry.target)
                    elif instr.is_cond:
                        self.btb.update(entry.pc, entry.target)
            rob.pop(0)
            stats["committed_uops"] += 1
            if last:
                stats["committed_instrs"] += 1
            self.last_commit_cycle = self.cycle
            committed += 1

    def _commit_fault(self, entry: RobEntry) -> None:
        self.kernel.deliver_fault(entry.fault, entry.pc)
        # deliver_fault raises ProcessKilled for every fatal kind; only
        # recoverable kinds return.
        entry.fault = None

    def _commit_syscall(self, entry: RobEntry) -> bool:
        self.stats["syscalls"] += 1
        regs = self._RegView(self)
        self._kernel_lat = 0
        if self.config.hypervisor:
            self.kernel.syscall(regs, self._kread_hyper, self._kwrite_hyper,
                                lambda a, s: self._kread_hyper(a, s))
            self.commit_stall_until = self.cycle + \
                self.config.hypervisor_latency
        else:
            self.kernel.syscall(regs, self._kread_cached,
                                self._kwrite_cached, self._uread_cached)
            self.commit_stall_until = self.cycle + 8 + self._kernel_lat
        # The syscall's r0 result lives in the entry's reserved phys reg.
        result = self.prf.read(self.committed_map[0], self.cycle)
        self.prf.write(entry.dst_phys, result)
        self.prf_ready[entry.dst_phys] = True
        self.iq.wake(entry.dst_phys)
        return True

    def _uread_cached(self, addr: int, size: int) -> int:
        self.stats["kernel_cache_accesses"] += 1
        lat, value = self._cached_access(addr, size, False, kernel=True)
        self._kernel_lat += lat
        return value

    def _commit_store(self, entry: RobEntry) -> None:
        self.stats["committed_stores"] += 1
        lsq = entry.lsq
        self.check(lsq is not None and lsq.resolved,
                   "committing unresolved store")
        if lsq is None or lsq.addr is None:
            raise SimCrashError("committing store without address")
        value = self.lsq_data.read(lsq.slot, self.cycle) \
            if lsq.slot >= 0 else (entry.value or 0)
        self._cached_access(lsq.addr, lsq.size, True, value)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the machine one cycle."""
        self.cycle += 1
        self.stats["cycles"] = self.cycle
        self._writeback_cycle()
        self._issue_cycle()
        self._commit_cycle()
        self._fetch_cycle()

    def run(self, max_cycles: int = 5_000_000,
            deadlock_window: int = 20_000) -> RunOutcome:
        """Run to program exit, crash, or the cycle/deadlock limits."""
        try:
            while self.cycle < max_cycles:
                self.step()
                if self.cycle - self.last_commit_cycle > deadlock_window:
                    return self._outcome("deadlock")
            return self._outcome("cycle-limit")
        except ProcessExit as ex:
            return self._outcome("exit", exit_code=ex.code)
        except ProcessKilled as pk:
            return self._outcome("killed", signal=pk.signal,
                                 detail=str(pk))
        except KernelPanic as kp:
            return self._outcome("panic", detail=str(kp))

    def _outcome(self, reason, exit_code=None, signal=None,
                 detail="") -> RunOutcome:
        out = RunOutcome(reason, exit_code, bytes(self.kernel.output),
                         list(self.kernel.events), dict(self.stats),
                         self.cycle, signal=signal, detail=detail)
        self.finished = out
        return out

    # ------------------------------------------------------------------
    # Snapshot protocol
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Structured copy of all mutable machine state.

        Returns a flat dict of cheap containers (bytes, lists, tuples,
        dicts) that :meth:`restore` loads back into this machine — or any
        machine built from the same (program, config) — reproducing the
        captured execution bit-for-bit.  Immutable objects (decoded
        ``Instr``/``UOp``, the program image, the config) are shared by
        reference; the in-flight ROB/LSQ/IQ/event graph is copied through
        one memo so aliasing between the queues is preserved.

        This is the hot path that replaced whole-machine ``deepcopy``
        checkpointing; the blob is also picklable, which is how the
        parallel runner ships parent checkpoints to its workers.
        """
        memo: dict = {}

        def copy_entry(entry):
            return _copy_rob_entry(entry, memo)

        return {
            "mem": self.mem.snapshot(),
            "kernel": self.kernel.snapshot(),
            "l1i": self.l1i.snapshot(),
            "l1d": self.l1d.snapshot(),
            "l2": self.l2.snapshot(),
            "itlb": self.itlb.snapshot(),
            "dtlb": self.dtlb.snapshot(),
            "predictor": self.predictor.snapshot(),
            "btb": self.btb.snapshot(),
            "btb_ind": self.btb_ind.snapshot() if self.btb_ind else None,
            "ras": self.ras.snapshot(),
            "l1d_pref": self.l1d_pref.snapshot() if self.l1d_pref else None,
            "l1i_pref": self.l1i_pref.snapshot() if self.l1i_pref else None,
            "prf": self.prf.snapshot(),
            "prf_ready": self.prf_ready.copy(),
            "fp_rf": self.fp_rf.snapshot(),
            "map": self.map.copy(),
            "committed_map": self.committed_map.copy(),
            "free_list": self.free_list.copy(),
            "rob": [_copy_rob_entry(e, memo) for e in self.rob],
            "lsq": [_copy_lsq_entry(e, memo) for e in self.lsq],
            "iq": self.iq.snapshot(copy_entry),
            "lsq_data": self.lsq_data.snapshot(),
            "lsq_free": (self._lsq_free.copy()
                         if self.config.lsq_unified else None),
            "sq_free": (self._sq_free.copy()
                        if self._sq_free is not None else None),
            "lq_count": getattr(self, "_lq_count", 0),
            "events": {cyc: [_copy_rob_entry(e, memo) for e in pend]
                       for cyc, pend in self.events.items()},
            "seq": self.seq,
            "cycle": self.cycle,
            "fetch_pc": self.fetch_pc,
            "fetch_resume": self.fetch_resume,
            "fetch_halted": self.fetch_halted,
            "commit_stall_until": self.commit_stall_until,
            "last_commit_cycle": self.last_commit_cycle,
            "stats": dict(self.stats),
            "store_epoch": self._store_epoch,
            "fetch_buf": self._fetch_buf,
            "fetch_missed": self._fetch_missed,
            "kernel_lat": self._kernel_lat,
            "faulty": self._faulty,
        }

    def restore(self, state: dict) -> "OoOCore":
        """Load a :meth:`snapshot` blob into this machine, in place.

        The blob is never aliased: the entry graph is re-copied through a
        fresh memo on every call, so one stored checkpoint can seed any
        number of (mutating) injection runs.  Component objects keep
        their identity — fault sites, liveness closures and the kernel's
        memory reference all remain valid.  Returns ``self``.
        """
        memo: dict = {}

        def copy_entry(entry):
            return _copy_rob_entry(entry, memo)

        self.mem.restore(state["mem"])
        self.kernel.restore(state["kernel"])
        self.l1i.restore(state["l1i"])
        self.l1d.restore(state["l1d"])
        self.l2.restore(state["l2"])
        self.itlb.restore(state["itlb"])
        self.dtlb.restore(state["dtlb"])
        self.predictor.restore(state["predictor"])
        self.btb.restore(state["btb"])
        if self.btb_ind is not None:
            self.btb_ind.restore(state["btb_ind"])
        self.ras.restore(state["ras"])
        if self.l1d_pref is not None:
            self.l1d_pref.restore(state["l1d_pref"])
            self.l1i_pref.restore(state["l1i_pref"])
        self.prf.restore(state["prf"])
        self.prf_ready = state["prf_ready"].copy()
        self.fp_rf.restore(state["fp_rf"])
        self.map = state["map"].copy()
        self.committed_map = state["committed_map"].copy()
        self.free_list = state["free_list"].copy()
        self.rob = [_copy_rob_entry(e, memo) for e in state["rob"]]
        self.lsq = [_copy_lsq_entry(e, memo) for e in state["lsq"]]
        self.iq.restore(state["iq"], copy_entry)
        self.lsq_data.restore(state["lsq_data"])
        if self.config.lsq_unified:
            self._lsq_free = state["lsq_free"].copy()
        else:
            self._sq_free = state["sq_free"].copy()
            self._lq_count = state["lq_count"]
        self.events = {cyc: [_copy_rob_entry(e, memo) for e in pend]
                       for cyc, pend in state["events"].items()}
        self.seq = state["seq"]
        self.cycle = state["cycle"]
        self.fetch_pc = state["fetch_pc"]
        self.fetch_resume = state["fetch_resume"]
        self.fetch_halted = state["fetch_halted"]
        self.commit_stall_until = state["commit_stall_until"]
        self.last_commit_cycle = state["last_commit_cycle"]
        self.stats = dict(state["stats"])
        self.finished = None
        self._store_epoch = state["store_epoch"]
        self._fetch_buf = state["fetch_buf"]
        self._fetch_missed = state["fetch_missed"]
        self._kernel_lat = state["kernel_lat"]
        self._faulty = state["faulty"]
        return self

    def __deepcopy__(self, memo):
        """Compatibility shim over the snapshot protocol.

        Campaign code restores snapshots in place; cloning survives only
        for callers that genuinely want a second machine.
        """
        clone = self.__class__(self.program, self.config)
        memo[id(self)] = clone
        clone.restore(self.snapshot())
        return clone

    def __getstate__(self):
        # FaultSite liveness closures are unpicklable; drop the cache and
        # let the unpickled machine rebuild it on first use.
        state = dict(self.__dict__)
        state["_fault_sites"] = None
        return state
