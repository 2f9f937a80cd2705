"""Unit tests for predictor, BTB, RAS, TLB and prefetcher models."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.memory import PAGE_SIZE
from repro.uarch.btb import BTB
from repro.uarch.predictor import TournamentPredictor
from repro.uarch.prefetcher import _STRIDE_BITS, _TAG_BITS, StridePrefetcher
from repro.uarch.ras import RAS
from repro.uarch.tlb import TLB


class TestPredictor:
    def test_learns_always_taken(self):
        p = TournamentPredictor(64, 256, scheme="pc")
        pc = 0x1040
        for _ in range(8):
            p.update(pc, True)
        assert p.predict(pc) is True

    def test_learns_never_taken(self):
        p = TournamentPredictor(64, 256, scheme="history")
        pc = 0x1040
        for _ in range(8):
            p.update(pc, False)
        assert p.predict(pc) is False

    def test_schemes_validate(self):
        with pytest.raises(ValueError):
            TournamentPredictor(scheme="magic")

    def test_indexing_schemes_differ(self):
        """The Remark 6 mechanism: same history, different indexing."""
        pc_p = TournamentPredictor(16, 64, scheme="pc")
        hist_p = TournamentPredictor(16, 64, scheme="history")
        # Train an alternating pattern on two aliasing branches.
        import itertools
        outcomes = [True, True, False, True, False, False, True, False]
        for pred in (pc_p, hist_p):
            for pc, taken in zip(itertools.cycle([0x1000, 0x2000]),
                                 outcomes * 8):
                pred.update(pc, taken)
        # Not asserting specific outputs — only that the index functions
        # use different inputs: PC-indexed distinguishes branch addresses,
        # history-indexed (gem5, Remark 6) ignores them entirely.
        assert pc_p._indices(0x1002)[1:] != pc_p._indices(0x2004)[1:]
        # The local side is PC-indexed in both; gem5's global/chooser
        # sides ignore the branch address completely.
        assert hist_p._indices(0x1002)[1:] == hist_p._indices(0x2004)[1:]

    def test_ghr_shifts(self):
        p = TournamentPredictor(16, 64, scheme="history")
        p.update(0x1000, True)
        p.update(0x1000, False)
        assert p.ghr & 0b11 == 0b10


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB("b", 64, 4)
        assert btb.lookup(0x1000) is None
        btb.update(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_update_overwrites_same_pc(self):
        btb = BTB("b", 64, 4)
        btb.update(0x1000, 0x2000)
        btb.update(0x1000, 0x3000)
        assert btb.lookup(0x1000) == 0x3000

    def test_direct_mapped_conflict(self):
        btb = BTB("b", 16, 1)
        a, b = 0x1000, 0x1000 + 16 * 2  # same set (pc >> 1 % 16)
        btb.update(a, 0x1111)
        btb.update(b, 0x2222)
        assert btb.lookup(a) is None  # evicted by b
        assert btb.lookup(b) == 0x2222

    def test_target_fault_changes_prediction(self):
        btb = BTB("b", 64, 4)
        btb.update(0x1000, 0x2000)
        # Find the entry and flip a target bit.
        for i in range(btb.array.entries):
            if btb.array.peek(i):
                btb.array.flip(i, 4)
                break
        assert btb.lookup(0x1000) == 0x2000 ^ 0x10

    def test_site_liveness(self):
        btb = BTB("b", 16, 1)
        site = btb.site()
        assert not site.live(0)
        btb.update(0x1000, 0x2000)
        assert any(site.live(i) for i in range(16))


class TestRAS:
    def test_push_pop_lifo(self):
        ras = RAS(entries=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100
        assert ras.pop() is None

    def test_wraparound_overwrites_oldest(self):
        ras = RAS(entries=2)
        for addr in (0x100, 0x200, 0x300):
            ras.push(addr)
        assert ras.pop() == 0x300
        assert ras.pop() == 0x200
        assert ras.pop() is None  # 0x100 was overwritten (depth capped)

    def test_site_liveness_tracks_depth(self):
        ras = RAS(entries=4)
        site = ras.site()
        assert not any(site.live(i) for i in range(4))
        ras.push(0xAA)
        assert sum(site.live(i) for i in range(4)) == 1

    def test_fault_redirects_return(self):
        ras = RAS(entries=4)
        ras.push(0x1000)
        ras.array.flip(ras.top, 3)
        assert ras.pop() == 0x1008


class _Listener:
    """An array observer that hears every access and never detaches."""

    def read(self, entry):
        pass

    def write(self, entry, lo, hi):
        pass


class TestTLB:
    def test_miss_insert_hit(self):
        tlb = TLB("t", 8)
        assert tlb.translate(0x5123) is None
        tlb.insert(0x5123, 0x5123)
        assert tlb.translate(0x5FFF) == 0x5FFF  # same page
        assert tlb.translate(0x6000) is None

    def test_non_identity_translation(self):
        tlb = TLB("t", 8)
        tlb.insert(0x5000, 0x9000)
        assert tlb.translate(0x5010) == 0x9010

    def test_fifo_replacement(self):
        tlb = TLB("t", 2)
        for page in range(3):
            addr = (page + 1) * PAGE_SIZE
            tlb.insert(addr, addr)
        assert tlb.translate(1 * PAGE_SIZE) is None  # oldest evicted
        assert tlb.translate(3 * PAGE_SIZE) is not None

    def test_fault_in_frame_bits_mistranslates(self):
        tlb = TLB("t", 8)
        tlb.insert(0x5000, 0x5000)
        tlb.array.flip(0, 0)  # frame bit 0 → pfn 5 becomes 4
        got = tlb.translate(0x5000)
        assert got is not None and got != 0x5000

    def test_fault_in_valid_bit_drops_entry(self):
        tlb = TLB("t", 8)
        tlb.insert(0x5000, 0x5000)
        tlb.array.flip(0, 40)  # the valid bit (20 + 20)
        assert tlb.translate(0x5000) is None

    @staticmethod
    def _fast_and_slow(tlb, pages):
        """Translations through the lookup table, then through the scan.

        An observer forces the array scan without bumping the fault
        epoch, so the table is checked exactly as it stands.
        """
        addrs = [p * PAGE_SIZE for p in pages]
        fast = [tlb.translate(a) for a in addrs]
        tlb.array.observer = _Listener()
        slow = [tlb.translate(a) for a in addrs]
        tlb.array.observer = None
        return fast, slow

    def test_lut_consistent_with_slow_path(self):
        tlb = TLB("t", 4)
        for page in (1, 2, 3, 4, 5):
            tlb.insert(page * PAGE_SIZE, page * PAGE_SIZE)
        # Force the slow path with a no-op stuck fault elsewhere.
        tlb.array.set_stuck(0, 0, 0, start=10 ** 9)
        slow = [tlb.translate(p * PAGE_SIZE) for p in range(1, 6)]
        tlb.array.clear_faults()
        fast = [tlb.translate(p * PAGE_SIZE) for p in range(1, 6)]
        assert slow == fast

        # A VPN flip aliases entry 0 (page 2) onto entry 1 (page 3):
        # both paths must take the first matching entry.
        tlb = TLB("t", 8)
        tlb.insert(2 * PAGE_SIZE, 2 * PAGE_SIZE)
        tlb.insert(3 * PAGE_SIZE, 3 * PAGE_SIZE)
        tlb.array.flip(0, 20)  # VPN bit 0 of entry 0: 2 -> 3
        fast, slow = self._fast_and_slow(tlb, (2, 3))
        assert slow == [None, 2 * PAGE_SIZE]
        assert fast == slow

        # Evicting one of two aliased entries leaves the other mapped.
        # Both map to frame 7, so only the eviction can set them apart.
        tlb = TLB("t", 2)
        tlb.insert(2 * PAGE_SIZE, 7 * PAGE_SIZE)
        tlb.insert(3 * PAGE_SIZE, 7 * PAGE_SIZE)
        tlb.array.flip(1, 20)  # VPN bit 0 of entry 1: 3 -> 2
        fast, slow = self._fast_and_slow(tlb, (2, 3))
        assert fast == slow == [7 * PAGE_SIZE, None]
        tlb.insert(5 * PAGE_SIZE, 5 * PAGE_SIZE)  # FIFO evicts entry 0
        fast, slow = self._fast_and_slow(tlb, (2, 3, 5))
        assert slow == [7 * PAGE_SIZE, None, 5 * PAGE_SIZE]
        assert fast == slow


def reference_train(pref, key, addr, cycle=0):
    """The stride-table update without shortcuts, for comparison.

    Every access goes through the array's own ``read`` and ``write``,
    so stuck bits apply and a watch sees every read and write.
    """
    arr = pref.array
    idx = key % pref.entries
    tag = (key // pref.entries) % (1 << _TAG_BITS)
    packed = arr.read(idx, cycle)
    new_stride = conf = 0
    target = None
    if packed & pref._valid_bit and \
            (packed >> pref._tag_shift) & ((1 << _TAG_BITS) - 1) == tag:
        last = (packed >> pref._last_shift) & 0xFFFFFFFF
        stride_raw = (packed >> pref._stride_shift) & \
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
    arr.write(idx, pref._valid_bit | (tag << pref._tag_shift)
              | ((addr & 0xFFFFFFFF) << pref._last_shift)
              | ((new_stride & ((1 << _STRIDE_BITS) - 1))
                 << pref._stride_shift)
              | conf)
    return target


_ENTRIES = 4
_BITS = StridePrefetcher("p", entries=_ENTRIES).array.bits_per_entry
# Few keys and lines, so the stream repeats (key, addr) pairs and takes
# the no-op path often.  Some addresses are 2^32 or more, including ones
# whose low 32 bits equal a small line's.
_PREF_ADDRS = [0x1000, 0x1040, 0x1080, 0x2000,
               0x1_0000_1000, 0x1_0000_1040]
_PREF_OPS = st.one_of(
    st.tuples(st.just("train"), st.integers(0, 3 * _ENTRIES),
              st.one_of(st.sampled_from(_PREF_ADDRS),
                        st.integers(0, 2 ** 33))),
    st.tuples(st.just("flip"), st.integers(0, _ENTRIES - 1),
              st.integers(0, _BITS - 1)),
    st.tuples(st.just("stuck"), st.integers(0, _ENTRIES - 1),
              st.integers(0, _BITS - 1), st.integers(0, 1)),
    st.tuples(st.just("watch"), st.integers(0, _ENTRIES - 1),
              st.integers(0, _BITS - 1)),
    st.tuples(st.just("clear")),
)


class TestPrefetcher:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_PREF_OPS, max_size=80))
    # Key 4 is entry 0 with tag 1, key 0 entry 0 with tag 0; the second
    # address only differs from the first above bit 31.
    @example([("train", 4, 0x1000), ("train", 0, 0x1_0000_1000)])
    def test_train_matches_reference(self, ops):
        pref = StridePrefetcher("p", entries=_ENTRIES)
        ref = StridePrefetcher("p", entries=_ENTRIES)
        watches = [None, None]
        for cycle, (op, *args) in enumerate(ops):
            if op == "train":
                assert pref.train(*args, cycle=cycle) == \
                    reference_train(ref, *args, cycle=cycle)
            for i, p in enumerate((pref, ref)):
                if op == "flip":
                    p.array.flip(*args)
                elif op == "stuck":
                    p.array.set_stuck(*args, start=cycle)
                elif op == "watch":
                    watches[i] = p.array.watch_entry(*args)
                elif op == "clear":
                    p.array.clear_faults()
            assert pref.array.data == ref.array.data
            events = [w.event if w else None for w in watches]
            assert events[0] == events[1]

    def test_watched_entry_sees_rewrite_of_same_word(self):
        pref = StridePrefetcher("p", entries=8)
        pref.train(3, 0x1000)
        pref.train(3, 0x1040)
        pref.train(3, 0x1040)   # now [valid | tag | 0x1040 | 0 | 0]
        word = pref.array.peek(3)
        assert pref.train(3, 0x1040) is None   # the no-op path
        watch = pref.array.watch_entry(3, 0)
        assert pref.train(3, 0x1040) is None
        assert pref.array.peek(3) == word
        # The update reads the entry before it rewrites it.
        assert watch.event == "read"

    def test_detects_constant_stride(self):
        pref = StridePrefetcher("p", entries=8)
        key = 42
        targets = [pref.train(key, 0x1000 + i * 64) for i in range(6)]
        assert targets[0] is None and targets[1] is None
        assert any(t is not None for t in targets)
        last = [t for t in targets if t is not None][-1]
        assert (last - 0x1000) % 64 == 0

    def test_random_pattern_never_confident(self):
        pref = StridePrefetcher("p", entries=8)
        addrs = [0x1000, 0x5040, 0x1080, 0x9000, 0x2040]
        assert all(pref.train(7, a) is None for a in addrs)

    def test_different_keys_independent(self):
        pref = StridePrefetcher("p", entries=8)
        for i in range(5):
            pref.train(1, 0x1000 + i * 64)
        assert pref.train(2, 0x9000) is None

    def test_site_liveness(self):
        pref = StridePrefetcher("p", entries=4)
        site = pref.site()
        assert not any(site.live(i) for i in range(4))
        pref.train(0, 0x1000)
        assert any(site.live(i) for i in range(4))

    def test_corrupted_stride_prefetches_wrong_line(self):
        pref = StridePrefetcher("p", entries=8)
        for i in range(5):
            pref.train(3, 0x1000 + i * 64)
        idx = 3 % 8
        pref.array.flip(idx, pref._stride_shift + 4)  # corrupt stride
        target = pref.train(3, 0x1000 + 5 * 64)
        # Either confidence collapsed (None) or the target moved.
        assert target is None or target != 0x1000 + 6 * 64
