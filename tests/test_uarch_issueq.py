"""Unit and property tests for the packed issue queue."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.config import setup_config
from repro.sim.gem5 import build_sim
from repro.sim.kernel import ProcessExit
from repro.uarch.issueq import ENTRY_BITS, KINDS, OPS, IssueQueue

from tests.helpers import tiny_program


class _FakeRob:
    def __init__(self, seq=0):
        self.seq = seq
        self.state = 0


def insert(iq, **kw):
    args = dict(kind="alu", op="add", dst=5, src1=1, rdy1=True, src2=2,
                rdy2=True, size=4, imm=0)
    args.update(kw)
    return iq.insert(_FakeRob(), **args)


class TestPacking:
    @given(st.sampled_from(sorted(KINDS)),
           st.sampled_from(sorted(OPS)),
           st.one_of(st.none(), st.integers(min_value=0, max_value=511)),
           st.one_of(st.none(), st.integers(min_value=0, max_value=511)),
           st.booleans(),
           st.one_of(st.none(), st.integers(min_value=0, max_value=511)),
           st.booleans(),
           st.integers(min_value=0, max_value=7),
           st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1))
    def test_roundtrip(self, kind, op, dst, src1, rdy1, src2, rdy2, size,
                       imm):
        iq = IssueQueue("iq", 4)
        idx = insert(iq, kind=kind, op=op, dst=dst, src1=src1, rdy1=rdy1,
                     src2=src2, rdy2=rdy2, size=size, imm=imm)
        slot = iq.view(idx)
        assert slot.kind == kind
        assert slot.op == op
        assert slot.dst == dst
        assert slot.src1 == src1
        assert slot.src2 == src2
        assert slot.size == size
        assert slot.imm == imm
        if src1 is not None:
            assert slot.rdy1 == rdy1
        else:
            assert slot.rdy1
        if src2 is not None:
            assert slot.rdy2 == rdy2
        else:
            assert slot.rdy2

    def test_entry_width_documented(self):
        assert ENTRY_BITS > 64  # packed entries are wide words


class TestQueueOps:
    def test_full_queue_rejects(self):
        iq = IssueQueue("iq", 2)
        assert insert(iq) is not None
        assert insert(iq) is not None
        assert insert(iq) is None
        assert iq.count == 2

    def test_release_recycles(self):
        iq = IssueQueue("iq", 1)
        idx = insert(iq)
        iq.release(idx)
        assert iq.count == 0
        assert insert(iq) is not None

    def test_wake_sets_ready_bits(self):
        iq = IssueQueue("iq", 4)
        idx = insert(iq, src1=7, rdy1=False, src2=9, rdy2=False)
        iq.wake(7)
        slot = iq.view(idx)
        assert slot.rdy1 and not slot.rdy2
        iq.wake(9)
        assert iq.view(idx).rdy2

    def test_wake_same_tag_both_sources(self):
        iq = IssueQueue("iq", 4)
        idx = insert(iq, src1=7, rdy1=False, src2=7, rdy2=False)
        iq.wake(7)
        slot = iq.view(idx)
        assert slot.rdy1 and slot.rdy2

    def test_wake_released_slot_harmless(self):
        iq = IssueQueue("iq", 4)
        idx = insert(iq, src1=7, rdy1=False)
        iq.release(idx)
        iq.wake(7)  # must not crash or corrupt

    def test_occupied(self):
        iq = IssueQueue("iq", 4)
        a = insert(iq)
        b = insert(iq)
        assert set(iq.occupied()) == {a, b}


class TestFaultInteraction:
    def test_flip_changes_decoded_source(self):
        iq = IssueQueue("iq", 4)
        idx = insert(iq, src1=1, rdy1=True)
        before = iq.view(idx).src1
        # src1 field starts at bit offset 19 (kind 3 + op 5 + dst 9 +
        # has_dst 1 + ... ); flip its LSB via the documented layout.
        from repro.uarch.issueq import _OFF_SRC1
        iq.array.flip(idx, _OFF_SRC1)
        after = iq.view(idx).src1
        assert after == before ^ 1

    def test_flip_ready_bit_can_deadlock_entry(self):
        iq = IssueQueue("iq", 4)
        idx = insert(iq, src1=7, rdy1=True)
        from repro.uarch.issueq import _OFF_RDY1
        iq.array.flip(idx, _OFF_RDY1)
        assert not iq.view(idx).rdy1  # now waits forever: Timeout class

    def test_view_tracks_fault_epoch(self):
        iq = IssueQueue("iq", 4)
        idx = insert(iq, imm=100)
        assert iq.view(idx).imm == 100
        from repro.uarch.issueq import _OFF_IMM
        iq.array.flip(idx, _OFF_IMM + 1)
        assert iq.view(idx).imm == 102

    def test_stuck_fault_forces_unpacked_reads(self):
        iq = IssueQueue("iq", 4)
        idx = insert(iq, imm=0)
        from repro.uarch.issueq import _OFF_IMM
        iq.array.set_stuck(idx, _OFF_IMM, 1, start=0, end=10)
        assert iq.view(idx, cycle=5).imm == 1
        assert iq.view(idx, cycle=50).imm == 0

    def test_site_liveness(self):
        iq = IssueQueue("iq", 4)
        site = iq.site()
        idx = insert(iq)
        assert site.live(idx)
        other = (idx + 1) % 4
        assert not site.live(other)


def _ready_by_scan(iq):
    return {i for i, slot in enumerate(iq.slots)
            if iq.valid[i] and slot.rdy1 and slot.rdy2}


def _step_comparing(sim, until=None) -> int:
    """Step *sim* to cycle *until* or to its exit.  Before every cycle
    the ready list must be exact and give the full scan's candidates in
    the full scan's order.  Returns the number of candidates seen.
    """
    seen = 0
    try:
        while until is None or sim.cycle < until:
            assert sim.iq.ready_exact()
            assert sim.iq.ready == _ready_by_scan(sim.iq)
            candidates = sim._issue_candidates()
            assert candidates == sim._scan_candidates()
            seen += len(candidates)
            sim.step()
    except ProcessExit:
        pass
    return seen


@pytest.mark.parametrize("setup", ["MaFIN-x86", "GeFIN-x86", "GeFIN-ARM"])
class TestReadyList:
    """Issue select from the ready list equals the full slot scan."""

    def test_golden_run_and_restore(self, setup):
        config = setup_config(setup)
        sim = build_sim(tiny_program(config.isa), config)
        assert _step_comparing(sim, until=600) > 0
        state = sim.snapshot()
        assert _step_comparing(sim) > 0
        end = sim.cycle
        for machine in (sim, build_sim(tiny_program(config.isa), config)):
            machine.restore(state)
            assert _step_comparing(machine) > 0
            assert machine.cycle == end

    def test_iq_flip_falls_back_to_full_scan(self, setup):
        config = setup_config(setup)
        sim = build_sim(tiny_program(config.isa), config)
        _step_comparing(sim, until=600)
        state = sim.snapshot()
        from repro.uarch.issueq import _OFF_SIZE
        # Size bit 2 of a valid entry: every access size the decoders
        # emit reads back as a 4-byte access, so the run goes on.
        sim.iq.array.flip(sim.iq.occupied()[0], _OFF_SIZE + 2)
        scans = []
        scan = sim._scan_candidates
        sim._scan_candidates = lambda: scans.append(sim.cycle) or scan()
        for _ in range(20):
            assert not sim.iq.ready_exact()
            sim.step()
        assert len(scans) == 20
        del sim._scan_candidates
        sim.restore(state)
        assert sim.iq.ready_exact()
