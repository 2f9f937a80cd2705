"""Integration tests for dispatcher, campaign controller, repositories
and the checkpoint store — the paper's Fig. 1 flow end to end."""

import copy

import pytest

from repro.core.campaign import InjectionCampaign, run_campaign
from repro.core.checkpoint import CheckpointStore
from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import (INTERMITTENT, PERMANENT, TRANSIENT, FaultMask,
                              FaultSet)
from repro.core.outcome import MASKED
from repro.core.parser import classify
from repro.core.repository import LogsRepository, MasksRepository
from repro.errors import CampaignError
from repro.obs import RingBufferSink, Tracer
from repro.sim.config import setup_config

from tests.helpers import tiny_program


def make_dispatcher(setup="MaFIN-x86", **kw):
    config = setup_config(setup)
    return InjectorDispatcher(config, tiny_program(config.isa), **kw)


@pytest.fixture(scope="module")
def golden_dispatcher():
    d = make_dispatcher()
    d.run_golden()
    return d


class TestCheckpointStore:
    class _FakeSim:
        """Minimal snapshot-protocol machine: a cycle and a payload."""

        def __init__(self):
            self.cycle = 0
            self.payload = 0
            self.taken: list[int] = []

        def snapshot(self):
            self.taken.append(self.cycle)
            return {"cycle": self.cycle, "payload": self.payload}

        def restore(self, state):
            self.cycle = state["cycle"]
            self.payload = state["payload"]
            return self

    def test_adaptive_thinning_bounds_memory(self):
        store = CheckpointStore(interval=10, max_snaps=4)
        sim = self._FakeSim()
        for cycle in range(0, 1000, 5):
            sim.cycle = cycle
            store.maybe_take(sim)
        assert store.count < 4
        cycles = store.cycles
        assert cycles == sorted(cycles)

    def test_restore_before_picks_latest(self):
        store = CheckpointStore(interval=10, max_snaps=8)
        sim = self._FakeSim()
        for cycle in (10, 20, 30):
            sim.cycle = cycle
            store.maybe_take(sim)
        target = self._FakeSim()
        assert store.restore_before(25, target) is target
        assert target.cycle == 20
        assert store.restore_before(5, self._FakeSim()) is None

    def test_restores_are_independent(self):
        store = CheckpointStore(interval=1, max_snaps=4)
        sim = self._FakeSim()
        sim.cycle = 1
        sim.payload = 7
        store.maybe_take(sim)
        a, b = self._FakeSim(), self._FakeSim()
        store.restore_before(10, a)
        a.payload = 99                      # mutating one restored machine…
        store.restore_before(10, b)
        assert b.payload == 7               # …never leaks into the next

    def test_thinning_rounds_keep_schedule_and_lookup(self):
        # An odd budget makes the thinning pass drop the *newest*
        # snapshot, the case where the old `_next_due` derivation lagged.
        store = CheckpointStore(interval=10, max_snaps=5)
        sim = self._FakeSim()
        for cycle in range(1, 200):
            sim.cycle = cycle
            store.maybe_take(sim)
            assert store.count < 5
            assert store.cycles == sorted(store.cycles)
        # Interval doubled across several thinning rounds (10→20→40)
        # and snapshots stayed `interval` apart from the last *taken*
        # one — with the drift bug the sequence was 10..50,60,80,…
        assert store.interval == 40
        assert sim.taken == [10, 20, 30, 40, 50, 70, 90, 110, 150, 190]
        # restore_before always finds the latest snapshot ≤ cycle.
        for cycle in range(0, 200, 7):
            expected = max((c for c in store.cycles if c <= cycle),
                           default=None)
            snap = store.state_before(cycle)
            if expected is None:
                assert snap is None
            else:
                assert snap[0] == expected

    def test_from_snapshots_round_trip(self):
        store = CheckpointStore(interval=10, max_snaps=8)
        sim = self._FakeSim()
        for cycle in (10, 20, 30):
            sim.cycle = cycle
            store.maybe_take(sim)
        clone = CheckpointStore.from_snapshots(store.snapshots,
                                               interval=store.interval,
                                               max_snaps=store.max_snaps)
        assert clone.cycles == store.cycles
        assert clone.nbytes == store.nbytes
        target = self._FakeSim()
        clone.restore_before(25, target)
        assert target.cycle == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointStore(interval=0)
        with pytest.raises(ValueError):
            CheckpointStore(max_snaps=1)


class TestDispatcher:
    def test_golden_reference_contents(self, golden_dispatcher):
        g = golden_dispatcher.golden
        assert g.exit_code == 0
        assert g.cycles > 500
        assert len(g.output_hex) == 24  # three out() words
        assert g.stats["committed_instrs"] > 0
        assert golden_dispatcher.checkpoints.count >= 2

    def test_inject_requires_golden(self):
        d = make_dispatcher()
        with pytest.raises(CampaignError, match="run_golden"):
            d.inject(FaultSet(masks=(FaultMask("l1d", 0, 0, 10),)))

    def test_unknown_structure_rejected(self, golden_dispatcher):
        fs = FaultSet(masks=(FaultMask("warp-core", 0, 0, 10),))
        with pytest.raises(CampaignError, match="warp-core"):
            golden_dispatcher.inject(fs)

    def test_injection_is_reproducible(self, golden_dispatcher):
        fs = FaultSet(masks=(FaultMask("l1d", 5, 100, 400),), set_id=1)
        a = golden_dispatcher.inject(fs)
        b = golden_dispatcher.inject(fs)
        assert a.reason == b.reason
        assert a.output_hex == b.output_hex
        assert a.early_stop == b.early_stop

    def test_early_stop_agrees_with_full_run(self, golden_dispatcher):
        """The §III.B optimizations must never change the verdict."""
        golden = golden_dispatcher.golden
        checked = 0
        for i in range(12):
            fs = FaultSet(masks=(FaultMask("l1d", (i * 3) % 32,
                                           (i * 41) % 512,
                                           50 + i * 97),), set_id=i)
            fast = golden_dispatcher.inject(fs, early_stop=True)
            slow = golden_dispatcher.inject(fs, early_stop=False)
            if fast.early_stop is not None:
                checked += 1
                assert classify(slow, golden) == MASKED, (i, slow.reason)
            else:
                assert classify(fast, golden) == classify(slow, golden)
        assert checked > 0  # the optimization actually fired

    def test_early_stop_runs_are_shorter(self, golden_dispatcher):
        fs_list = [FaultSet(masks=(FaultMask("l1d", i % 32, (i * 7) % 512,
                                             100 + i * 50),), set_id=i)
                   for i in range(10)]
        fast = [golden_dispatcher.inject(fs, early_stop=True)
                for fs in fs_list]
        slow = [golden_dispatcher.inject(fs, early_stop=False)
                for fs in fs_list]
        assert sum(r.cycles for r in fast) < sum(r.cycles for r in slow)

    def test_permanent_fault_applies_from_start(self, golden_dispatcher):
        # Stuck-at on a code-holding L1I line would need residency; use
        # the register file instead: stuck bit in a hot register.
        fs = FaultSet(masks=(FaultMask("int_rf", 2, 3, 0,
                                       fault_type=PERMANENT,
                                       stuck_value=1),))
        rec = golden_dispatcher.inject(fs)
        assert rec.reason in ("exit", "killed", "panic", "deadlock",
                              "cycle-limit", "assert", "sim-crash")

    def test_intermittent_fault_window(self, golden_dispatcher):
        fs = FaultSet(masks=(FaultMask("lsq", 3, 7, 200,
                                       fault_type=INTERMITTENT,
                                       duration=300, stuck_value=1),))
        rec = golden_dispatcher.inject(fs)
        assert rec.cycles > 0

    def test_multi_fault_set(self, golden_dispatcher):
        fs = FaultSet(masks=(FaultMask("l1d", 1, 9, 300),
                             FaultMask("int_rf", 30, 5, 500)), set_id=9)
        rec = golden_dispatcher.inject(fs)
        assert len(rec.masks) == 2


class TestRepositories:
    def test_masks_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "masks.jsonl"
        repo = MasksRepository(path)
        sets = [FaultSet(masks=(FaultMask("l1d", 1, 2, 3),), set_id=0),
                FaultSet(masks=(FaultMask("int_rf", 4, 5, 6,
                                          fault_type=PERMANENT),),
                         set_id=1)]
        repo.add_all(sets)
        reloaded = MasksRepository(path)
        assert list(reloaded) == sets

    def test_logs_roundtrip_via_file(self, tmp_path, golden_dispatcher):
        path = tmp_path / "logs.jsonl"
        logs = LogsRepository(path)
        logs.set_golden(golden_dispatcher.golden)
        rec = golden_dispatcher.inject(
            FaultSet(masks=(FaultMask("l1d", 0, 0, 100),)))
        logs.add(rec)
        reloaded = LogsRepository(path)
        assert reloaded.golden.output_hex == \
            golden_dispatcher.golden.output_hex
        assert len(reloaded) == 1
        assert reloaded.records[0].reason == rec.reason

    def test_in_memory_mode(self):
        repo = MasksRepository()
        repo.add_all([FaultSet(masks=(FaultMask("l1d", 0, 0, 1),))])
        assert len(repo) == 1


class TestCampaignController:
    def test_end_to_end_small_campaign(self, tmp_path):
        config = setup_config("GeFIN-x86")
        campaign = InjectionCampaign(
            config, tiny_program("x86"), "tiny", "l1d", seed=11,
            masks_path=tmp_path / "masks.jsonl",
            logs_path=tmp_path / "logs.jsonl")
        n = campaign.prepare(injections=8)
        assert n == 8
        result = campaign.run()
        assert result.injections == 8
        counts = result.classify()
        assert sum(counts.values()) == 8
        assert 0.0 <= result.vulnerability() <= 1.0
        # Logs survive on disk with the golden reference.
        reloaded = LogsRepository(tmp_path / "logs.jsonl")
        assert len(reloaded) == 8 and reloaded.golden is not None

    def test_same_seed_same_classification(self):
        config = setup_config("MaFIN-x86")

        def once():
            c = InjectionCampaign(config, tiny_program("x86"), "tiny",
                                  "lsq", seed=5)
            c.prepare(injections=6)
            return c.run().classify()

        assert once() == once()

    def test_unknown_structure(self):
        config = setup_config("MaFIN-x86")
        c = InjectionCampaign(config, tiny_program("x86"), "tiny",
                              "flux-capacitor")
        with pytest.raises(KeyError, match="flux-capacitor"):
            c.prepare(injections=2)

    def test_run_requires_prepare(self):
        config = setup_config("MaFIN-x86")
        c = InjectionCampaign(config, tiny_program("x86"), "tiny", "l1d")
        with pytest.raises(RuntimeError, match="prepare"):
            c.run()

    def test_progress_callback(self):
        config = setup_config("GeFIN-x86")
        c = InjectionCampaign(config, tiny_program("x86"), "tiny", "int_rf",
                              seed=2)
        c.prepare(injections=3)
        seen = []
        c.run(progress=lambda i, n, rec: seen.append((i, n)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestReusedPaths:
    """A logs or masks file left by an earlier campaign: resume or refuse."""

    CELL = ("GeFIN-x86", "sha", "l1d")

    def test_logs_of_another_seed_are_refused(self, tmp_path):
        logs = tmp_path / "logs.jsonl"
        run_campaign(*self.CELL, injections=4, seed=1, logs_path=logs)
        before = logs.read_bytes()
        with pytest.raises(ValueError, match="mask stream"):
            run_campaign(*self.CELL, injections=4, seed=2, logs_path=logs)
        assert logs.read_bytes() == before

    def test_masks_of_another_seed_are_refused(self, tmp_path):
        masks = tmp_path / "masks.jsonl"
        config = setup_config("GeFIN-x86")

        def campaign(seed):
            return InjectionCampaign(config, tiny_program("x86"), "tiny",
                                     "l1d", seed=seed, masks_path=masks)

        first = campaign(1)
        first.prepare(injections=4)
        first.run()
        before = masks.read_bytes()
        with pytest.raises(ValueError, match="mask stream"):
            again = campaign(2)
            again.prepare(injections=4)
            again.run()
        assert masks.read_bytes() == before

    def test_same_cell_and_seed_resumes(self, tmp_path):
        logs = tmp_path / "logs.jsonl"
        first = run_campaign(*self.CELL, injections=4, seed=1,
                             logs_path=logs)
        before = logs.read_bytes()
        sink = RingBufferSink()
        again = run_campaign(*self.CELL, injections=4, seed=1,
                             logs_path=logs, tracer=Tracer(sink))
        assert sink.names().count("inject_start") == 0
        assert again.records == first.records
        assert logs.read_bytes() == before
