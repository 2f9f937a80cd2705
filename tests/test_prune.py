"""repro.prune: golden-trace pre-classification.

The contract under test is soundness: a pruned campaign must classify
*identically* to an unpruned one — the analyzer only skips simulations
whose verdict the golden access trace already determines.  Covered
here: the per-rule classifier against hand-built traces, trace
determinism, the disk cache, the audit gate on both setup families,
the scheduler integration, and the mask-generator dedup regression.
Parallel and scheduler logs equal serial ones byte for byte under
pruning: tests/test_cell_conformance.py.
"""

import hashlib

import pytest

from repro.core.campaign import InjectionCampaign
from repro.core.fault import INTERMITTENT, TRANSIENT, FaultMask, FaultSet
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.prune import (PRUNE_ANALYZE, PRUNE_OFF, RULE_DEAD,
                         RULE_NEVER_READ, RULE_OVERWRITTEN, AccessTrace,
                         StructureTrace, TraceCache, build_prune_plan,
                         classify_mask)
from repro.sched.plan import StudySpec, WorkUnit
from repro.sched.worker import run_unit
from repro.sim.config import setup_config

from tests.helpers import tiny_program


# -- the per-rule classifier on hand-built traces --------------------------

def word_trace(events):
    return StructureTrace("int_rf", "word", 8, 64, events=events)

def line_trace(events, initial=(0,)):
    return StructureTrace("l1d", "line", 4, 512,
                          initial_filled=initial, events=events)


class TestClassifyMask:
    def test_read_first_is_not_prunable(self):
        st = word_trace({0: [[5, "r"]]})
        assert classify_mask(st, 0, 3, cycle=2) is None

    def test_flip_on_read_cycle_lands_after_the_read(self):
        # The dispatcher applies masks on cycle edges: a flip at cycle c
        # lands after every event stamped <= c.
        st = word_trace({0: [[3, "r"]]})
        assert classify_mask(st, 0, 0, cycle=3) == RULE_NEVER_READ

    def test_dead_entry_never_filled(self):
        st = line_trace({}, initial=())
        assert classify_mask(st, 0, 0, cycle=5) == RULE_DEAD

    def test_dead_entry_after_invalidate(self):
        st = line_trace({0: [[4, "i"], [9, "F"], [12, "r"]]})
        assert classify_mask(st, 0, 0, cycle=6) == RULE_DEAD
        # Refilled at 9: live again, and read at 12.
        assert classify_mask(st, 0, 0, cycle=10) is None

    def test_covering_write_erases_the_flip(self):
        st = word_trace({2: [[6, "W"], [9, "r"]]})
        assert classify_mask(st, 2, 0, cycle=2) == RULE_OVERWRITTEN

    def test_fill_erases_the_flip(self):
        st = line_trace({0: [[6, "F"], [9, "r"]]})
        assert classify_mask(st, 0, 0, cycle=2) == RULE_OVERWRITTEN

    def test_partial_write_covers_only_its_bytes(self):
        st = line_trace({0: [[6, "w", 0, 8], [20, "r"]]})
        # bit 8 lives in byte 1, inside [0, 8): overwritten unread.
        assert classify_mask(st, 0, 8, cycle=2) == RULE_OVERWRITTEN
        # bit 100 lives in byte 12, outside [0, 8): survives to the read.
        assert classify_mask(st, 0, 100, cycle=2) is None

    def test_invalidated_unread(self):
        st = line_trace({0: [[6, "w", 0, 4], [9, "i"]]})
        assert classify_mask(st, 0, 400, cycle=2) == RULE_NEVER_READ

    def test_never_touched_again(self):
        st = word_trace({1: [[3, "r"]]})
        assert classify_mask(st, 1, 0, cycle=7) == RULE_NEVER_READ


# -- plan construction -----------------------------------------------------

def _single(set_id, cycle, bit=1, entry=0, structure="int_rf",
            fault_type=TRANSIENT, duration=0):
    if fault_type == INTERMITTENT and not duration:
        duration = 5
    mask = FaultMask(structure=structure, entry=entry, bit=bit,
                     cycle=cycle, fault_type=fault_type, duration=duration)
    return FaultSet(masks=(mask,), set_id=set_id)


def _trace_for(st):
    return AccessTrace(setup="T", benchmark="t", cycles=100,
                       structures={st.name: st})


class TestBuildPrunePlan:
    def test_analyze_masks_unread_flips_and_simulates_the_rest(self):
        trace = _trace_for(word_trace({0: [[10, "r"], [20, "r"]]}))
        sets = [_single(0, 2), _single(1, 5), _single(2, 15),
                _single(3, 25)]
        plan = build_prune_plan(sets, trace, PRUNE_ANALYZE)
        # Cycle 25: nothing ever reads the entry again.
        assert plan.masked == {3: RULE_NEVER_READ}
        assert plan.decision(3) == ("masked", RULE_NEVER_READ)
        # Every other flip is read before it is overwritten.
        assert [plan.decision(i) for i in range(3)] == [None] * 3
        stats = plan.stats()
        assert (stats["masked"], stats["simulated"]) == (1, 3)

    def test_multi_mask_and_non_transient_sets_are_simulated(self):
        trace = _trace_for(word_trace({}))
        multi = FaultSet(masks=(_single(0, 2).masks[0],
                                _single(0, 3, bit=2).masks[0]), set_id=0)
        interm = _single(1, 2, fault_type=INTERMITTENT)
        plan = build_prune_plan([multi, interm], trace, PRUNE_ANALYZE)
        assert plan.decision(0) is None and plan.decision(1) is None

    def test_off_policy_prunes_nothing(self):
        trace = _trace_for(word_trace({}))
        plan = build_prune_plan([_single(0, 2)], trace, PRUNE_OFF)
        assert plan.decision(0) is None and plan.stats()["masked"] == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="prune policy"):
            build_prune_plan([], _trace_for(word_trace({})), "bogus")

    def test_stats_serialise_the_trace_once(self, monkeypatch):
        trace = _trace_for(word_trace({0: [[10, "r"]]}))
        plan = build_prune_plan([_single(0, 2)], trace, PRUNE_ANALYZE)
        real = AccessTrace.to_bytes
        calls = []
        monkeypatch.setattr(AccessTrace, "to_bytes",
                            lambda self: calls.append(1) or real(self))
        first = plan.stats()
        assert plan.stats() == first and len(calls) == 1
        assert first["trace_digest"] == \
            hashlib.sha256(real(trace)).hexdigest()
        # Naming the benchmark after recording (as run_unit and the
        # campaign do) must not leave a stale digest behind.
        trace.benchmark = "sha"
        again = plan.stats()["trace_digest"]
        assert again == hashlib.sha256(real(trace)).hexdigest()
        assert again != first["trace_digest"] and len(calls) == 2


# -- end-to-end soundness on both setup families ---------------------------

def _campaign(setup, prune, audit=0, structure="l1d", trace_cache=None):
    config = setup_config(setup)
    campaign = InjectionCampaign(config, tiny_program(config.isa), "tiny",
                                 structure, seed=11, prune=prune,
                                 audit=audit, trace_cache=trace_cache)
    campaign.prepare(injections=30)
    return campaign.run()


@pytest.fixture(scope="module", params=["MaFIN-x86", "GeFIN-x86"])
def pruned_pair(request):
    setup = request.param
    return (setup, _campaign(setup, PRUNE_OFF),
            _campaign(setup, PRUNE_ANALYZE, audit=8))


class TestCampaignSoundness:
    def test_classification_is_invariant(self, pruned_pair):
        setup, off, pruned = pruned_pair
        assert pruned.classify() == off.classify()
        assert pruned.injections == off.injections == 30

    def test_audit_re_simulation_agrees(self, pruned_pair):
        _, _, pruned = pruned_pair
        audit = pruned.prune["audit"]
        assert audit["checked"] > 0
        assert audit["divergences"] == []
        assert audit["pristine_digest_ok"]

    def test_prune_accounting_is_closed(self, pruned_pair):
        _, _, pruned = pruned_pair
        stats = pruned.prune
        assert stats["masked"] > 0
        assert stats["masked"] + stats["simulated"] == stats["masks"] == 30
        marked = [r for r in pruned.records if r.pruned is not None]
        assert len(marked) == stats["masked"]

    def test_early_stops_count_only_simulated_runs(self, pruned_pair):
        _, _, pruned = pruned_pair
        assert pruned.early_stops == sum(
            1 for r in pruned.records
            if r.early_stop is not None and r.pruned is None)


class TestTraceDeterminismAndCache:
    def test_trace_is_deterministic(self):
        digests = {_campaign("MaFIN-x86",
                             PRUNE_ANALYZE).prune["trace_digest"]
                   for _ in range(2)}
        assert len(digests) == 1

    def test_cache_round_trip(self, tmp_path):
        first = _campaign("MaFIN-x86", PRUNE_ANALYZE,
                          trace_cache=tmp_path)
        again = _campaign("MaFIN-x86", PRUNE_ANALYZE,
                          trace_cache=tmp_path)
        assert first.prune["trace_source"] == "recorded"
        assert again.prune["trace_source"] == "cache"
        assert again.prune["trace_digest"] == first.prune["trace_digest"]
        assert again.records == first.records
        assert again.classify() == first.classify()

    def test_corrupt_cache_entry_is_re_recorded(self, tmp_path):
        cache = TraceCache(tmp_path)
        _campaign("MaFIN-x86", PRUNE_ANALYZE, trace_cache=cache)
        path = cache.path_for("MaFIN-x86", "tiny")
        path.write_bytes(b"garbage")
        result = _campaign("MaFIN-x86", PRUNE_ANALYZE, trace_cache=cache)
        assert result.prune["trace_source"] == "recorded"

    def test_stale_cache_entry_is_re_recorded(self, tmp_path):
        cache = TraceCache(tmp_path)
        first = _campaign("MaFIN-x86", PRUNE_ANALYZE, trace_cache=cache)
        trace = cache.load("MaFIN-x86", "tiny")
        trace.cycles += 1                  # simulator "changed"
        cache.store(trace)
        result = _campaign("MaFIN-x86", PRUNE_ANALYZE, trace_cache=cache)
        assert result.prune["trace_source"] == "recorded"
        assert result.prune["trace_digest"] == first.prune["trace_digest"]


# -- scheduler integration -------------------------------------------------

class TestSchedPrune:
    def test_spec_rejects_unknown_policy(self):
        spec = StudySpec(setups=("MaFIN-x86",), benchmarks=("sha",),
                         structures=("l1d",), prune="bogus")
        with pytest.raises(ValueError, match="prune policy"):
            spec.validate()

    def test_unit_with_pruning_matches_without(self, tmp_path):
        unit = WorkUnit("MaFIN-x86", "sha", "l1d")
        base = dict(setups=("MaFIN-x86",), benchmarks=("sha",),
                    structures=("l1d",), injections=10, seed=5)
        off = run_unit(unit, StudySpec(**base), tmp_path / "off.jsonl")
        pruned = run_unit(unit, StudySpec(prune="analyze", **base),
                          tmp_path / "pruned.jsonl")
        assert pruned["counts"] == off["counts"]
        assert pruned["pruned"] > 0
        assert pruned["prune"]["simulated"] + pruned["pruned"] == 10

    def test_resume_over_pruned_logs(self, tmp_path):
        unit = WorkUnit("MaFIN-x86", "sha", "l1d")
        spec = StudySpec(setups=("MaFIN-x86",), benchmarks=("sha",),
                         structures=("l1d",), injections=10, seed=5,
                         prune="analyze")
        logs = tmp_path / "unit.jsonl"
        first = run_unit(unit, spec, logs)
        again = run_unit(unit, spec, logs)
        assert again["fresh"] == 0 and again["resumed"] == 10
        assert again["counts"] == first["counts"]


# -- mask-generator dedup regression ---------------------------------------

class TestGenerateMultiDedup:
    def test_no_duplicate_sites_within_a_run(self):
        info = StructureInfo("rf", entries=1, bits_per_entry=2)
        gen = FaultMaskGenerator(3)
        # 4 sites (2 bits x 2 cycles), 3 faults per run: collisions are
        # certain across 50 runs unless the generator redraws.
        for fs in gen.generate_multi([info], total_cycles=2, count=50,
                                     faults_per_run=3):
            sites = [(m.structure, m.entry, m.bit, m.cycle)
                     for m in fs.masks]
            assert len(set(sites)) == len(sites) == 3

    def test_impossible_population_rejected(self):
        info = StructureInfo("rf", entries=1, bits_per_entry=2)
        with pytest.raises(ValueError, match="distinct fault sites"):
            FaultMaskGenerator(3).generate_multi(
                [info], total_cycles=1, count=1, faults_per_run=3)

    def test_redraws_are_deterministic(self):
        info = StructureInfo("rf", entries=1, bits_per_entry=2)
        runs = [FaultMaskGenerator(9).generate_multi(
                    [info], total_cycles=2, count=20, faults_per_run=3)
                for _ in range(2)]
        assert runs[0] == runs[1]
