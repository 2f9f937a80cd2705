"""Study specs, plan expansion, unit addressing and sharding."""

import pytest

from repro.sched import CampaignPlan, StudySpec, WorkUnit, shard_of


def small_spec(**over):
    base = dict(setups=("MaFIN-x86", "GeFIN-x86"),
                benchmarks=("sha", "qsort"),
                structures=("int_rf", "l1d"),
                fault_types=("transient",),
                injections=4)
    base.update(over)
    return StudySpec(**base)


class TestWorkUnit:
    def test_unit_id_shape(self):
        u = WorkUnit("MaFIN-x86", "sha", "l1d", "transient")
        assert u.unit_id == "MaFIN-x86/sha/l1d/transient"
        assert "/" not in u.file_id
        assert u.file_id.replace("__", "/") == u.unit_id

    def test_from_id_roundtrip(self):
        u = WorkUnit("GeFIN-x86", "qsort", "int_rf", "permanent")
        assert WorkUnit.from_id(u.unit_id) == u
        assert WorkUnit.from_dict(u.to_dict()) == u

    def test_from_id_malformed(self):
        with pytest.raises(ValueError):
            WorkUnit.from_id("only/three/parts")

    def test_seed_deterministic_and_distinct(self):
        a = WorkUnit("MaFIN-x86", "sha", "l1d")
        b = WorkUnit("MaFIN-x86", "sha", "int_rf")
        assert a.seed(1) == a.seed(1)
        assert a.seed(1) != b.seed(1)
        assert a.seed(1) != a.seed(2)
        assert 0 <= a.seed(12345) <= 0x7FFFFFFF


class TestStudySpec:
    def test_validate_rejects_empty_axes(self):
        with pytest.raises(ValueError):
            small_spec(benchmarks=()).validate()

    def test_validate_rejects_unknown_fault_type(self):
        with pytest.raises(ValueError):
            small_spec(fault_types=("cosmic",)).validate()

    def test_validate_rejects_nonpositive_injections(self):
        with pytest.raises(ValueError):
            small_spec(injections=0).validate()

    def test_roundtrip_preserves_hash(self):
        spec = small_spec()
        clone = StudySpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    def test_hash_changes_with_content(self):
        assert small_spec().spec_hash != small_spec(seed=2).spec_hash
        assert small_spec().spec_hash != \
            small_spec(injections=5).spec_hash


class TestCampaignPlan:
    def test_full_grid_expansion(self):
        plan = CampaignPlan.from_spec(small_spec())
        assert len(plan) == 2 * 2 * 2 * 1
        assert len(set(plan.unit_ids())) == len(plan)
        assert plan.unit("MaFIN-x86/sha/l1d/transient").structure == "l1d"
        with pytest.raises(KeyError):
            plan.unit("nope/nope/nope/nope")

    def test_shards_partition_the_grid(self):
        plan = CampaignPlan.from_spec(small_spec())
        seen = []
        for i in range(3):
            seen.extend(plan.shard(i, 3).unit_ids())
        assert sorted(seen) == sorted(plan.unit_ids())  # exhaustive
        assert len(seen) == len(set(seen))              # disjoint

    def test_shard_is_deterministic(self):
        plan = CampaignPlan.from_spec(small_spec())
        assert plan.shard(0, 2).unit_ids() == plan.shard(0, 2).unit_ids()
        for uid in plan.shard(1, 2).unit_ids():
            assert shard_of(uid, 2) == 1

    def test_shard_index_bounds(self):
        plan = CampaignPlan.from_spec(small_spec())
        with pytest.raises(ValueError):
            plan.shard(2, 2)
        with pytest.raises(ValueError):
            shard_of("x", 0)

    def test_sharded_plan_still_knows_full_grid(self):
        plan = CampaignPlan.from_spec(small_spec())
        sub = plan.shard(0, 2)
        assert sorted(sub.grid_ids()) == sorted(plan.unit_ids())
        assert sub.shard_id == (0, 2)


def setup_major_ids(spec):
    """Unit ids in setup-major order: setup, benchmark, structure, fault."""
    return [WorkUnit(s, b, st, ft).unit_id
            for s in spec.setups for b in spec.benchmarks
            for st in spec.structures for ft in spec.fault_types]


def order_keys(spec, units):
    """(cell rank, pair rank) of each unit; sorted iff pairs rotate
    innermost under structure and fault type."""
    pairs = [(s, b) for s in spec.setups for b in spec.benchmarks]
    cells = [(st, ft) for st in spec.structures for ft in spec.fault_types]
    return [(cells.index((u.structure, u.fault_type)),
             pairs.index((u.setup, u.benchmark))) for u in units]


class TestUnitOrder:
    """Units rotate through (setup, benchmark) pairs, so the first lease
    of every pair comes before any pair's second one."""

    SPEC = dict(setups=("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM"),
                fault_types=("transient", "permanent"))

    def test_first_units_are_distinct_pairs(self):
        spec = small_spec(**self.SPEC)
        plan = CampaignPlan.from_spec(spec)
        n_pairs = len(spec.setups) * len(spec.benchmarks)
        head = [(u.setup, u.benchmark) for u in plan.units[:n_pairs]]
        assert len(set(head)) == n_pairs
        keys = order_keys(spec, plan.units)
        assert keys == sorted(keys)

    def test_ids_seeds_and_shards_match_setup_major(self):
        spec = small_spec(**self.SPEC)
        plan = CampaignPlan.from_spec(spec)
        old = setup_major_ids(spec)
        assert sorted(plan.unit_ids()) == sorted(old)
        assert len(set(plan.unit_ids())) == len(old)
        for study_seed in (1, 7, 12345):
            assert {u.unit_id: u.seed(study_seed) for u in plan} == \
                {uid: WorkUnit.from_id(uid).seed(study_seed) for uid in old}
        for n in (2, 3):
            for i in range(n):
                assert set(plan.shard(i, n).unit_ids()) == \
                    {uid for uid in old if shard_of(uid, n) == i}

    def test_shard_keeps_the_rotation(self):
        spec = small_spec(**self.SPEC)
        plan = CampaignPlan.from_spec(spec)
        for n in (2, 3):
            for i in range(n):
                sub = plan.shard(i, n)
                assert sub.unit_ids() == [uid for uid in plan.unit_ids()
                                          if shard_of(uid, n) == i]
                keys = order_keys(spec, sub.units)
                assert keys == sorted(keys)
