"""The structured snapshot/restore engine (docs/performance.md).

Property under test: a machine restored from ``snapshot()`` state is
*bit-identical* to the machine that produced it — same output, same
kernel events, same exit code, same cycle count, same stats — on every
setup, at any point of the run, whether the state is loaded into a
fresh machine, re-loaded into a used one, or shipped to a worker
process via the parallel payload.
"""

from __future__ import annotations

import pytest

from repro.core import parallel
from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import FaultMask, FaultSet
from repro.core.parallel import run_campaign_parallel
from repro.obs.summarize import load_events, summarize_events
from repro.sim.config import setup_config
from repro.sim.gem5 import build_sim

from tests.helpers import tiny_program

SETUPS = ("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM")


def _fingerprint(outcome):
    return (outcome.cycles, outcome.exit_code, bytes(outcome.output),
            tuple(outcome.events), dict(outcome.stats))


def _machine(setup):
    config = setup_config(setup)
    return build_sim(tiny_program(config.isa), config), config


class TestSnapshotEquivalence:
    @pytest.mark.parametrize("setup", SETUPS)
    def test_restored_run_is_bit_identical(self, setup):
        probe, config = _machine(setup)
        ref = _fingerprint(probe.run())
        for fraction in (0.1, 0.5, 0.9):
            cut = max(1, int(ref[0] * fraction))
            source, _ = _machine(setup)
            for _ in range(cut):
                source.step()
            state = source.snapshot()

            # The state loads into a *different* machine of the same
            # shape and the run finishes exactly like the reference.
            other, _ = _machine(setup)
            assert _fingerprint(other.restore(state).run()) == ref
            # Restoring never perturbed the stored state: loading the
            # same blob into the (now fully run) machine again works.
            assert _fingerprint(other.restore(state).run()) == ref
            # And the source machine itself was not disturbed by
            # taking the snapshot.
            assert _fingerprint(source.run()) == ref

    @pytest.mark.parametrize("setup", SETUPS)
    def test_deepcopy_shim_matches(self, setup):
        import copy
        source, _ = _machine(setup)
        for _ in range(300):
            source.step()
        clone = copy.deepcopy(source)
        assert clone is not source
        assert clone.cycle == source.cycle
        assert _fingerprint(clone.run()) == _fingerprint(source.run())

    def test_restore_clears_faults_and_watches(self):
        source, _ = _machine("MaFIN-x86")
        ref = _fingerprint(build_sim(source.program, source.config).run())
        for _ in range(200):
            source.step()
        state = source.snapshot()
        site = source.fault_sites()["l1d"]
        site.array.flip(2, 3)
        site.array.set_stuck(0, 0, 1, start=0)
        site.array.watch_entry(1, 2)
        # Loading pre-fault state must wipe the flip, the stuck-at and
        # the early-stop watch — the dispatcher relies on this between
        # injection runs.
        assert _fingerprint(source.restore(state).run()) == ref

    def test_fault_sites_survive_restore(self):
        sim, _ = _machine("GeFIN-x86")
        sites = sim.fault_sites()
        assert sim.fault_sites() is sites          # cached per machine
        state = sim.snapshot()
        for _ in range(100):
            sim.step()
        sim.restore(state)
        # In-place restore keeps array identity, so the cached site map
        # (and its liveness closures) stays valid.
        assert sim.fault_sites() is sites
        assert sites["l1d"].array is sim.l1d.data


class TestParallelShipping:
    def test_worker_adopts_parent_golden(self):
        from repro.bench import suite
        config = setup_config("MaFIN-x86", scaled=True)
        program = suite.program("sha", config.isa, 1)
        parent = InjectorDispatcher(config, program, n_checkpoints=6)
        parent.run_golden()
        blob = parallel.build_golden_payload(parent)
        parallel._worker_init(config, program, 6, None, parent.guard, True,
                              blob)
        try:
            worker = parallel._WORKER_STATE["dispatcher"]
            assert worker.golden.to_dict() == parent.golden.to_dict()
            assert worker.checkpoints.cycles == parent.checkpoints.cycles
            # Re-pickling round-tripped state can shift a few bytes of
            # memo encoding; the footprint must still agree closely.
            assert abs(worker.checkpoint_bytes - parent.checkpoint_bytes) \
                < 0.01 * parent.checkpoint_bytes
            assert worker.golden_sample is None  # never ran golden
            fs = FaultSet(masks=(FaultMask("l1d", 3, 17, 400),), set_id=0)
            theirs = worker.inject(fs)
            ours = parent.inject(fs)
            assert theirs.to_dict() == ours.to_dict()
            names = [row["name"]
                     for row in parallel._WORKER_STATE["sink"].rows]
            assert "inject_start" in names and "inject_end" in names
        finally:
            parallel._WORKER_STATE.clear()

    def test_parallel_events_carry_restore_detail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        n = 4
        result = run_campaign_parallel("GeFIN-x86", "sha", "l1d",
                                       injections=n, seed=21, workers=2,
                                       events_path=path)
        assert result.injections == n
        events = load_events(path)
        names = [ev["name"] for ev in events]
        assert names.count("inject_start") == n
        assert names.count("inject_end") == n
        # The worker-side restore trace made it home.
        assert any(name in ("checkpoint_restored", "cold_start")
                   for name in names)
        summary = summarize_events(events)
        checkpoint = summary["checkpoint"]
        assert checkpoint["restores"] + checkpoint["cold_starts"] == n
        assert checkpoint["bytes"] > 0
        assert summary["golden"]["snapshot_s"] > 0.0
