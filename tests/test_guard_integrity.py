"""repro.guard integrity: digests, restore purity, contamination drill."""

import dataclasses
import json
import pickle

import pytest

from repro.core.campaign import InjectionCampaign
from repro.core.dispatcher import InjectorDispatcher
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.core.parser import classify_all
from repro.errors import CampaignError
from repro.guard import BASIC, IntegrityVerifier, integrity, state_digest
from repro.guard.integrity import chaos_leak_due
from repro.obs.trace import RingBufferSink, Tracer
from repro.sim.config import setup_config

from tests.helpers import fresh_sim, tiny_program

SETUPS = ("MaFIN-x86", "GeFIN-x86")


def _dispatcher(setup, guard="strict", tracer=None, **kw):
    config = setup_config(setup)
    d = InjectorDispatcher(config, tiny_program(config.isa), guard=guard,
                           tracer=tracer, **kw)
    d.run_golden()
    return d


def _sets(dispatcher, count, structure="int_rf", seed=3):
    sites = dispatcher.fault_sites()
    info = StructureInfo.of_site(sites[structure])
    return FaultMaskGenerator(seed).generate(info,
                                             dispatcher.golden.cycles,
                                             count=count)


# -- the digest ------------------------------------------------------------

@pytest.mark.parametrize("setup", SETUPS + ("GeFIN-ARM",))
def test_digest_stable_across_snapshot_restore(setup):
    sim = fresh_sim(setup)
    for _ in range(300):
        sim.step()
    state = sim.snapshot()
    before = state_digest(state)
    for _ in range(150):
        sim.step()
    sim.restore(state)
    assert state_digest(sim.snapshot()) == before
    # and digesting the stored blob twice is a no-op on it
    assert state_digest(state) == before


def test_digest_detects_single_byte_drift():
    sim = fresh_sim("GeFIN-x86")
    for _ in range(200):
        sim.step()
    state = sim.snapshot()
    before = state_digest(state)
    data, perms = state["mem"]
    state["mem"] = (bytes([data[0] ^ 1]) + data[1:], perms)
    assert state_digest(state) != before


def test_digest_detects_register_drift():
    sim = fresh_sim("MaFIN-x86")
    for _ in range(200):
        sim.step()
    state = sim.snapshot()
    before = state_digest(state)
    state["cycle"] += 1
    assert state_digest(state) != before


@pytest.mark.parametrize("setup", SETUPS + ("GeFIN-ARM",))
def test_digest_survives_pickle_round_trip(setup):
    """The verifier derives its expected digests from the pickled vault,
    so a round-tripped state must digest like the live one."""
    d = _dispatcher(setup, guard="off")
    checkpoint = d.checkpoints.snapshots[-1][1]
    assert checkpoint["cycle"] > 0
    for state in (d._pristine, checkpoint):
        clone = pickle.loads(pickle.dumps(
            state, protocol=pickle.HIGHEST_PROTOCOL))
        assert state_digest(clone) == state_digest(state)


# -- satellite: restore purity after a contained sim-crash -----------------

@pytest.mark.parametrize("setup", SETUPS)
def test_restore_purity_after_sim_crash(setup):
    """After a faulty run dies mid-flight, the next restore must hand
    back a machine whose digest matches the sealed pristine digest —
    the acceptance criterion that no faulty-run mutation leaks through
    the in-place restore path."""
    d = _dispatcher(setup, guard="strict")
    fault_set = _sets(d, 1)[0]

    real_step = type(d._sim).step
    calls = {"n": 0}

    def crashing_step():
        calls["n"] += 1
        if calls["n"] > 40:
            raise IndexError("corrupted state blew up mid-run")
        real_step(d._sim)

    d._sim.step = crashing_step
    try:
        record = d.inject(fault_set, early_stop=False)
    finally:
        del d._sim.step
    assert record.reason == "sim-crash"

    sealed = d._integrity._digests[0]
    sim = d._fresh_sim(0)
    assert sim.cycle == 0
    assert state_digest(sim.snapshot()) == sealed
    assert d._integrity.contaminations == 0


# -- the verifier ----------------------------------------------------------

def test_verifier_cadence_and_unsealed_behaviour():
    v = IntegrityVerifier(every=2)
    assert not v.sealed
    assert [v.due() for _ in range(5)] == [False, True, False, True, False]
    with pytest.raises(CampaignError):
        v.rebuild()
    assert IntegrityVerifier(every=0).due() is False


def test_chaos_directive_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_GUARD_CHAOS", raising=False)
    assert not chaos_leak_due(1)
    monkeypatch.setenv("REPRO_GUARD_CHAOS", "leak:3")
    assert not chaos_leak_due(2)
    assert chaos_leak_due(3)
    assert not chaos_leak_due(4)
    monkeypatch.setenv("REPRO_GUARD_CHAOS", "leak")
    assert chaos_leak_due(1)
    monkeypatch.setenv("REPRO_GUARD_CHAOS", "leak:x")
    assert not chaos_leak_due(1)
    monkeypatch.setenv("REPRO_GUARD_CHAOS", "other")
    assert not chaos_leak_due(1)


# -- the contamination drill -----------------------------------------------

@pytest.mark.parametrize("setup", SETUPS)
def test_contamination_drill_classifications_match_clean_run(
        setup, monkeypatch):
    """The ISSUE's acceptance drill, in miniature: leak a mutation into
    the shared golden stores mid-campaign; with --guard strict the
    campaign must detect it, condemn and rebuild the machine, and end
    with records byte-identical to an uncontaminated campaign."""
    monkeypatch.delenv("REPRO_GUARD_CHAOS", raising=False)
    d_clean = _dispatcher(setup, guard="off")
    sets = _sets(d_clean, 8)
    clean = [d_clean.inject(fs, early_stop=False).to_dict()
             for fs in sets]

    monkeypatch.setenv("REPRO_GUARD_CHAOS", "leak:4")
    sink = RingBufferSink()
    d = _dispatcher(setup, guard="strict", tracer=Tracer(sink))
    drilled = [d.inject(fs, early_stop=False).to_dict() for fs in sets]

    assert d._integrity.contaminations == 1
    assert json.dumps(clean, sort_keys=True) == \
        json.dumps(drilled, sort_keys=True)
    assert "guard.contamination" in sink.names()


def test_seal_digests_nothing_below_the_cadence(monkeypatch):
    """A basic-guard campaign with fewer restores than integrity_every
    (a short study unit) never pays for a digest."""
    monkeypatch.delenv("REPRO_GUARD_CHAOS", raising=False)
    calls = []
    real = integrity.state_digest
    monkeypatch.setattr(integrity, "state_digest",
                        lambda state: calls.append(1) or real(state))
    assert BASIC.integrity_every > 3
    d = _dispatcher("MaFIN-x86", guard="basic")
    assert d._integrity.sealed
    for fs in _sets(d, 3):
        d.inject(fs, early_stop=False)
    assert calls == [] and d._integrity.checks == 0


@pytest.mark.parametrize("setup", SETUPS)
def test_leak_before_first_due_verify_is_condemned(setup, monkeypatch):
    """The expected digests come from the vault, never from the live
    stores: a leak that lands before the first due verify is still
    caught there, and the campaign classifies like a clean one."""
    monkeypatch.delenv("REPRO_GUARD_CHAOS", raising=False)
    d_clean = _dispatcher(setup, guard="off")
    sets = _sets(d_clean, 6)
    clean = [d_clean.inject(fs, early_stop=False) for fs in sets]

    monkeypatch.setenv("REPRO_GUARD_CHAOS", "leak:2")
    guard = dataclasses.replace(BASIC, integrity_every=4)
    d = _dispatcher(setup, guard=guard)
    drilled = [d.inject(fs, early_stop=False) for fs in sets]

    assert d._integrity.contaminations == 1
    assert classify_all(drilled, d.golden) == \
        classify_all(clean, d_clean.golden)


def test_second_drift_after_rebuild_is_fatal(monkeypatch):
    monkeypatch.delenv("REPRO_GUARD_CHAOS", raising=False)
    d = _dispatcher("GeFIN-x86", guard="strict")
    fault_set = _sets(d, 1)[0]

    # A drift the vault cannot cure (e.g. the machine itself is broken):
    # verify fails again right after the rebuild, which is unexplainable
    # and must abort the campaign instead of rebuilding forever.
    monkeypatch.setattr(IntegrityVerifier, "verify",
                        lambda self, sim: False)
    with pytest.raises(CampaignError, match="after a rebuild"):
        d.inject(fault_set, early_stop=False)
    assert d._integrity.contaminations == 1


def test_guard_off_never_digests(monkeypatch):
    """Chaos leaks with the guard off go undetected by design — the
    drill's control arm — and the off policy does zero digest work."""
    monkeypatch.setenv("REPRO_GUARD_CHAOS", "leak:1")
    d = _dispatcher("GeFIN-x86", guard="off")
    assert d._integrity is None
    record = d.inject(_sets(d, 1)[0], early_stop=False)
    assert record is not None       # run completed, contamination unseen


def test_campaign_api_accepts_guard(monkeypatch):
    monkeypatch.delenv("REPRO_GUARD_CHAOS", raising=False)
    config = setup_config("MaFIN-x86")
    campaign = InjectionCampaign(config, tiny_program(config.isa), "tiny",
                                 "int_rf", seed=11, guard="basic")
    campaign.prepare(injections=3)
    result = campaign.run()
    assert sum(result.classify().values()) == 3
