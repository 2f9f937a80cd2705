"""Early stop (§III.B) against full runs and against the golden trace.

Early stop and the pruner's golden access trace observe a storage array
through one hook, its observer slot (``repro.uarch.array``).  Three
checks hold that hook to account on every ``fault_sites()`` structure
of all three setups:

* **The early-stop axis.**  Transient flips of entries live at the
  injection cycle, picked the way ``test_hotpath_conformance`` picks
  them, must classify the same with early stop on and off.  The
  records differ by design: an early-stopped run reports the golden
  observables.
* **Watch against trace.**  At seeded cycles of a golden run, a
  :class:`~repro.uarch.array.Watch` armed on a live (entry, bit) must
  see what ``classify_mask`` reads from a trace of every site: a read
  first exactly when the mask is not prunable, an overwrite first
  exactly for ``write-before-read``, and nothing for ``never-read``
  and ``dead-entry``.
* **Pinned issue-queue masks.**  ``IssueQueue.wake`` once compared a
  slot's source tags without reporting the read, so its write-back of
  the ready bits counted as an overwrite while the flipped bit was
  still in the queue: early stop called these five sha masks Masked.
"""

import random
import zlib

import pytest

from repro.bench import suite
from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import FaultMask, FaultSet
from repro.core.maskgen import StructureInfo
from repro.core.parser import classify
from repro.prune import (RULE_DEAD, RULE_NEVER_READ, RULE_OVERWRITTEN,
                         TraceRecorder, classify_mask)
from repro.sim.config import setup_config
from repro.sim.gem5 import build_sim
from repro.sim.kernel import ProcessExit

from tests.helpers import tiny_program, tiny_sim_outcome
from tests.test_hotpath_conformance import (SETUPS, default_dispatcher,
                                            live_entries)

MASKS_PER_SITE = 6        # early-stop axis: flips per site, each run twice
WATCHES_PER_SITE = 12     # watch against trace: sampled cycles per site


def axis_masks(setup: str, d: InjectorDispatcher) -> list[FaultMask]:
    """Seeded transient flips of live entries on every site of *setup*."""
    sites = sorted(d.fault_sites().items())
    rngs = {name: random.Random(zlib.crc32(f"early-stop/{setup}/{name}"
                                           .encode()))
            for name, _ in sites}
    cycles = {name: [rngs[name].randrange(1, d.golden.cycles)
                     for _ in range(MASKS_PER_SITE)]
              for name, _ in sites}
    live = live_entries(setup, [c for cs in cycles.values() for c in cs])
    masks = []
    for name, site in sites:
        info = StructureInfo.of_site(site)
        rng = rngs[name]
        for cycle in cycles[name]:
            masks.append(FaultMask(
                structure=name,
                entry=rng.choice(live[cycle][name] or range(info.entries)),
                bit=rng.randrange(info.bits_per_entry), cycle=cycle))
    return masks


@pytest.mark.parametrize("setup", SETUPS)
def test_early_stop_keeps_every_classification(setup):
    d = default_dispatcher(setup_config(setup))
    disagree, stops = [], {}
    for set_id, mask in enumerate(axis_masks(setup, d)):
        fs = FaultSet(masks=(mask,), set_id=set_id)
        on = d.inject(fs, early_stop=True)
        off = d.inject(fs, early_stop=False)
        if on.early_stop is not None:
            stops[on.early_stop] = stops.get(on.early_stop, 0) + 1
        if classify(on, d.golden) != classify(off, d.golden):
            disagree.append((mask.to_dict(), on.early_stop,
                             classify(on, d.golden),
                             classify(off, d.golden)))
    assert disagree == []
    # Both rules fired, so the axis compares real early stops.
    assert stops.get("overwritten") and stops.get("invalid-entry"), stops


def watch_and_trace(setup: str) -> list[tuple]:
    """(site, mask, watch event, trace rule) at seeded golden cycles."""
    config = setup_config(setup)
    sim = build_sim(tiny_program(config.isa), config)
    sites = sim.fault_sites()
    rng = random.Random(11)
    end = tiny_sim_outcome(setup).cycles
    picks = [(rng.randrange(1, end), name)
             for name in sorted(sites) for _ in range(WATCHES_PER_SITE)]
    picks.sort()
    recorder = TraceRecorder(sim, sorted(sites))
    armed = []                   # (state, site, entry, bit, cycle)
    try:
        for cycle, name in picks:
            while sim.cycle < cycle:
                sim.step()
            site = sites[name]
            live = [e for e in range(site.array.entries) if site.live(e)]
            entry = rng.choice(live or range(site.array.entries))
            bit = rng.randrange(site.array.bits_per_entry)
            armed.append((sim.snapshot(), name, entry, bit, cycle))
        while True:
            sim.step()
    except ProcessExit:
        pass
    trace = recorder.finish(setup, "tiny", sim.cycle)
    rows = []
    for state, name, entry, bit, cycle in armed:
        sim.restore(state)
        watch = sites[name].array.watch_entry(entry, bit)
        try:
            while watch.event is None:
                sim.step()
        except ProcessExit:
            pass
        rule = classify_mask(trace.structures[name], entry, bit, cycle)
        rows.append((name, (entry, bit, cycle), watch.event, rule))
    return rows


# The watch's first event for each verdict of classify_mask.
EXPECTED_EVENT = {None: "read", RULE_OVERWRITTEN: "overwritten",
                  RULE_NEVER_READ: None, RULE_DEAD: None}


@pytest.mark.parametrize("setup", SETUPS)
def test_watch_agrees_with_trace_on_every_site(setup):
    rows = watch_and_trace(setup)
    wrong = {}
    for name, mask, event, rule in rows:
        if EXPECTED_EVENT[rule] != event:
            wrong.setdefault(name, []).append((mask, event, rule))
    assert wrong == {}
    events = {event for _, _, event, _ in rows}
    assert events == {"read", "overwritten", None}


# (setup, sha set id at seed 5, entry, bit, cycle): run_campaign's
# masks that early stop misclassified through IssueQueue.wake.
PINNED_IQ = [
    ("MaFIN-x86", 4, 24, 69, 1671),
    ("MaFIN-x86", 15, 1, 46, 6798),
    ("GeFIN-x86", 38, 9, 39, 7927),
    ("GeFIN-x86", 135, 7, 28, 10069),
    ("GeFIN-x86", 148, 18, 71, 9010),
]


@pytest.fixture(scope="module")
def sha_dispatchers():
    out = {}
    for setup in sorted({row[0] for row in PINNED_IQ}):
        config = setup_config(setup)
        d = InjectorDispatcher(config, suite.program("sha", config.isa),
                               n_checkpoints=10)
        d.run_golden()
        out[setup] = d
    return out


@pytest.mark.parametrize("setup,set_id,entry,bit,cycle", PINNED_IQ)
def test_pinned_iq_masks_keep_their_classification(
        sha_dispatchers, setup, set_id, entry, bit, cycle):
    d = sha_dispatchers[setup]
    fs = FaultSet(masks=(FaultMask("iq", entry, bit, cycle),),
                  set_id=set_id)
    on = d.inject(fs, early_stop=True)
    off = d.inject(fs, early_stop=False)
    assert classify(on, d.golden) == classify(off, d.golden)
    assert on.early_stop is None            # wake reads the flip first
