"""Fault-mode conformance of the simulator's hot paths.

The OoO core and its arrays take shortcuts on the per-instruction path
(direct tag-array reads, decoded issue-queue slots, in-place wakeup)
that are only valid while an array is fault-free and unobserved, and
each shortcut is gated on the array's own ``stuck``/``observer``/
``fault_epoch`` state.  An early-stop watch sits in the observer slot
until its first event, so the early-stop-on runs take the slow paths
of the faulted array up to the flip's first read or overwrite.
This fixture drives seeded injections into every structure of
``fault_sites()`` on all three setups -- transient flips of entries live
at the injection cycle, with early stop on and off, and permanent
stuck-at-0 and stuck-at-1 -- and pins the
sha256 of the resulting records (golden reference included) as sorted
JSON.  Any change to the hot paths must leave these digests unchanged:
the records carry the exception type and message of every crashed run,
so a fast path that behaves differently under a fault shows up here.
The same injections also run through a dispatcher with one checkpoint,
adopted from a pickled golden blob, so restore-point spacing and
page-shared snapshot states must not change a record either.

The digests were recorded before the fast paths existed.  To re-derive
them after a change that is *meant* to alter what the simulator
computes, run ``PYTHONPATH=src python -m tests.test_hotpath_conformance``.
"""

import hashlib
import json
import random
import zlib

import pytest

from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import PERMANENT, FaultMask, FaultSet
from repro.core.maskgen import StructureInfo
from repro.core.parallel import adopt_golden_payload, build_golden_payload
from repro.sim.config import setup_config
from repro.sim.gem5 import build_sim

from tests.helpers import tiny_program

SETUPS = ("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM")
TRANSIENTS_PER_SITE = 2   # each run with early stop on and off
STUCK_PER_VALUE = 1       # permanent stuck-at-0 and stuck-at-1 each

DIGESTS = {
    "MaFIN-x86":
        "f139fad14d159c88978d3b7e691600a827f637b2030229319436f47351c8d3d9",
    "GeFIN-x86":
        "add84c5298ddd7a9543c341ea1ea830051346e217e9842ef1cd8985f1f1386c3",
    "GeFIN-ARM":
        "52a63bfd4ebe2ab81a545b65c2f914c50dba7dfc691bc4f06fa90fbb20871ab1",
}


def live_entries(setup: str, cycles) -> dict:
    """cycle -> site -> entries holding live state after that cycle.

    Stepped on a separate golden machine, so transient flips can be
    aimed at entries the dispatcher will really flip rather than at the
    dead ones it masks without simulating.
    """
    config = setup_config(setup)
    sim = build_sim(tiny_program(config.isa), config)
    sites = sim.fault_sites()
    out = {}
    for cycle in sorted(set(cycles)):
        while sim.cycle < cycle:
            sim.step()
        out[cycle] = {name: [e for e in range(site.array.entries)
                             if site.live(e)]
                      for name, site in sites.items()}
    return out


def default_dispatcher(config) -> InjectorDispatcher:
    """The default checkpoint budget, golden run in this dispatcher."""
    d = InjectorDispatcher(config, tiny_program(config.isa))
    d.run_golden()
    return d


def sparse_adopted_dispatcher(config) -> InjectorDispatcher:
    """A golden run with ``n_checkpoints=2``, adopted through a golden
    blob: its one checkpoint sits at cycle 2048, so most runs cold-start,
    and every restore reads unpickled, page-shared states."""
    parent = InjectorDispatcher(config, tiny_program(config.isa),
                                n_checkpoints=2)
    parent.run_golden()
    d = InjectorDispatcher(config, tiny_program(config.isa),
                           n_checkpoints=2)
    adopt_golden_payload(d, build_golden_payload(parent))
    assert d.checkpoints.cycles == [2048]
    return d


def conformance_records(setup: str,
                        make_dispatcher=default_dispatcher) -> list[dict]:
    """Golden reference plus every seeded injection record of *setup*."""
    config = setup_config(setup)
    d = make_dispatcher(config)
    golden = d.golden
    sites = sorted(d.fault_sites().items())
    rngs = {name: random.Random(zlib.crc32(f"{setup}/{name}".encode()))
            for name, _ in sites}
    cycles = {name: [rngs[name].randrange(1, golden.cycles)
                     for _ in range(TRANSIENTS_PER_SITE)]
              for name, _ in sites}
    live = live_entries(setup, [c for cs in cycles.values() for c in cs])
    rows = [{"golden": golden.to_dict()}]
    set_id = 0
    for name, site in sites:
        info = StructureInfo.of_site(site)
        rng = rngs[name]
        runs = []
        for cycle in cycles[name]:
            candidates = live[cycle][name] or range(info.entries)
            mask = FaultMask(structure=name, entry=rng.choice(candidates),
                             bit=rng.randrange(info.bits_per_entry),
                             cycle=cycle)
            runs += [(mask, True), (mask, False)]
        for value in (0, 1):
            for _ in range(STUCK_PER_VALUE):
                runs.append((FaultMask(structure=name,
                                       entry=rng.randrange(info.entries),
                                       bit=rng.randrange(info.bits_per_entry),
                                       cycle=0, fault_type=PERMANENT,
                                       stuck_value=value), False))
        for mask, early_stop in runs:
            record = d.inject(FaultSet(masks=(mask,), set_id=set_id),
                              early_stop=early_stop)
            rows.append({"early_stop_on": early_stop,
                         "record": record.to_dict()})
            set_id += 1
    return rows


def digest(rows: list[dict]) -> str:
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("setup", SETUPS)
def test_fault_mode_records_match_pinned_digest(setup):
    assert digest(conformance_records(setup)) == DIGESTS[setup]


@pytest.mark.parametrize("setup", SETUPS)
def test_sparse_adopted_checkpoints_match_pinned_digest(setup):
    records = conformance_records(setup, sparse_adopted_dispatcher)
    assert digest(records) == DIGESTS[setup]


if __name__ == "__main__":
    for name in SETUPS:
        print(f'    "{name}": "{digest(conformance_records(name))}",')
