"""Fuzz-style survival test: random faults everywhere, zero escapes.

The robustness contract in one test: flip random bits at random cycles
across *every* injectable structure of all three setups, and assert
that each run yields a classifiable record — no unhandled exception,
no hang, no campaign abort.  Seeded from a stable checksum of the setup
name (not ``hash()``, which ``PYTHONHASHSEED`` salts), so a failure
reproduces exactly.
"""

import random
import zlib

import pytest

from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import FaultMask, FaultSet
from repro.core.maskgen import StructureInfo
from repro.core.outcome import CLASSES
from repro.core.parser import classify_all
from repro.sim.config import setup_config

from tests.helpers import tiny_program

RUNS_PER_SETUP = 100      # 300 total across the three setups


@pytest.mark.parametrize("setup", ["MaFIN-x86", "GeFIN-x86", "GeFIN-ARM"])
def test_fuzz_every_structure_survives_and_classifies(setup):
    config = setup_config(setup)
    d = InjectorDispatcher(config, tiny_program(config.isa),
                           guard="strict", timeout_s=30.0)
    golden = d.run_golden()
    sites = d.fault_sites()
    structures = sorted(sites)
    infos = {name: StructureInfo.of_site(site)
             for name, site in sites.items()}

    rng = random.Random(0xFA0175 + zlib.crc32(setup.encode()) % 1000)
    records = []
    hit = set()
    for i in range(RUNS_PER_SETUP):
        st = structures[i % len(structures)]   # round-robin: cover all
        info = infos[st]
        mask = FaultMask(structure=st,
                         entry=rng.randrange(info.entries),
                         bit=rng.randrange(info.bits_per_entry),
                         cycle=rng.randrange(1, golden.cycles))
        record = d.inject(FaultSet(masks=(mask,), set_id=i),
                          early_stop=bool(i % 2))
        assert record.reason, f"run {i} ({st}) produced no reason"
        records.append(record)
        hit.add(st)

    assert hit == set(structures), "fuzz never reached some structures"
    counts = classify_all(records, golden)
    assert sum(counts.values()) == RUNS_PER_SETUP
    assert set(counts) <= set(CLASSES)
