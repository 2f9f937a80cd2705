"""gem5-like simulator (the substrate of GeFIN), for x86 and ARM.

Personality traits (the counterparts of :mod:`repro.sim.marss`):

* split 16/16 load/store queues in which **only the store queue holds
  data** (Remark 1);
* **conservative load issue**: a load waits until every older store
  address is known, forwarding from the store queue on a match;
* the **complete system runs inside the simulator**: syscalls, kernel
  bookkeeping and page-table walks all go through the cache data arrays,
  so resident faults reach OS activity too (Remark 3, system crashes);
* true **write-back caches**: dirty (possibly corrupted) lines propagate
  downwards on eviction;
* history-indexed (gshare-style) tournament predictor and a single
  direct-mapped 2K BTB;
* **sparse assertion checking**: corrupted state propagates until the
  simulator itself dies (:class:`~repro.errors.SimCrashError` → the
  Crash/simulator sub-class, Remark 8).
"""

from __future__ import annotations

from repro.sim.base import OoOCore
from repro.sim.config import SimConfig, paper_config, scaled_config
from repro.sim.marss import MarssSim


class Gem5Sim(OoOCore):
    """gem5-flavoured out-of-order machine (x86 or ARM)."""

    def __init__(self, program, config: SimConfig | None = None,
                 scaled: bool = True):
        if config is None:
            config = (scaled_config if scaled else paper_config)(
                "gem5", program.isa)
        if config.name != "gem5":
            raise ValueError(f"Gem5Sim needs a gem5 config, got "
                             f"{config.name!r}")
        super().__init__(program, config)

    def check(self, cond: bool, msg: str) -> None:
        # gem5's checking is compact and infrequent (Remark 8): corrupted
        # state flows on and surfaces later as a simulator crash.
        return


def build_sim(program, config: SimConfig):
    """Instantiate the right simulator personality for *config*."""
    if config.name == "marss":
        return MarssSim(program, config)
    return Gem5Sim(program, config)
