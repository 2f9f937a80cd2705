"""Cell workloads: ``InjectionCampaign`` on one (setup, benchmark, structure).

A round is one campaign, run in this process: ``prepare()`` (the golden
run; timed as set-up), then ``run()`` over ``per_round`` fault masks
(timed as the round's wall), then ``classify()``.

The masks are the workload's inputs.  A seeded pool is drawn with the
program's own ``FaultMaskGenerator`` and sorted by what makes an
injection cheap or dear; each round takes a systematic sample of that
order at a seeded offset.  Transient masks sort by whether the golden
access trace says the flip is overwritten (or lands in a dead line)
before it is read -- the runs the dispatcher stops early -- and then by
injection cycle; stuck-at masks sort by stuck value, line and bit.  So
every round holds the same mix of cheap and full-length runs, and a
round's cost moves with the code far more than with the seed, which a
plain random dozen masks does not manage.
"""

from __future__ import annotations

import json
import random
import time

from repro.bench import suite
from repro.core.campaign import InjectionCampaign, golden_with_trace
from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import PERMANENT, TRANSIENT, FaultSet
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.obs.trace import Tracer
from repro.prune import (PRUNE_ANALYZE, RULE_DEAD, RULE_OVERWRITTEN,
                         build_prune_plan)
from repro.sim.config import setup_config

import calibrate
import spans
from common import ListSink, event_stats, golden_fingerprint, sha256_text

CELLS = {
    # The paper's core loop: every mask simulated, about a third of the
    # runs stopped early (§III.B), checkpoints skip the prefix.
    "inject-transient": {"setup": "MaFIN-x86", "benchmark": "sha",
                         "structure": "l1d", "fault_type": TRANSIENT,
                         "per_round": 12},
    # Stuck-at faults: every run cold-restores from cycle 0 and runs to
    # the end; every read of the faulted line goes through the
    # StorageArray stuck-bit path.  The other simulator family and ISA.
    "inject-stuck": {"setup": "GeFIN-ARM", "benchmark": "sha",
                     "structure": "l1d", "fault_type": PERMANENT,
                     "per_round": 8},
}

#: Size of the seeded candidate pool each round samples from.
POOL = 2000


class CellWorkload:
    """Rounds of one cell; inputs depend only on (seed, round index)."""

    workers = 1

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.cell = CELLS[name]
        self.config = setup_config(self.cell["setup"])
        self.program = suite.program(self.cell["benchmark"], self.config.isa)
        self.frame = self._frame()

    def _frame(self) -> list[FaultSet]:
        cell = self.cell
        dispatcher = InjectorDispatcher(self.config, self.program)
        transient = cell["fault_type"] == TRANSIENT
        if transient:
            golden, trace, _ = golden_with_trace(
                dispatcher, cell["benchmark"], PRUNE_ANALYZE)
        else:
            golden = dispatcher.run_golden()
        info = StructureInfo.of_site(
            dispatcher.fault_sites()[cell["structure"]])
        pool = FaultMaskGenerator(self.seed).generate(
            info, golden.cycles, count=POOL, fault_type=cell["fault_type"])
        if not transient:
            return sorted(pool, key=lambda fs: (
                fs.masks[0].stuck_value, fs.masks[0].entry, fs.masks[0].bit))
        plan = build_prune_plan(pool, trace, PRUNE_ANALYZE)

        def stops_early(fs) -> bool:
            decision = plan.decision(fs.set_id)
            return decision is not None and \
                decision[1] in (RULE_DEAD, RULE_OVERWRITTEN)
        return sorted(pool, key=lambda fs: (stops_early(fs),
                                            fs.masks[0].cycle))

    def round_masks(self, index: int) -> list[FaultSet]:
        k = self.cell["per_round"]
        offset = random.Random(self.seed * 1_000_003 + index).random()
        step = len(self.frame) / k
        return [FaultSet(masks=self.frame[int((i + offset) * step)].masks,
                         set_id=i) for i in range(k)]

    def run_round(self, index: int, work, traced: bool = False) -> dict:
        cell = self.cell
        sink = ListSink()
        campaign = InjectionCampaign(
            self.config, self.program, cell["benchmark"], cell["structure"],
            seed=self.seed, fault_type=cell["fault_type"],
            tracer=Tracer(sink))
        masks = self.round_masks(index)
        rec = spans.install() if traced else None
        try:
            speed = calibrate.Speed()
            t0 = time.perf_counter()
            campaign.prepare(injections=0)
            t1 = time.perf_counter()
            speed.mark()
            campaign.masks.add_all(masks)
            probed = speed.probing_s
            t2 = time.perf_counter()
            result = campaign.run(
                progress=lambda done, total, record: speed.mark())
            t3 = time.perf_counter()
            counts = result.classify()
            t4 = time.perf_counter()
        finally:
            if rec is not None:
                spans.uninstall(rec)
        pair = f"{cell['setup']}/{cell['benchmark']}"
        records = "\n".join(json.dumps(r.to_dict(), sort_keys=True)
                            for r in result.records)
        out = {
            "index": index,
            "traced": traced,
            "wall_s": t3 - t2 - (speed.probing_s - probed),
            "setup_s": t1 - t0,
            "probe_s": speed.probe_s(),
            "masks": len(masks),
            "records": len(result.records),
            "counts": counts,
            "digest": sha256_text(records),
            "pruned": sum(r.pruned is not None for r in result.records),
            "goldens": {pair: golden_fingerprint(
                campaign.dispatcher.golden.to_dict())},
            "pairs": 1,
            "attempted": len(masks),
            "failed": 0,
            **event_stats(sink.rows),
        }
        out["busy_s"] = out["inject_s"]
        if rec is not None:
            out["processes"] = [rec.to_dict()]
            out["span_roots_s"] = (t1 - t0) + (t3 - t2) + (t4 - t3)
        return out
