"""Per-unit campaign execution inside a scheduler worker process.

:func:`run_unit` is one leased cell of a study executed end to end:
build (or adopt) the golden run, regenerate the unit's deterministic
masks, skip every ``set_id`` its logs repository already holds (the
mid-unit resume path), inject the rest, and classify.  It reuses
``repro.core.parallel``'s compressed golden/checkpoint shipping — the
scheduler caches one :func:`build_golden_payload` blob per
(setup, benchmark) and ships it to every unit of that pair leased after
the blob arrived; the plan's pair-interleaved order makes that every
unit but the first in the usual case.

:func:`unit_entry` is the ``multiprocessing.Process`` target: it sends
the result dict (records summary, trace events, metrics, optionally
the golden blob for the parent's cache) back over a pipe and never
raises — failures travel home as ``{"ok": False, ...}`` and become
journal ``failed`` transitions, retries, and eventually quarantine.

Chaos hook (tests/CI only): the ``REPRO_SCHED_CHAOS`` environment
variable — ``"<unit_id>=fail:N"`` or ``"<unit_id>=hang:N"`` entries
separated by ``;`` — makes a unit raise or hang while the lease's
attempt number is ≤ N, which is how the retry/backoff/timeout/
quarantine machinery is exercised deterministically.
"""

from __future__ import annotations

import os
import time

from repro.core.dispatcher import InjectorDispatcher
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.core.parallel import (_ListSink, adopt_golden_payload,
                                 build_golden_payload)
from repro.core.parser import classify_all
from repro.core.repository import LogsRepository, MasksRepository
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (record_golden, record_injection,
                               record_prune_plan, record_pruned)
from repro.obs.trace import Tracer
from repro.prune import (PRUNE_OFF, build_prune_plan, clone_record,
                         synthetic_masked_record)
from repro.sched.plan import StudySpec, WorkUnit
from repro.sim.config import setup_config


class ChaosFailure(RuntimeError):
    """Deliberate failure injected through ``REPRO_SCHED_CHAOS``."""


def _chaos(unit_id: str, attempt: int) -> None:
    """Apply the test-only chaos directive for this unit, if any."""
    directives = os.environ.get("REPRO_SCHED_CHAOS", "")
    for entry in directives.split(";"):
        entry = entry.strip()
        if not entry or "=" not in entry:
            continue
        uid, _, action = entry.rpartition("=")
        if uid != unit_id:
            continue
        mode, _, bound = action.partition(":")
        try:
            bound_n = int(bound) if bound else 1
        except ValueError:
            continue
        if attempt > bound_n:
            return
        if mode == "fail":
            raise ChaosFailure(f"chaos fail (attempt {attempt})")
        if mode == "hang":
            time.sleep(3600)


def run_unit(unit: WorkUnit, spec: StudySpec, logs_path, masks_path=None,
             attempt: int = 1, golden_blob: bytes | None = None,
             fsync: bool = False, want_blob: bool = False) -> dict:
    """Execute one work unit; returns a plain result dict.

    Idempotent under interruption: masks are regenerated from the
    unit's deterministic seed, and any ``set_id`` already present in
    the logs repository is skipped, so a unit killed mid-campaign
    finishes exactly the injections it was missing.
    """
    from repro.bench import suite

    t0 = time.perf_counter()
    _chaos(unit.unit_id, attempt)
    sink = _ListSink()
    tracer = Tracer(sink)
    metrics = MetricsRegistry()
    config = setup_config(unit.setup, scaled=spec.scaled)
    program = suite.program(unit.benchmark, config.isa, spec.scale)
    # The guard's SIGALRM watchdog arms here for real: run_unit executes
    # on the main thread of a dedicated spawned process, so a hang
    # inside one sim.step() raises WatchdogTimeout and records a
    # Timeout instead of burning the unit's whole lease.
    dispatcher = InjectorDispatcher(config, program,
                                    n_checkpoints=spec.n_checkpoints,
                                    tracer=tracer,
                                    timeout_s=spec.timeout_s,
                                    guard=spec.guard)
    prune = spec.prune
    ran_golden = golden_blob is None
    if not ran_golden:
        adopt_golden_payload(dispatcher, golden_blob)
        golden = dispatcher.golden
        if prune != PRUNE_OFF and dispatcher.access_trace is None:
            # The cached blob predates pruning (built without a trace):
            # fall back to a fresh golden run that records one.
            ran_golden = True
    if ran_golden:
        dispatcher.record_trace = prune != PRUNE_OFF
        golden = dispatcher.run_golden()
        record_golden(metrics, dispatcher.golden_sample)
        if dispatcher.access_trace is not None:
            dispatcher.access_trace.benchmark = unit.benchmark
    trace = dispatcher.access_trace

    sites = dispatcher.fault_sites()
    if unit.structure not in sites:
        raise KeyError(f"{unit.setup} has no structure "
                       f"{unit.structure!r}; available: {sorted(sites)}")
    info = StructureInfo.of_site(sites[unit.structure])
    gen = FaultMaskGenerator(unit.seed(spec.seed))
    sets = gen.generate(info, golden.cycles, count=spec.injections,
                        fault_type=unit.fault_type,
                        confidence=spec.confidence,
                        error_margin=spec.error_margin)

    logs = LogsRepository(logs_path, fsync=fsync)
    logs.set_golden(golden)
    if masks_path is not None:
        MasksRepository(masks_path, fsync=fsync).add_all(sets)
    done_ids = logs.set_ids
    stray = done_ids - {fs.set_id for fs in sets}
    if stray:
        raise ValueError(
            f"{logs_path} holds set_ids {sorted(stray)[:5]} outside this "
            f"unit's mask stream — logs do not belong to this spec")
    # set_ids alone are just 0..N-1; the masks themselves must match the
    # regenerated stream or a resume would silently mix two studies.
    expected = {fs.set_id: [m.to_dict() for m in fs.masks] for fs in sets}
    for rec in logs.records:
        if rec.masks != expected[rec.set_id]:
            raise ValueError(
                f"{logs_path} record {rec.set_id} was injected with "
                f"different masks — logs do not belong to this unit's "
                f"mask stream")

    plan = stats = None
    if prune != PRUNE_OFF:
        plan = build_prune_plan(sets, trace, prune)
        stats = plan.stats()
        record_prune_plan(metrics, stats)
        tracer.emit("prune_plan", structure=unit.structure, policy=prune,
                    masks=stats["masks"], masked=stats["masked"],
                    collapsed=stats["collapsed"],
                    classes=stats["classes"],
                    simulated=stats["simulated"], unit=unit.unit_id)

    tracer.emit("campaign_start", setup=unit.setup,
                benchmark=unit.benchmark, structure=unit.structure,
                masks=len(sets), unit=unit.unit_id,
                resumed=len(done_ids))
    fresh = 0
    pruned_n = 0
    # Class representatives always precede their clones in set order, so
    # walking in order keeps by_id complete: a clone's representative is
    # either resumed (already in the logs) or was just handled.
    by_id = {rec.set_id: rec for rec in logs.records}
    for fault_set in sets:
        if fault_set.set_id in done_ids:
            continue
        decision = plan.decision(fault_set.set_id) \
            if plan is not None else None
        if decision is None:
            record = dispatcher.inject(fault_set,
                                       early_stop=spec.early_stop)
            record_injection(metrics, record, dispatcher.last_sample)
        elif decision[0] == "masked":
            record = synthetic_masked_record(fault_set, golden,
                                             decision[1])
            record_pruned(metrics, record)
            tracer.emit("pruned", set_id=fault_set.set_id,
                        rule=decision[1])
            pruned_n += 1
        else:
            record = clone_record(by_id[decision[1]], fault_set)
            record_pruned(metrics, record)
            tracer.emit("pruned", set_id=fault_set.set_id,
                        rule="equivalent", rep=decision[1])
            pruned_n += 1
        by_id[record.set_id] = record
        logs.add(record)
        fresh += 1
    records = logs.records
    counts = classify_all(records, golden)
    # Clones copy their representative's early_stop (the Parser needs it
    # to classify them identically); only really-simulated runs count.
    early_stops = sum(1 for r in records
                      if r.early_stop is not None and r.pruned is None)
    wall_s = time.perf_counter() - t0
    tracer.emit("campaign_end", setup=unit.setup,
                benchmark=unit.benchmark, structure=unit.structure,
                injections=len(records), early_stops=early_stops,
                wall_s=wall_s, unit=unit.unit_id)
    return {
        "ok": True,
        "unit": unit.unit_id,
        "counts": counts,
        "injections": len(records),
        "fresh": fresh,
        "resumed": len(done_ids),
        "early_stops": early_stops,
        "pruned": pruned_n,
        "prune": stats,
        "wall_s": wall_s,
        "events": list(sink.rows),
        "metrics": metrics.to_dict(),
        # The blob carries the access trace when pruning, so later units
        # of the same (setup, benchmark) pair skip re-recording too.
        "golden_blob": (build_golden_payload(
                            dispatcher,
                            include_trace=prune != PRUNE_OFF)
                        if want_blob and ran_golden else None),
    }


def unit_entry(conn, payload: dict) -> None:
    """Process target: run the unit, ship the result dict, never raise."""
    try:
        result = run_unit(
            unit=WorkUnit.from_dict(payload["unit"]),
            spec=StudySpec.from_dict(payload["spec"]),
            logs_path=payload["logs_path"],
            masks_path=payload.get("masks_path"),
            attempt=payload.get("attempt", 1),
            golden_blob=payload.get("golden_blob"),
            fsync=payload.get("fsync", False),
            want_blob=payload.get("want_blob", False),
        )
    except Exception as exc:
        import traceback
        result = {"ok": False,
                  "unit": payload["unit"].get("setup", "?"),
                  "error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()}
    try:
        conn.send(result)
    finally:
        conn.close()
