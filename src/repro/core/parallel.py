"""Parallel campaign execution.

The paper's 300 000-injection study ran on ten workstations (~100
threads) for a month; the unit of parallelism is the *injection run* —
runs share nothing but the golden reference and the masks repository.
This module fans a campaign's fault sets over worker processes.

The parent runs the golden execution once, serializes its pristine
state and checkpoint snapshots (the blobs are plain picklable
containers), and ships them compressed to every worker through the pool
initializer.  Workers adopt the shipped golden run instead of re-running
it, so a worker's first injection starts as fast as its last.

Feature parity with the serial path: *fault_type* selects the fault
model, *progress* fires per completed injection (in mask order, as
results stream back from ``imap``), *logs_path* persists the golden
reference and every record to a :class:`LogsRepository`, and telemetry
flows the same way — each worker ships its per-run
:class:`~repro.obs.profile.InjectionSample` *and* its trace events
(``inject_start``/``checkpoint_restored``/``cold_start``/``early_stop``/
``inject_end``) home with the record; the parent folds the samples into
its metrics registry and replays the events into its own sink, so both
the merged metrics and an ``obs summarize`` report match the serial
campaign's.

On a single-core host this adds no speed but is exercised by the tests
for correctness (parallel == serial classification).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import zlib
from dataclasses import dataclass

from repro.core.campaign import (CampaignResult, default_injections,
                                 golden_with_trace)
from repro.core.checkpoint import CheckpointStore
from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import TRANSIENT, FaultSet
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.core.outcome import GoldenReference, InjectionRecord
from repro.core.repository import LogsRepository
from repro.guard import GuardPolicy, OFF as GUARD_OFF
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (CampaignTelemetry, InjectionSample,
                               record_golden, record_injection,
                               record_maskgen, record_prune_plan,
                               record_pruned)
from repro.obs.trace import JSONLSink, NULL_TRACER, TraceEvent, Tracer
from repro.prune import (PRUNE_OFF, PRUNE_POLICIES, AccessTrace, audit_plan,
                         build_prune_plan, clone_record,
                         synthetic_masked_record)
from repro.sim.config import setup_config

_WORKER_STATE: dict = {}


@dataclass(frozen=True)
class _CellSpec:
    setup: str
    benchmark: str
    structure: str
    scaled: bool
    early_stop: bool
    scale: int
    n_checkpoints: int
    timeout_s: float | None = None
    guard: GuardPolicy = GUARD_OFF


class _ListSink:
    """Collects events as dicts so a worker can ship them home."""

    def __init__(self):
        self.rows: list[dict] = []

    def write(self, event: TraceEvent) -> None:
        self.rows.append(event.to_dict())

    def close(self) -> None:
        pass


def build_golden_payload(dispatcher: InjectorDispatcher,
                         include_trace: bool = False) -> bytes:
    """Serialize a dispatcher's golden run as one compressed blob.

    The blob carries the golden reference, the pristine (cycle-0)
    snapshot and every checkpoint — everything another process needs to
    serve injections without re-running the golden execution.  Consumed
    by :func:`adopt_golden_payload`; used by the pool initializer here
    and by ``repro.sched``'s per-unit workers.

    With *include_trace*, the pruner's access trace (when the golden
    run recorded one) rides along, so a scheduler unit that adopts the
    blob can prune without re-recording.  Pool workers here never need
    it — pruning happens in the parent, workers only simulate.
    """
    store = dispatcher.checkpoints
    payload = {
        "golden": dispatcher.golden.to_dict(),
        "pristine": dispatcher._pristine,
        "snapshots": store.snapshots,
        "interval": store.interval,
        "max_snaps": store.max_snaps,
    }
    trace = getattr(dispatcher, "access_trace", None)
    if include_trace and trace is not None:
        payload["trace"] = trace.to_dict()
    return zlib.compress(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), 1)


def adopt_golden_payload(dispatcher: InjectorDispatcher,
                         blob: bytes) -> None:
    """Install a :func:`build_golden_payload` blob into *dispatcher*."""
    payload = pickle.loads(zlib.decompress(blob))
    dispatcher.adopt_golden(
        GoldenReference.from_dict(payload["golden"]),
        payload["pristine"],
        CheckpointStore.from_snapshots(payload["snapshots"],
                                       interval=payload["interval"],
                                       max_snaps=payload["max_snaps"]))
    if "trace" in payload:
        dispatcher.access_trace = AccessTrace.from_dict(payload["trace"])


# Backwards-compatible internal alias.
_build_payload = build_golden_payload


def _worker_init(spec: _CellSpec, blob: bytes) -> None:
    from repro.bench import suite
    config = setup_config(spec.setup, scaled=spec.scaled)
    program = suite.program(spec.benchmark, config.isa, spec.scale)
    sink = _ListSink()
    dispatcher = InjectorDispatcher(config, program,
                                    n_checkpoints=spec.n_checkpoints,
                                    tracer=Tracer(sink),
                                    timeout_s=spec.timeout_s,
                                    guard=spec.guard)
    adopt_golden_payload(dispatcher, blob)
    _WORKER_STATE["dispatcher"] = dispatcher
    _WORKER_STATE["sink"] = sink
    _WORKER_STATE["early_stop"] = spec.early_stop


def _worker_run(fault_set_dict: dict) -> dict:
    dispatcher = _WORKER_STATE["dispatcher"]
    sink = _WORKER_STATE["sink"]
    sink.rows.clear()
    fault_set = FaultSet.from_dict(fault_set_dict)
    try:
        record = dispatcher.inject(fault_set,
                                   early_stop=_WORKER_STATE["early_stop"])
        sample = dispatcher.last_sample
    except Exception as exc:
        # A worker must never take down (or hang) the pool: anything the
        # dispatcher did not already classify becomes a simulator-crash
        # record, so the run is counted instead of lost and the merge
        # stream stays in mask order.
        record = InjectionRecord(
            set_id=fault_set.set_id,
            masks=[m.to_dict() for m in fault_set.masks],
            reason="sim-crash",
            detail=f"worker: {type(exc).__name__}: {exc}")
        sample = InjectionSample(set_id=fault_set.set_id)
    return {"record": record.to_dict(),
            "sample": sample.to_dict(),
            "events": list(sink.rows)}


def run_campaign_parallel(setup: str, benchmark: str, structure: str,
                          injections: int | None = None, seed: int = 1,
                          workers: int = 2, fault_type: str = TRANSIENT,
                          early_stop: bool = True, scaled: bool = True,
                          scale: int = 1, n_checkpoints: int = 10,
                          logs_path=None, progress=None, tracer=None,
                          metrics=None, events_path=None,
                          timeout_s: float | None = None,
                          guard=None, prune: str = PRUNE_OFF,
                          trace_cache=None, audit: int = 0) -> CampaignResult:
    """Like :func:`repro.core.campaign.run_campaign`, with a process pool.

    The masks are generated up front (deterministic in *seed*), split
    across *workers* processes, and the raw records merged back in mask
    order — so the result is bit-identical to the serial campaign.
    Deterministic telemetry (injection counts, outcome and early-stop
    distributions, simulated/saved cycles) also matches the serial
    campaign; wall times are, of course, the parallel run's own.
    *timeout_s* is the serial path's per-injection wall-clock budget,
    enforced inside each worker.  *guard* is the serial path's
    hardening policy, installed in every worker's dispatcher — each
    worker seals its own integrity vault over the shipped golden
    payload, so contamination defense covers the parallel path too.

    *prune*/*trace_cache*/*audit* mirror the serial campaign's pruner
    knobs.  Pruning happens entirely in the parent — the trace is
    recorded (or cache-loaded) with the golden run, the plan built
    after mask generation, and only the surviving sets are shipped to
    the pool; pruned records are synthesized in mask order as the
    worker stream merges back, so the pruned parallel result equals
    the pruned serial one record-for-record.  The *audit* sample is
    simulated in the parent after the pool drains.
    """
    from repro.bench import suite

    if prune not in PRUNE_POLICIES:
        raise ValueError(f"unknown prune policy {prune!r}; "
                         f"choose from {PRUNE_POLICIES}")
    if injections is None:
        injections = default_injections()
    own_tracer = None
    if tracer is None and events_path is not None:
        tracer = own_tracer = Tracer(JSONLSink(events_path))
    if tracer is None:
        tracer = NULL_TRACER
    if metrics is None:
        metrics = MetricsRegistry()
    spec = _CellSpec(setup, benchmark, structure, scaled, early_stop,
                     scale, n_checkpoints, timeout_s, GuardPolicy.of(guard))

    try:
        # Golden + masks in the parent (also validates the structure name).
        config = setup_config(setup, scaled=scaled)
        program = suite.program(benchmark, config.isa, scale)
        dispatcher = InjectorDispatcher(config, program,
                                        n_checkpoints=n_checkpoints,
                                        tracer=tracer,
                                        timeout_s=timeout_s,
                                        guard=guard)
        golden, trace, trace_source = golden_with_trace(
            dispatcher, benchmark, prune, trace_cache, tracer)
        record_golden(metrics, dispatcher.golden_sample)
        logs = LogsRepository(logs_path)
        logs.set_golden(golden)
        sites = dispatcher.fault_sites()
        if structure not in sites:
            raise KeyError(f"{setup} has no structure {structure!r}")
        info = StructureInfo.of_site(sites[structure])
        tracer.emit("maskgen_start", structure=structure, seed=seed)
        t0 = time.perf_counter()
        sets = FaultMaskGenerator(seed).generate(info, golden.cycles,
                                                 count=injections,
                                                 fault_type=fault_type)
        maskgen_s = time.perf_counter() - t0
        record_maskgen(metrics, maskgen_s, len(sets))
        tracer.emit("maskgen_end", structure=structure, masks=len(sets),
                    wall_s=maskgen_s)
        plan = None
        if prune != PRUNE_OFF:
            plan = build_prune_plan(sets, trace, prune)
            stats = plan.stats()
            stats["trace_source"] = trace_source
            record_prune_plan(metrics, stats)
            tracer.emit("prune_plan", structure=structure, policy=prune,
                        masks=stats["masks"], masked=stats["masked"],
                        collapsed=stats["collapsed"],
                        classes=stats["classes"],
                        simulated=stats["simulated"])
        # Only the surviving sets travel to the pool; pruned ones are
        # synthesized parent-side while the stream merges back.
        to_run = [fs for fs in sets
                  if plan is None or plan.decision(fs.set_id) is None]
        blob = _build_payload(dispatcher)

        t_run = time.perf_counter()
        tracer.emit("campaign_start", setup=setup, benchmark=benchmark,
                    structure=structure, masks=len(sets), workers=workers)
        result = CampaignResult(setup=setup, benchmark=benchmark,
                                structure=structure, golden=golden,
                                _tracer=tracer, _metrics=metrics)
        sets_by_id = {fs.set_id: fs for fs in sets}
        by_id: dict[int, InjectionRecord] = {}
        ctx = mp.get_context("spawn" if mp.get_start_method(True) == "spawn"
                             else "fork")
        with ctx.Pool(processes=workers, initializer=_worker_init,
                      initargs=(spec, blob)) as pool:
            rows = pool.imap(_worker_run, [fs.to_dict() for fs in to_run],
                             chunksize=max(len(to_run) // (workers * 4), 1))
            # to_run preserves mask order, so one pass over the full set
            # list — consuming a pool row per simulated set and
            # synthesizing pruned records in place — reproduces the
            # serial stream exactly (a class representative always
            # precedes its clones).
            for i, fault_set in enumerate(sets):
                decision = plan.decision(fault_set.set_id) \
                    if plan is not None else None
                if decision is None:
                    row = next(rows)
                    record = InjectionRecord.from_dict(row["record"])
                    sample = InjectionSample.from_dict(row["sample"])
                    record_injection(metrics, record, sample)
                    if tracer.enabled:
                        # Replay the worker's own trace (restore/cold-
                        # start/early-stop detail included), original
                        # stamps kept.
                        for ev in row["events"]:
                            tracer.sink.write(TraceEvent.from_dict(ev))
                    if record.early_stop is not None:
                        result.early_stops += 1
                elif decision[0] == "masked":
                    record = synthetic_masked_record(fault_set, golden,
                                                     decision[1])
                    record_pruned(metrics, record)
                    tracer.emit("pruned", set_id=fault_set.set_id,
                                rule=decision[1])
                else:
                    record = clone_record(by_id[decision[1]], fault_set)
                    record_pruned(metrics, record)
                    tracer.emit("pruned", set_id=fault_set.set_id,
                                rule="equivalent", rep=decision[1])
                by_id[record.set_id] = record
                logs.add(record)
                result.records.append(record)
                if progress is not None:
                    progress(i + 1, len(sets), record)
        if plan is not None:
            result.prune = plan.stats()
            result.prune["trace_source"] = trace_source
            if audit:
                # The parent dispatcher holds the golden run and all
                # checkpoints — audit injections run here, after the
                # pool has drained.
                verdict = audit_plan(dispatcher, sets_by_id, by_id, plan,
                                     golden, audit, seed,
                                     early_stop=early_stop)
                result.prune["audit"] = verdict
                tracer.emit("prune_audit", checked=verdict["checked"],
                            divergences=len(verdict["divergences"]),
                            digest_ok=verdict["pristine_digest_ok"])
        wall_s = time.perf_counter() - t_run
        result.telemetry = CampaignTelemetry.from_metrics(metrics,
                                                          wall_s=wall_s)
        tracer.emit("campaign_end", setup=setup, benchmark=benchmark,
                    structure=structure, injections=result.injections,
                    early_stops=result.early_stops, wall_s=wall_s,
                    workers=workers)
        return result
    finally:
        if own_tracer is not None:
            own_tracer.close()
