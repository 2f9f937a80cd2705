"""Parallel campaign execution.

The paper's 300 000-injection study ran on ten workstations (~100
threads) for a month; the unit of parallelism is the *injection run* —
runs share nothing but the golden reference and the masks repository.
This module is the process-pool executor of the one cell pipeline,
:class:`repro.core.campaign.InjectionCampaign`: with ``workers > 0``
the campaign hands the fault sets it must simulate to
:func:`pool_inject`; everything else — golden run, mask stream, prune
plan, resume, logs, telemetry, audit — stays in the parent campaign.

The parent's golden run is serialized once — pristine state and
checkpoint snapshots are plain picklable containers — and shipped
compressed to every worker through the pool initializer, together with
the ``SimConfig`` and ``Program``.  Workers adopt the shipped golden
run instead of re-running it, so a worker's first injection starts as
fast as its last.  Each worker ships its trace events
(``inject_start``/``checkpoint_restored``/``cold_start``/``early_stop``/
``inject_end``) home with the record, and nothing else: the events are
replayed into the campaign's tracer, which folds them into its metrics
registry, so both the metrics and an ``obs summarize`` report match the
serial campaign's.

On a single-core host this adds no speed but is exercised by the tests
for correctness (parallel == serial logs, byte for byte).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import zlib

from repro.core.campaign import CampaignResult, _run_cell
from repro.core.checkpoint import CheckpointStore
from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import TRANSIENT, FaultSet
from repro.core.outcome import GoldenReference, InjectionRecord
from repro.obs.trace import TraceEvent, Tracer
from repro.prune import PRUNE_OFF, AccessTrace

_WORKER_STATE: dict = {}


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
    run recorded one) rides along as its :meth:`AccessTrace.to_bytes`
    form, so a scheduler unit that adopts the blob can prune without
    re-recording.  Pool workers here never need it — pruning happens in
    the parent, workers only simulate.  Emits ``golden_packed`` with
    the wall time and the blob's size.
    """
    t0 = time.perf_counter()
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
        payload["trace"] = trace.to_bytes()
    blob = zlib.compress(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), 1)
    dispatcher.tracer.emit("golden_packed",
                           wall_s=time.perf_counter() - t0, bytes=len(blob))
    return blob


def adopt_golden_payload(dispatcher: InjectorDispatcher,
                         blob: bytes) -> None:
    """Install a :func:`build_golden_payload` blob into *dispatcher*.

    A trace that is not this build's trace bytes (a blob another
    version uploaded) is left out, so ``golden_with_trace`` re-records
    it.  Emits ``golden_adopted`` with the wall time and the sizes of
    the blob and of the trace installed.
    """
    t0 = time.perf_counter()
    payload = pickle.loads(zlib.decompress(blob))
    dispatcher.adopt_golden(
        GoldenReference.from_dict(payload["golden"]),
        payload["pristine"],
        CheckpointStore.from_snapshots(payload["snapshots"],
                                       interval=payload["interval"],
                                       max_snaps=payload["max_snaps"]))
    trace = payload.get("trace")
    trace_bytes = 0
    if isinstance(trace, bytes):
        try:
            dispatcher.access_trace = AccessTrace.from_bytes(trace)
            trace_bytes = len(trace)
        except ValueError:
            pass
    dispatcher.tracer.emit("golden_adopted",
                           wall_s=time.perf_counter() - t0,
                           bytes=len(blob), trace_bytes=trace_bytes)


def _worker_init(config, program, n_checkpoints: int,
                 timeout_s: float | None, guard, early_stop: bool,
                 blob: bytes) -> None:
    sink = _ListSink()
    dispatcher = InjectorDispatcher(config, program,
                                    n_checkpoints=n_checkpoints,
                                    tracer=Tracer(sink),
                                    timeout_s=timeout_s, guard=guard)
    adopt_golden_payload(dispatcher, blob)
    _WORKER_STATE["dispatcher"] = dispatcher
    _WORKER_STATE["sink"] = sink
    _WORKER_STATE["early_stop"] = early_stop


def _worker_run(fault_set_dict: dict) -> dict:
    dispatcher = _WORKER_STATE["dispatcher"]
    sink = _WORKER_STATE["sink"]
    sink.rows.clear()
    fault_set = FaultSet.from_dict(fault_set_dict)
    try:
        record = dispatcher.inject(fault_set,
                                   early_stop=_WORKER_STATE["early_stop"])
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
        dispatcher.emit_inject_end(record)
    return {"record": record.to_dict(), "events": list(sink.rows)}


def pool_inject(dispatcher: InjectorDispatcher, sets: list[FaultSet],
                workers: int, early_stop: bool):
    """Simulate *sets* on *workers* processes; yields the record of
    each set, in set order.

    Every worker adopts *dispatcher*'s golden run and builds its own
    dispatcher with the same checkpoint count, timeout and guard — so
    each worker seals its own integrity vault over the shipped payload.
    The workers' trace events are replayed into *dispatcher*'s tracer
    as each row arrives.
    """
    tracer = dispatcher.tracer
    initargs = (dispatcher.config, dispatcher.program,
                dispatcher.n_checkpoints, dispatcher.timeout_s,
                dispatcher.guard, early_stop,
                build_golden_payload(dispatcher))
    ctx = mp.get_context("spawn" if mp.get_start_method(True) == "spawn"
                         else "fork")
    with ctx.Pool(processes=workers, initializer=_worker_init,
                  initargs=initargs) as pool:
        for row in pool.imap(_worker_run, [fs.to_dict() for fs in sets],
                             chunksize=max(len(sets) // (workers * 4), 1)):
            # The worker's own trace (restore/cold-start/early-stop
            # detail included), original stamps kept.
            for ev in row["events"]:
                tracer.sink.write(TraceEvent.from_dict(ev))
            yield InjectionRecord.from_dict(row["record"])


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

    The same campaign, with its simulations fanned over *workers*
    processes and the records merged back in mask order — so the logs
    are byte-identical to the serial campaign's.  Deterministic
    telemetry (injection counts, outcome and early-stop distributions,
    simulated/saved cycles) also matches the serial campaign; wall times
    are, of course, the parallel run's own.  *timeout_s* and *guard*
    are enforced inside each worker.  Pruning, resume and the *audit*
    sample stay in the parent: only the sets that need simulating travel
    to the pool.
    """
    return _run_cell(setup, benchmark, structure, injections, scaled, scale,
                     progress, tracer, events_path, seed=seed,
                     fault_type=fault_type, early_stop=early_stop,
                     n_checkpoints=n_checkpoints, logs_path=logs_path,
                     metrics=metrics, timeout_s=timeout_s, guard=guard,
                     prune=prune, trace_cache=trace_cache, audit=audit,
                     workers=workers)
