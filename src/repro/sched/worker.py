"""Per-unit campaign execution inside a scheduler worker process.

:func:`run_unit` is one leased cell of a study executed end to end by
the one cell pipeline, :class:`~repro.core.campaign.InjectionCampaign`:
build (or adopt) the golden run, regenerate the unit's deterministic
masks, skip every ``set_id`` its logs repository already holds (the
mid-unit resume path), inject the rest, and classify.  It reuses
``repro.core.parallel``'s compressed golden/checkpoint shipping: a
unit that ran the golden run serializes it once, before its first
injection (``InjectorDispatcher.golden_blob``, also its guard vault),
and the scheduler caches that blob per (setup, benchmark) and ships it
to every unit of that pair leased after the blob arrived; the plan's
pair-interleaved order makes that every unit but the first in the
usual case.

:func:`unit_entry` is the ``multiprocessing.Process`` target: it sends
the result dict (records summary, trace events, optionally the golden
blob for the parent's cache) back over a pipe and never raises —
failures travel home as ``{"ok": False, ...}`` and become journal
``failed`` transitions, retries, and eventually quarantine.  The trace
events are the unit's whole measurement: the study folds them into its
metrics (:class:`repro.sched.study.StudyRun`).  A worker is its unit's
only writer: it exits once its parent is gone, and it holds an
exclusive lock on the unit's logs from before it reads them until it
is done, so a ``sched resume`` after a SIGKILLed scheduler waits for
the orphan instead of appending beside it.

Chaos hook (tests/CI only): the ``REPRO_SCHED_CHAOS`` environment
variable — ``"<unit_id>=fail:N"`` or ``"<unit_id>=hang:N"`` entries
separated by ``;`` — makes a unit raise or hang while the lease's
attempt number is ≤ N, which is how the retry/backoff/timeout/
quarantine machinery is exercised deterministically.
"""

from __future__ import annotations

import fcntl
import multiprocessing as mp
import os
import signal
import threading
import time

from repro.core.campaign import InjectionCampaign
from repro.core.parallel import _ListSink, adopt_golden_payload
from repro.core.parser import classify_all
from repro.obs.trace import Tracer
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

    Idempotent under interruption: the campaign regenerates the unit's
    mask stream (the draw :meth:`WorkUnit.masks` re-derives) and skips
    any ``set_id`` already present in the logs repository, so a unit
    killed mid-campaign finishes exactly the injections it was missing
    — and refuses logs or masks of another stream.
    """
    from repro.bench import suite

    t0 = time.perf_counter()
    _chaos(unit.unit_id, attempt)
    sink = _ListSink()
    config = setup_config(unit.setup, scaled=spec.scaled)
    program = suite.program(unit.benchmark, config.isa, spec.scale)
    # The guard's SIGALRM watchdog arms here for real: run_unit executes
    # on the main thread of a dedicated forked process, so a hang
    # inside one sim.step() raises WatchdogTimeout and records a
    # Timeout instead of burning the unit's whole lease.
    campaign = InjectionCampaign(config, program, unit.benchmark,
                                 unit.structure, seed=unit.seed(spec.seed),
                                 fault_type=unit.fault_type,
                                 early_stop=spec.early_stop,
                                 n_checkpoints=spec.n_checkpoints,
                                 masks_path=masks_path, logs_path=logs_path,
                                 tracer=Tracer(sink),
                                 timeout_s=spec.timeout_s, guard=spec.guard,
                                 prune=spec.prune)
    campaign.masks.fsync = campaign.logs.fsync = fsync
    if golden_blob is not None:
        adopt_golden_payload(campaign.dispatcher, golden_blob)
    campaign.prepare(injections=spec.injections,
                     confidence=spec.confidence,
                     error_margin=spec.error_margin)
    # Serialized before the first restore, so no faulty run's leak
    # reaches the later units of the pair; it carries the access trace
    # when pruning, so they skip re-recording too.
    blob = (campaign.dispatcher.golden_blob()
            if want_blob and campaign.dispatcher.golden_outcome is not None
            else None)
    resumed = campaign.logs.set_ids
    result = campaign.run()
    records = result.records
    counts = classify_all(records, result.golden)
    fresh = [r for r in records if r.set_id not in resumed]
    early_stops = sum(1 for r in records if r.early_stop is not None)
    wall_s = time.perf_counter() - t0
    return {
        "ok": True,
        "unit": unit.unit_id,
        "counts": counts,
        "injections": len(records),
        "fresh": len(fresh),
        "resumed": len(resumed),
        "early_stops": early_stops,
        "pruned": sum(1 for r in fresh if r.pruned is not None),
        "prune": result.prune,
        "wall_s": wall_s,
        "events": list(sink.rows),
        "golden_blob": blob,
    }


def _exit_with_parent() -> None:
    """End this worker process soon after its parent process dies."""
    parent = mp.parent_process()
    if parent is None:
        return                       # called in-process, not a worker

    def watch() -> None:
        while os.getppid() == parent.pid:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _lock_logs(logs_path) -> int:
    """Exclusively lock the unit's logs file; returns the locked fd.

    Waits while another worker of the unit, orphaned by a killed
    scheduler, still holds the lock.
    """
    os.makedirs(os.path.dirname(logs_path) or ".", exist_ok=True)
    fd = os.open(logs_path, os.O_RDWR | os.O_CREAT, 0o644)
    fcntl.flock(fd, fcntl.LOCK_EX)
    return fd


def unit_entry(conn, payload: dict) -> None:
    """Process target: run the unit, ship the result dict, never raise."""
    # A forked worker inherits the parent's SIGTERM handler, which only
    # cancels the parent's loop; LeasePool.terminate must kill it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _exit_with_parent()
    unit_id, lock = "?", None
    try:
        lock = _lock_logs(payload["logs_path"])
        unit = WorkUnit.from_dict(payload["unit"])
        unit_id = unit.unit_id
        result = run_unit(
            unit=unit,
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
                  "unit": unit_id,
                  "error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc()}
    try:
        conn.send(result)
    finally:
        conn.close()
        if lock is not None:
            os.close(lock)
