"""The campaign service core: admit, multiplex, complete, survive.

:class:`CampaignService` is the engine under ``repro.tools svc serve``:
studies arrive (HTTP or in-process), pass strict spec validation, and
their units flow through one shared
:class:`~repro.svc.fleet.WorkerFleet`.  Each study's
:class:`~repro.sched.study.StudyRun` keeps its own ready list in plan
order, retries included; the service takes one unit at a time
round-robin across the live studies in submission order.  One
:meth:`tick` is one scheduling round — poll completions, finish
studies, launch into free slots, update gauges — so the HTTP layer can
drive the whole service from a single event loop with no locks.

Durability is layered: the service journal records study lifecycle,
each study's own sched journal records unit transitions, and both are
write-ahead.  Constructing a :class:`CampaignService` over an existing
root replays both layers — completed studies stay completed, running
studies re-queue exactly their unfinished units, and stale leases from
a killed service count as spent attempts.

Observability: service-level events (``study_submitted``,
``study_running``, ``study_done``, ``study_cancelled``,
``svc_heartbeat``) flow to ``service-events.jsonl`` and ``svc.*``
metrics (study counters, queue depth, golden-cache occupancy) live
beside the fleet's ``sched.*`` family in one registry.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JSONLSink, NULL_TRACER, Tracer
from repro.sched.journal import AUDIT_VOID
from repro.sched.journal import QUARANTINED as UNIT_QUARANTINED
from repro.sched.plan import CampaignPlan, StudySpec
from repro.sched.pool import RESULT, LeasePool
from repro.svc.attest import (Attestor, RejectedComplete, WorkerDistrusted)
from repro.svc.fleet import (ServiceRun, StaleFence, UnknownWorker,
                             WorkerFleet, heartbeat_snapshot, unpack_blob,
                             unpack_text)
from repro.svc.state import (ACCEPTED, CANCELLED, RUNNING,
                             SERVICE_EVENTS_NAME, SERVICE_JOURNAL_NAME,
                             STUDIES_DIR_NAME, STUDY_DONE, ServiceJournal,
                             StudyRecord, load_service, study_id_for)


class CampaignService:
    """Multi-study campaign engine over one worker fleet."""

    def __init__(self, root, workers: int = 2,
                 unit_timeout_s: float | None = None,
                 max_retries: int = 2, backoff_s: float = 0.5,
                 fsync: bool = True, metrics=None, events: bool = True,
                 heartbeat_s: float | None = None,
                 lease_heartbeat_s: float = 5.0, miss_budget: int = 3,
                 attest: bool = True, audit_fraction: float = 0.0,
                 audit_seed: int = 0, challenge: bool = False,
                 reject_limit: int = 3):
        self.root = Path(root)
        self.studies_dir = self.root / STUDIES_DIR_NAME
        self.studies_dir.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.heartbeat_s = heartbeat_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.state = load_service(self.root / SERVICE_JOURNAL_NAME)
        self.journal = ServiceJournal(self.root / SERVICE_JOURNAL_NAME,
                                      fsync=fsync)
        # Fence epoch: journaled before any lease is granted, so every
        # incarnation's fences are disjoint from the last one's — a
        # zombie from before a restart can never complete a fresh lease.
        self.state.epoch += 1
        self.journal.record_epoch(self.state.epoch)
        self.attestor = (Attestor(metrics=self.metrics,
                                  audit_fraction=audit_fraction,
                                  audit_seed=audit_seed,
                                  reject_limit=reject_limit,
                                  challenge=challenge,
                                  challenge_dir=self.root / "attest")
                         if attest else None)
        if self.attestor is not None and challenge:
            # Pay the server's own challenge run up front: verifying a
            # proof mid-flight must be a memo hit, never a multi-second
            # stall of the event loop while workers' heartbeats queue.
            self.attestor.challenge_expectation()
        self.fleet = WorkerFleet(workers=workers,
                                 unit_timeout_s=unit_timeout_s,
                                 metrics=self.metrics,
                                 heartbeat_s=lease_heartbeat_s,
                                 miss_budget=miss_budget,
                                 fence_epoch=self.state.epoch,
                                 attest=self.attestor)
        # One local slot dedicated to sampled re-execution audits, so a
        # --workers 0 service (pure remote compute) can still audit.
        self._audit_pool = LeasePool(1 if self.attestor is not None else 0)
        self.tracer = (Tracer(JSONLSink(self.root / SERVICE_EVENTS_NAME))
                       if events else NULL_TRACER)
        self.runs: dict[str, ServiceRun] = {}   # in submission order
        self._next_run = 0         # round-robin cursor into self.runs
        self._last_beat = time.monotonic()
        self._closed = False
        for rec in self.state.active():
            self._reopen(rec)

    # -- admission -----------------------------------------------------------

    def submit(self, spec, tenant: str = "default") -> str:
        """Admit one study; returns its id.

        *spec* may be an untrusted dict (validated strictly via
        :meth:`StudySpec.parse`) or a ready :class:`StudySpec`; a bad
        one raises ``ValueError`` before anything is journaled.
        *tenant* is a label, kept in the ledger and the events.
        """
        if isinstance(spec, StudySpec):
            spec.validate()
            spec.validate_grid()
        else:
            spec = StudySpec.parse(spec)
        plan = CampaignPlan.from_spec(spec)
        study_id = study_id_for(self.state.next_serial(), spec.spec_hash)
        # Write-ahead: the submission is durable before any state changes.
        self.journal.record_submit(study_id, tenant, spec.to_dict(),
                                   spec.spec_hash, plan.unit_ids())
        rec = StudyRecord(study_id, tenant, spec.to_dict(), spec.spec_hash,
                          plan.unit_ids(), time.time())
        self.state.studies[study_id] = rec
        self._open_run(rec, spec)
        self.metrics.counter("svc.studies_submitted").inc()
        self.tracer.emit("study_submitted", study=study_id, tenant=tenant,
                         units=len(plan), spec_hash=spec.spec_hash)
        return study_id

    def cancel(self, study_id: str) -> dict:
        """Cancel a study: drop its ready units, kill its leases."""
        rec = self._record(study_id)
        if rec.terminal:
            raise ValueError(f"study {study_id} is already {rec.state}")
        run = self.runs[study_id]
        dropped = len(run.ready)
        run.ready.clear()
        killed = self.fleet.cancel_study(run)
        self.journal.record_state(study_id, CANCELLED,
                                  detail=f"{dropped} queued dropped, "
                                         f"{killed} leases killed")
        rec.state = CANCELLED
        rec.finished_ts = time.time()
        run.finish()
        run.close()
        self.metrics.counter("svc.studies_cancelled").inc()
        self.tracer.emit("study_cancelled", study=study_id,
                         tenant=rec.tenant, dropped=dropped, killed=killed)
        self._evict_blobs()
        return {"id": study_id, "dropped": dropped, "killed": killed}

    # -- remote workers -------------------------------------------------------

    def register_worker(self, name: str, meta: dict | None = None) -> dict:
        """Register (idempotently) a remote agent; returns its contract.

        With attestation, a distrusted worker is refused outright
        (:class:`~repro.svc.attest.WorkerDistrusted` → HTTP 403), and a
        challenge-armed service includes the determinism-challenge wire
        the agent must execute and prove before it may hold leases.
        """
        challenge = None
        if self.attestor is not None:
            challenge = self.attestor.register_gate(name)
        self.fleet.register_worker(name, meta)
        self.metrics.counter("svc.remote.workers_seen").inc()
        self.tracer.emit("worker_registered", worker=name,
                         epoch=self.fleet.fence_epoch,
                         challenged=challenge is not None)
        out = {"worker": name, "epoch": self.fleet.fence_epoch,
               "heartbeat_s": self.fleet.heartbeat_s,
               "miss_budget": self.fleet.miss_budget}
        if challenge is not None:
            out["challenge"] = challenge
        return out

    def worker_challenge(self, name: str, payload: dict) -> dict:
        """Judge a worker's determinism-challenge proof.

        Byte-identical logs/masks text plus a matching pristine
        ``state_digest`` admits the worker to the lease pool; anything
        else distrusts it on the spot (version skew and non-determinism
        are caught before a single real unit is leased).
        """
        attestor = self.attestor
        if attestor is None or not attestor.challenge_enabled:
            return {"admitted": True, "worker": name}
        if name not in self.fleet.remote_workers:
            raise UnknownWorker(name)
        logs = unpack_text(payload["logs"]) if payload.get("logs") else ""
        masks = unpack_text(payload["masks"]) if payload.get("masks") else ""
        ok = attestor.verify_challenge(name, logs, masks,
                                       payload.get("state_digest"))
        self.tracer.emit("challenge_passed" if ok else "challenge_failed",
                         worker=name)
        if not ok:
            self._distrust_effects(name, "determinism challenge failed")
            raise WorkerDistrusted(name, "determinism challenge failed")
        return {"admitted": True, "worker": name}

    def worker_heartbeat(self, name: str, fences) -> dict:
        """One agent heartbeat; raises :class:`UnknownWorker` if forgotten."""
        revoked = self.fleet.heartbeat(name, fences)
        if revoked:
            self.tracer.emit("lease_revoked", worker=name, fences=revoked)
        return {"revoked": revoked}

    def lease_remote(self, name: str, now: float | None = None) \
            -> dict | None:
        """Dispatch one ready unit to remote worker *name*, or None."""
        now = time.monotonic() if now is None else now
        if name not in self.fleet.remote_workers:
            raise UnknownWorker(name)
        if self.attestor is not None:
            self.attestor.admit_gate(name)
        dispatched = self._dispatch(now)
        if dispatched is None:
            return None
        return self.fleet.launch_remote(*dispatched, name, now)

    def complete_remote(self, body: dict) -> dict:
        """Settle one remote complete (wire payload, fields b64+zlib)."""
        fence = body.get("fence")
        try:
            return self.fleet.complete_remote(
                fence,
                result=body.get("result"),
                logs_text=(unpack_text(body["logs"])
                           if body.get("logs") else None),
                masks_text=(unpack_text(body["masks"])
                            if body.get("masks") else None),
                blob=(unpack_blob(body["golden_blob"])
                      if body.get("golden_blob") else None),
                reason=body.get("reason"), detail=body.get("detail"))
        except StaleFence:
            self.tracer.emit("fence_rejected", fence=fence,
                             worker=body.get("worker"))
            raise
        except RejectedComplete as exc:
            self.tracer.emit("attest_rejected", fence=fence,
                             worker=exc.worker, unit=exc.unit,
                             code=exc.code)
            if exc.distrusted:
                card = self.attestor.scorecard(exc.worker)
                self._distrust_effects(exc.worker,
                                       card.reason or "rejected completes")
            raise

    # -- the scheduling round -------------------------------------------------

    def tick(self, now: float | None = None) -> int:
        """One scheduling round; returns the number of completions seen."""
        now = time.monotonic() if now is None else now
        known = set(self.fleet.remote_workers)
        settled = self.fleet.poll(now)
        for name in sorted(known - set(self.fleet.remote_workers)):
            self.tracer.emit("worker_lost", worker=name)
        for run in settled:
            rec = self.state.studies[run.study_id]
            if run.complete and not rec.terminal \
                    and not self._audits_pending(run):
                self._finish_study(rec, run)
        if self.attestor is not None:
            self._drive_audits(now)
            # Studies whose finish was deferred behind a pending audit
            # (or that an audit just voided back open) settle here.
            for study_id, run in list(self.runs.items()):
                rec = self.state.studies[study_id]
                if run.complete and not rec.terminal \
                        and not self._audits_pending(run):
                    self._finish_study(rec, run)
        while self.fleet.free_slots > 0:
            dispatched = self._dispatch(now)
            if dispatched is None:
                break
            self.fleet.launch(*dispatched)
        self._gauges()
        self._heartbeat(now)
        return len(settled)

    def _dispatch(self, now: float) -> tuple | None:
        """The next ``(run, unit)``, round-robin across live studies.

        One path for local and remote leases: each study's ready list
        decides which of its units goes next and the cursor which study
        gives one; only *where* it runs differs.
        """
        runs = list(self.runs.values())
        for k in range(len(runs)):
            i = (self._next_run + k) % len(runs)
            run = runs[i]
            rec = self.state.studies[run.study_id]
            unit = None if rec.terminal else run.next_unit(now)
            if unit is None:
                continue
            self._next_run = i + 1
            if rec.state == ACCEPTED:
                self.journal.record_state(run.study_id, RUNNING)
                rec.state = RUNNING
                self.tracer.emit("study_running", study=run.study_id,
                                 tenant=rec.tenant)
            return run, unit
        return None

    def queued(self) -> int:
        """Units on the studies' ready lists, backoff included."""
        return sum(len(run.ready) for run in self.runs.values())

    def run_until_idle(self, poll_s: float = 0.01,
                       timeout_s: float | None = None) -> None:
        """Drive :meth:`tick` until no work is queued or in flight."""
        t0 = time.monotonic()
        while True:
            self.tick()
            if self.idle:
                return
            if timeout_s is not None and time.monotonic() - t0 > timeout_s:
                raise TimeoutError(
                    f"service still busy after {timeout_s}s "
                    f"({self.queued()} queued, "
                    f"{self.fleet.busy} in flight)")
            time.sleep(poll_s)

    # -- status ---------------------------------------------------------------

    def studies(self) -> list[dict]:
        return [self._study_row(rec) for rec in self.state.studies.values()]

    def study_status(self, study_id: str) -> dict:
        rec = self._record(study_id)
        row = self._study_row(rec)
        run = self.runs.get(study_id)
        if run is not None:
            row["totals"] = run.totals()
            row["quarantined"] = sorted(
                uid for uid, c in run.cells.items()
                if c.state == UNIT_QUARANTINED)
        return row

    def study_dir(self, study_id: str) -> Path:
        self._record(study_id)
        return self.studies_dir / study_id

    def status(self, now: float | None = None) -> dict:
        """Service-level snapshot: studies, queue, fleet, cache."""
        return {
            "studies": self.state.tally(),
            "queued": self.queued(),
            "fleet": {"workers": self.fleet.pool.workers,
                      "busy": self.fleet.busy,
                      "running": heartbeat_snapshot(self.fleet.pool, now)},
            "remote": self.fleet.remote_snapshot(now),
            "golden_cache": {"entries": len(self.fleet.cache),
                             "hits": self.fleet.cache.hits,
                             "misses": self.fleet.cache.misses},
            "attest": (self.attestor.snapshot()
                       if self.attestor is not None else None),
        }

    @property
    def idle(self) -> bool:
        return not self.queued() and not self.fleet.busy \
            and not self._audit_busy()

    def close(self) -> None:
        """Shut down like a crash the journals are built for.

        In-flight leases are terminated *without* journaling a failure —
        they replay as stale leases (spent attempts) and the next
        service over this root re-queues them, exactly like a SIGKILL.
        """
        if self._closed:
            return
        self._closed = True
        self._audit_pool.terminate_all()
        self.fleet.terminate_all()
        for run in self.runs.values():
            run.close()
        self.journal.close()
        self.tracer.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- internals --------------------------------------------------------------

    def _record(self, study_id: str) -> StudyRecord:
        rec = self.state.studies.get(study_id)
        if rec is None:
            raise KeyError(f"no such study: {study_id}")
        return rec

    def _open_run(self, rec: StudyRecord, spec: StudySpec) -> ServiceRun:
        """Open (or, after a restart, replay) one study's run."""
        run = ServiceRun(rec.study_id, spec,
                         self.studies_dir / rec.study_id,
                         metrics=self.metrics, fsync=self.fsync,
                         max_retries=self.max_retries,
                         backoff_s=self.backoff_s, cache=self.fleet.cache)
        self.runs[rec.study_id] = run
        return run

    def _reopen(self, rec: StudyRecord) -> None:
        """Resume one non-terminal study from its own journal (restart)."""
        run = self._open_run(rec, StudySpec.from_dict(rec.spec_dict))
        if run.complete:
            # Every unit finished but the service died before recording
            # the study terminal — settle it now.
            self._finish_study(rec, run)
            return
        self.tracer.emit("study_resumed", study=rec.study_id,
                         tenant=rec.tenant,
                         pending=len(run.pending_units()))

    def _finish_study(self, rec: StudyRecord, run: ServiceRun) -> None:
        self.journal.record_state(rec.study_id, STUDY_DONE)
        rec.state = STUDY_DONE
        rec.finished_ts = time.time()
        run.finish()
        run.close()
        self.metrics.counter("svc.studies_done").inc()
        self.tracer.emit("study_done", study=rec.study_id,
                         tenant=rec.tenant, **run.tally())
        self._evict_blobs()

    def _evict_blobs(self) -> int:
        """Drop golden blobs no live (non-terminal) study can use."""
        live = set()
        for study_id, run in self.runs.items():
            if self.state.studies[study_id].terminal:
                continue
            for unit in run.plan:
                live.add(self.fleet.cache.key(unit, run.spec))
        evicted = self.fleet.cache.evict(live)
        if evicted:
            self.metrics.counter("svc.blobs.evicted").inc(evicted)
            self.tracer.emit("blobs_evicted", count=evicted)
        return evicted

    # -- attestation: audits, distrust, voiding -------------------------------

    def _audit_paths(self, ticket) -> tuple[Path, Path]:
        scratch = self.root / "attest" / ticket.study_id
        return (scratch / "logs" / f"{ticket.unit.file_id}.jsonl",
                scratch / "masks" / f"{ticket.unit.file_id}.jsonl")

    def _audits_pending(self, run: ServiceRun) -> bool:
        if self.attestor is None:
            return False
        sid = run.study_id
        if any(t.study_id == sid for t in self.attestor.audit_queue):
            return True
        return any(getattr(lease.meta, "study_id", None) == sid
                   for lease in self._audit_pool.running)

    def _audit_busy(self) -> bool:
        return self.attestor is not None and (
            len(self.attestor.audit_queue) > 0
            or len(self._audit_pool.running) > 0)

    def _drive_audits(self, now: float) -> None:
        """Launch queued audit tickets, judge finished re-executions."""
        attestor = self.attestor
        while self._audit_pool.free_slots > 0 and attestor.audit_queue:
            ticket = attestor.audit_queue.popleft()
            run = self.runs.get(ticket.study_id)
            uid = ticket.unit.unit_id
            if run is None or attestor.scorecard(ticket.worker).distrusted \
                    or run.remote_done.get(uid) != ticket.worker:
                continue               # voided, cancelled or re-run since
            logs, masks = self._audit_paths(ticket)
            for path in (logs, masks):
                path.parent.mkdir(parents=True, exist_ok=True)
                path.unlink(missing_ok=True)
            self._audit_pool.launch(
                ticket.unit, ticket.spec, logs_path=logs, masks_path=masks,
                golden_blob=self.fleet.cache.lookup(ticket.unit,
                                                    ticket.spec),
                fsync=False, want_blob=False,
                deadline_s=self.fleet.unit_timeout_s, meta=ticket)
            self.tracer.emit("audit_started", study=ticket.study_id,
                             unit=uid, worker=ticket.worker)
        for lease, kind, payload in self._audit_pool.poll():
            ticket = lease.meta
            uid = ticket.unit.unit_id
            if kind == RESULT and payload.get("ok"):
                if attestor.scorecard(ticket.worker).distrusted:
                    continue           # already voided by an earlier audit
                logs, masks = self._audit_paths(ticket)
                if attestor.judge_audit(ticket, logs, masks):
                    run = self.runs.get(ticket.study_id)
                    if run is not None:
                        run.audited_ok.add(uid)
                    self.tracer.emit("audit_ok", study=ticket.study_id,
                                     unit=uid, worker=ticket.worker)
                else:
                    self.tracer.emit("audit_divergence",
                                     study=ticket.study_id, unit=uid,
                                     worker=ticket.worker)
                    self._distrust_effects(
                        ticket.worker, f"audit divergence on {uid}")
            else:
                # The local re-execution itself failed: no verdict on
                # the worker either way.
                self.metrics.counter(
                    "svc.attest.audits_inconclusive").inc()
                self.tracer.emit("audit_inconclusive",
                                 study=ticket.study_id, unit=uid,
                                 worker=ticket.worker, kind=kind)

    def _distrust_effects(self, name: str, reason: str) -> None:
        """Enforce a distrust verdict: expel, revoke, void, re-queue."""
        attestor = self.attestor
        attestor.distrust(name, reason)
        self.tracer.emit("worker_distrusted", worker=name, reason=reason)
        worker = self.fleet.remote_workers.pop(name, None)
        if worker is not None:
            self.fleet._revoke_worker(
                worker, f"worker {name} distrusted: {reason}")
        for run in list(self.runs.values()):
            self._void_units(run, name, reason)

    def _void_units(self, run: ServiceRun, name: str, reason: str) -> int:
        """Retract every unaudited DONE this worker produced for *run*.

        Write-ahead ``audit_void`` journal rows retract the results on
        replay too; the lying record files are deleted (a local rerun
        must not resume from them) and the units put back on the run's
        ready list — each one runs again exactly once, preserving
        at-most-once journaling.
        """
        voided = sorted(uid for uid, w in run.remote_done.items()
                        if w == name and uid not in run.audited_ok)
        if not voided:
            return 0
        rec = self.state.studies[run.study_id]
        if rec.purged or rec.state == CANCELLED:
            return 0
        if rec.state == STUDY_DONE:
            self.journal.record_state(
                run.study_id, RUNNING,
                detail=f"reopened: {len(voided)} units of distrusted "
                       f"worker {name} voided")
            rec.state = RUNNING
            rec.finished_ts = None
            run.reopen()
            self.tracer.emit("study_reopened", study=run.study_id,
                             voided=len(voided))
        units = {unit.unit_id: unit for unit in run.plan}
        for uid in voided:
            unit = units[uid]
            run.journal.record(uid, AUDIT_VOID, worker=name, detail=reason)
            run.tracer.emit("audit_void", unit=uid, worker=name)
            run.cells.pop(uid, None)
            run.remote_done.pop(uid, None)
            run.logs_path(unit).unlink(missing_ok=True)
            run.masks_path(unit).unlink(missing_ok=True)
            run.ready.append((0.0, unit))
            self.metrics.counter("svc.attest.voided").inc()
        return len(voided)

    def _study_row(self, rec: StudyRecord) -> dict:
        row = rec.to_dict()
        run = self.runs.get(rec.study_id)
        if run is not None:
            row["tally"] = run.tally()
            row["injections_done"] = run.injections_done()
        return row

    def _gauges(self) -> None:
        self.metrics.gauge("svc.queue_depth").set(
            self.queued() + self.fleet.busy)
        self.metrics.gauge("svc.busy_workers").set(self.fleet.busy)
        self.metrics.gauge("svc.golden_cache_entries").set(
            len(self.fleet.cache))

    def _heartbeat(self, now: float) -> None:
        if self.heartbeat_s is None or not self.tracer.enabled:
            return
        if now - self._last_beat < self.heartbeat_s:
            return
        self._last_beat = now
        self.tracer.emit("svc_heartbeat",
                         queued=self.queued(),
                         busy=self.fleet.busy,
                         studies=self.state.tally(),
                         running=heartbeat_snapshot(self.fleet.pool, now),
                         remote=self.fleet.remote_snapshot(now))


def collect_garbage(root, retention_s: float | None = None,
                    now: float | None = None,
                    dry_run: bool = False) -> dict:
    """Delete terminal study dirs older than *retention_s* seconds.

    Offline, journal-driven: replays ``service.jsonl``, selects
    terminal (done/cancelled), not-yet-purged studies whose
    ``finished_ts`` is at least *retention_s* old (``None`` — the
    default — retains forever; a negative value is a ``ValueError``),
    journals a ``gc`` row *before* deleting each dir (write-ahead, so a
    crash mid-sweep leaves at worst an already-journaled dir for the
    next sweep), and removes the tree.  Returns what was (or with
    *dry_run* would be) purged.
    """
    if retention_s is not None and retention_s < 0:
        raise ValueError(f"retention_s must be >= 0 or None, "
                         f"got {retention_s!r}")
    root = Path(root)
    now = time.time() if now is None else now
    state = load_service(root / SERVICE_JOURNAL_NAME)
    studies_dir = root / STUDIES_DIR_NAME
    candidates, resweeps = [], []
    for rec in state.studies.values():
        if not rec.terminal:
            continue
        if rec.purged:
            # Journaled in a previous sweep that died before the
            # delete landed — finish the job, no new journal row.
            if (studies_dir / rec.study_id).exists():
                resweeps.append(rec.study_id)
            continue
        if retention_s is None:
            continue
        age = now - (rec.finished_ts or rec.submitted_ts)
        if age < retention_s:
            continue
        candidates.append({"id": rec.study_id, "tenant": rec.tenant,
                           "state": rec.state, "age_s": round(age, 1),
                           "retention_s": retention_s})
    if dry_run:
        return {"purged": [], "candidates": candidates,
                "resweeps": resweeps, "dry_run": True}
    purged = []
    if candidates or resweeps:
        with ServiceJournal(root / SERVICE_JOURNAL_NAME) as journal:
            for study_id in resweeps:
                shutil.rmtree(studies_dir / study_id, ignore_errors=True)
            for row in candidates:
                journal.record_gc(row["id"], tenant=row["tenant"],
                                  age_s=row["age_s"])
                shutil.rmtree(studies_dir / row["id"], ignore_errors=True)
                purged.append(row)
    if purged or resweeps:
        tracer = Tracer(JSONLSink(root / SERVICE_EVENTS_NAME))
        try:
            tracer.emit("study_gc", purged=[r["id"] for r in purged],
                        resweeps=resweeps)
        finally:
            tracer.close()
    return {"purged": purged, "candidates": candidates,
            "resweeps": resweeps, "dry_run": False}


__all__ = ["CampaignService", "SERVICE_EVENTS_NAME", "collect_garbage"]
