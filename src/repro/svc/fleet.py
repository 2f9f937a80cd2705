"""Persistent worker fleet — many studies, one pool, remote workers.

Each admitted study is a :class:`ServiceRun`: a
:class:`~repro.sched.study.StudyRun` (the unchanged :mod:`repro.sched`
journal and event layout, so ``obs serve``, ``obs report`` and
``sched status`` all work on a service study directory verbatim) plus
the study id and the attestation bookkeeping.  The unit policy — the
ready list in plan order, write-ahead lease records, retry with
exponential backoff, poison-unit quarantine — is ``StudyRun``'s, the
same code the batch :class:`~repro.sched.scheduler.Scheduler` runs.

:class:`WorkerFleet` keeps only what a shared fleet adds: one
:class:`~repro.sched.pool.LeasePool` for every study, routing each
completion back through the lease's ``meta`` slot; remote leases; one
cross-study :class:`~repro.sched.study.GoldenCache`, so the second
study of ``sha`` on ``MaFIN-x86`` pays zero golden re-runs; and the
attestation hooks.  It does *not* decide which unit runs next; the
service takes units round-robin from the studies' ready lists
(:meth:`repro.svc.service.CampaignService._dispatch`).

Remote leases.  Besides its local slots, the fleet leases units to
*remote workers* (:mod:`repro.svc.remote` agents connected over HTTP).
Both kinds of lease draw from the same ready lists and settle through
the same ``StudyRun`` policy — retries, backoff and quarantine are
identical whether a unit ran in a forked process or across the
network.  What the network adds is uncertainty, answered with:

* **fencing tokens** — every remote lease carries a monotonic fence
  ``"{epoch}-{n}"``; the epoch is journaled and bumped each service
  incarnation, so a zombie worker completing a lease revoked by a
  crash, a timeout or a server restart is rejected (HTTP 409), and a
  retried ``complete`` whose first attempt already landed is a
  detected duplicate (at-most-once journaling);
* **heartbeat miss-budgets** — a worker silent for
  ``heartbeat_s * miss_budget`` is declared lost; its leases are
  revoked and retried through the normal backoff path;
* **lease reconciliation** — a fence the server holds but the worker
  stops reporting (a lease response lost in flight) is reclaimed after
  one heartbeat of grace, so no unit is orphaned.
"""

from __future__ import annotations

import base64
import time
import zlib

from repro.core.ioutil import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.sched.journal import DONE, JournalState
from repro.sched.plan import CampaignPlan, StudySpec, WorkUnit
from repro.sched.pool import LeasePool
from repro.sched.study import (GoldenCache, MalformedResult, StudyRun,
                               check_result)
from repro.svc.attest import CHALLENGE_GRACE_S, RejectedComplete


class ServiceRun(StudyRun):
    """One admitted study: a :class:`StudyRun` with its id."""

    def __init__(self, study_id: str, spec: StudySpec, study_dir,
                 **kwargs):
        self.study_id = study_id
        # Attestation bookkeeping: which DONE units came from which
        # remote worker, and which of those an audit has re-proven.
        # ``remote_done`` replays from the journal's worker-tagged done
        # rows; ``audited_ok`` is deliberately in-memory only, so a
        # restart voids conservatively if a worker is later distrusted.
        self.remote_done: dict[str, str] = {}
        self.audited_ok: set[str] = set()
        super().__init__(CampaignPlan.from_spec(spec), study_dir,
                         resume=True, **kwargs)
        self.start()

    def _replay(self, prior: JournalState) -> None:
        super()._replay(prior)
        for uid, cell in self.cells.items():
            if cell.state == DONE and prior.results[uid].get("worker"):
                self.remote_done[uid] = prior.results[uid]["worker"]

    def reopen(self) -> None:
        """Reopen journal/tracer after a finished study is voided back
        to running (an audit distrusted a worker that touched it)."""
        self.journal.open()
        self.event_log.open()


def pack_text(text: str) -> str:
    """Compress + base64 a JSONL file's exact text for a JSON payload.

    Remote workers ship their unit's logs/masks files verbatim, so the
    server-side copy is byte-identical to what an all-local run writes.
    """
    return base64.b64encode(zlib.compress(text.encode("utf-8"))) \
        .decode("ascii")


def unpack_text(data: str) -> str:
    return zlib.decompress(base64.b64decode(data)).decode("utf-8")


def pack_blob(blob: bytes) -> str:
    """Base64 a golden blob (already zlib-compressed by the worker)."""
    return base64.b64encode(blob).decode("ascii")


def unpack_blob(data: str) -> bytes:
    return base64.b64decode(data)


class StaleFence(Exception):
    """A ``complete`` arrived bearing a fence the service revoked.

    Raised for fences from a previous epoch (server restarted), from
    leases revoked by timeout / worker loss / cancellation, or simply
    unknown.  The HTTP layer maps it to 409 — the worker discards the
    result; the unit was already (or will be) re-run elsewhere.
    """

    def __init__(self, fence: str):
        super().__init__(f"stale fence: {fence}")
        self.fence = fence


class UnknownWorker(Exception):
    """A heartbeat or lease request from a worker the service forgot.

    Happens after a server restart (registrations are in-memory by
    design — leases replay from journals, workers re-register) or
    after a miss-budget eviction.  The HTTP layer answers
    ``unregistered``; the agent terminates its leases and re-registers.
    """

    def __init__(self, name: str):
        super().__init__(f"unknown worker: {name}")
        self.name = name


class RemoteWorker:
    """One registered remote agent and the fences it holds."""

    __slots__ = ("name", "registered_at", "last_seen", "fences", "meta")

    def __init__(self, name: str, now: float, meta: dict | None = None):
        self.name = name
        self.registered_at = now
        self.last_seen = now
        self.fences: set[str] = set()
        self.meta = dict(meta or {})


class RemoteLease:
    """One unit leased to a remote worker, identified by its fence."""

    __slots__ = ("unit", "attempt", "fence", "meta", "worker", "started",
                 "deadline_s")

    def __init__(self, unit: WorkUnit, attempt: int, fence: str, meta,
                 worker: RemoteWorker, started: float,
                 deadline_s: float | None):
        self.unit = unit
        self.attempt = attempt
        self.fence = fence
        self.meta = meta               # the owning ServiceRun
        self.worker = worker
        self.started = started
        self.deadline_s = deadline_s

    def age_s(self, now: float | None = None) -> float:
        return (time.monotonic() if now is None else now) - self.started


class WorkerFleet:
    """One lease pool and one remote fleet shared by many studies."""

    def __init__(self, workers: int = 2, unit_timeout_s: float | None = None,
                 metrics: MetricsRegistry | None = None,
                 heartbeat_s: float = 5.0, miss_budget: int = 3,
                 fence_epoch: int = 1, attest=None):
        self.pool = LeasePool(workers)
        self.unit_timeout_s = unit_timeout_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = GoldenCache()
        self.attest = attest           # Attestor, or None (trust everyone)
        # Remote-lease state.  Registrations are deliberately in-memory:
        # on restart, units replay from journals and agents re-register;
        # the journaled *epoch* is what outlives us, so no fence minted
        # before a crash can be honoured after it.
        self.heartbeat_s = heartbeat_s
        self.miss_budget = miss_budget
        self.fence_epoch = fence_epoch
        self._fence_n = 0
        self.remote_workers: dict[str, RemoteWorker] = {}
        self.remote_leases: dict[str, RemoteLease] = {}   # fence -> lease
        self._completed_fences: set[str] = set()
        self._pending: list[ServiceRun] = []   # runs of settled remote leases

    @property
    def free_slots(self) -> int:
        return self.pool.free_slots

    @property
    def busy(self) -> int:
        return len(self.pool.running) + len(self.remote_leases)

    def launch(self, run: ServiceRun, unit: WorkUnit) -> None:
        """Lease one unit of *run* to a local slot."""
        run.launch(self.pool, unit, self.unit_timeout_s)

    def poll(self, now: float | None = None) -> list[ServiceRun]:
        """The run of each lease settled since the last poll.

        The policy is already applied: a failed unit is back on its
        run's ready list.  Covers both lease kinds: local pool results,
        remote completes accepted since the last poll, and revocations
        from remote deadline / miss-budget expiry.
        """
        now = time.monotonic() if now is None else now
        self._expire_remote(now)
        out, self._pending = self._pending, []
        for lease, kind, payload in self.pool.poll():
            run: ServiceRun = lease.meta
            delay = run.settle(lease, kind, payload)
            uid = lease.unit.unit_id
            if self.attest is not None and delay is None \
                    and run.cells[uid].state == DONE:
                # Local executions are the trust anchor: their golden
                # becomes the reference remote completes must match.
                self.attest.observe_golden(lease.unit, run.spec,
                                           run.logs_path(lease.unit))
            out.append(run)
        return out

    def cancel_study(self, run: ServiceRun) -> int:
        """Terminate every in-flight lease belonging to *run*."""
        mine = [lease for lease in self.pool.running if lease.meta is run]
        for lease in mine:
            self.pool.terminate(lease)
        remote = [lease for lease in self.remote_leases.values()
                  if lease.meta is run]
        for lease in remote:
            # Revoking the fence is the remote "terminate": the zombie
            # learns via its next heartbeat; a late complete gets 409.
            del self.remote_leases[lease.fence]
            lease.worker.fences.discard(lease.fence)
        for lease in mine + remote:
            run.record_failure(lease, "cancelled", "study cancelled")
        return len(mine) + len(remote)

    def terminate_all(self) -> None:
        self.pool.terminate_all()

    # -- remote leases --------------------------------------------------------

    def register_worker(self, name: str, meta: dict | None = None,
                        now: float | None = None) -> RemoteWorker:
        """Register (or idempotently re-register) a remote agent.

        Re-registration means the agent restarted or never heard our
        first answer; either way it holds no live leases, so any the
        server still attributes to it are revoked and retried.
        """
        now = time.monotonic() if now is None else now
        prior = self.remote_workers.get(name)
        if prior is not None:
            self._revoke_worker(prior, f"worker {name} re-registered")
        worker = RemoteWorker(name, now, meta)
        self.remote_workers[name] = worker
        self.metrics.counter("svc.remote.registrations").inc()
        return worker

    def launch_remote(self, run: ServiceRun, unit: WorkUnit, name: str,
                      now: float | None = None) -> dict:
        """Lease one unit to remote worker *name*; returns the wire payload.

        Journaled exactly like a local lease (plus the fence and worker
        name, for forensics), so resume-after-crash semantics are
        identical for both lease kinds.
        """
        now = time.monotonic() if now is None else now
        worker = self.remote_workers.get(name)
        if worker is None:
            raise UnknownWorker(name)
        self._fence_n += 1
        fence = f"{self.fence_epoch}-{self._fence_n}"
        attempt = run.lease(unit, fence=fence, worker=name)
        meta = self.cache.lookup_meta(unit, run.spec)
        digest = None if meta is None else meta[1]
        deadline = (None if self.unit_timeout_s is None
                    else self.unit_timeout_s + self.heartbeat_s)
        lease = RemoteLease(unit, attempt, fence, run, worker, now, deadline)
        self.remote_leases[fence] = lease
        worker.fences.add(fence)
        worker.last_seen = now
        self.metrics.counter("svc.remote.leases").inc()
        return {"fence": fence, "study": run.study_id,
                "unit": unit.to_dict(), "spec": run.spec.to_dict(),
                "attempt": attempt, "deadline_s": self.unit_timeout_s,
                "golden_digest": digest, "want_blob": digest is None}

    def complete_remote(self, fence: str, *, result: dict | None = None,
                        logs_text: str | None = None,
                        masks_text: str | None = None,
                        blob: bytes | None = None,
                        reason: str | None = None,
                        detail: str | None = None) -> dict:
        """Settle one remote lease, at most once.

        A fence already settled returns ``duplicate`` (the retry of a
        complete whose response was lost — its effect already landed);
        a fence the service no longer holds raises :class:`StaleFence`.
        The fence is spent *before* any effect, so the three outcomes
        — accepted, duplicate, stale — are mutually exclusive even
        under chaotic retries.  A result ``check_result`` refuses or
        attestation rejects raises :class:`RejectedComplete` instead.
        """
        if fence in self._completed_fences:
            self.metrics.counter("svc.remote.dup_completes").inc()
            return {"accepted": False, "duplicate": True}
        lease = self.remote_leases.get(fence)
        if lease is None:
            self.metrics.counter("svc.remote.stale_fences").inc()
            raise StaleFence(fence)
        self._completed_fences.add(fence)
        del self.remote_leases[fence]
        lease.worker.fences.discard(fence)
        run: ServiceRun = lease.meta
        if result is not None and result.get("ok"):
            res = dict(result, golden_blob=blob)
            try:
                check_result(res)
            except MalformedResult as exc:
                rejected = RejectedComplete("malformed-result", str(exc))
                rejected.worker = lease.worker.name
                rejected.unit = lease.unit.unit_id
                self._fail(lease, "malformed-result", str(exc))
                raise rejected from exc
            # Attestation happens BEFORE the shipped files touch the
            # study directory: a rejected complete must leave no
            # records behind that a later local resume could adopt.
            if self.attest is not None and logs_text is not None:
                try:
                    self.attest.check_complete(
                        lease.worker.name, lease.unit, run.spec,
                        result, logs_text, masks_text or "")
                except RejectedComplete as exc:
                    self._fail(lease, "attest-reject",
                               f"{exc.code}: {exc.detail}")
                    raise
            # The worker ships its unit files verbatim; writing them
            # atomically keeps the study dir byte-identical to a run
            # where the unit executed locally.
            if logs_text is not None:
                atomic_write_text(run.logs_path(lease.unit), logs_text,
                                  fsync=run.fsync)
            if masks_text is not None:
                atomic_write_text(run.masks_path(lease.unit), masks_text,
                                  fsync=run.fsync)
            name = lease.worker.name
            run.succeed(lease, res, worker=name)
            if self.attest is not None:
                uid = lease.unit.unit_id
                run.remote_done[uid] = name
                run.audited_ok.discard(uid)
                self.attest.note_complete(
                    run.study_id, lease.unit, run.spec, name,
                    lease.attempt, run.logs_path(lease.unit),
                    run.masks_path(lease.unit))
            self._pending.append(run)
        else:
            self._fail(lease, reason or "error",
                       detail or (result or {}).get("error",
                                                    "remote worker error"))
        self.metrics.counter("svc.remote.completes").inc()
        return {"accepted": True, "duplicate": False}

    def heartbeat(self, name: str, fences, now: float | None = None) \
            -> list[str]:
        """Process one worker heartbeat; returns fences it must kill.

        Two-way reconciliation: fences the worker reports that the
        server revoked come back as the kill list (zombie leases);
        fences the server holds that the worker stopped reporting —
        a lease response lost in flight — are reclaimed and retried
        after one ``heartbeat_s`` of grace.
        """
        now = time.monotonic() if now is None else now
        worker = self.remote_workers.get(name)
        if worker is None:
            raise UnknownWorker(name)
        worker.last_seen = now
        reported = set(fences or ())
        revoked = sorted(
            f for f in reported
            if self.remote_leases.get(f) is None
            or self.remote_leases[f].worker is not worker)
        for fence in sorted(worker.fences - reported):
            lease = self.remote_leases.get(fence)
            if lease is None:
                worker.fences.discard(fence)
            elif now - lease.started > self.heartbeat_s:
                self._revoke_lease(lease, "lost",
                                   "lease response never reached worker")
        return revoked

    def remote_snapshot(self, now: float | None = None) -> dict:
        """Remote workers and leases (for ``/status`` and heartbeats)."""
        now = time.monotonic() if now is None else now
        return {
            "epoch": self.fence_epoch,
            "workers": {
                name: {"leases": len(w.fences),
                       "idle_s": round(now - w.last_seen, 3)}
                for name, w in sorted(self.remote_workers.items())},
            "leases": [
                {"fence": lease.fence, "unit": lease.unit.unit_id,
                 "study": lease.meta.study_id, "worker": lease.worker.name,
                 "attempt": lease.attempt,
                 "age_s": round(lease.age_s(now), 3)}
                for lease in self.remote_leases.values()],
        }

    def _expire_remote(self, now: float) -> None:
        """Deadline and miss-budget enforcement (called from poll)."""
        for lease in list(self.remote_leases.values()):
            if lease.deadline_s is not None \
                    and lease.age_s(now) > lease.deadline_s:
                self._revoke_lease(
                    lease, "timeout",
                    f"remote lease exceeded {lease.deadline_s}s wall clock")
        for name, worker in list(self.remote_workers.items()):
            allowance = self.heartbeat_s * self.miss_budget
            if self.attest is not None \
                    and self.attest.challenge_pending(name):
                # Busy proving determinism: the single-threaded agent
                # cannot heartbeat while the challenge unit runs, and
                # it holds no leases the miss budget could protect.
                allowance = max(allowance, CHALLENGE_GRACE_S)
            if now - worker.last_seen > allowance:
                self._revoke_worker(
                    worker,
                    f"worker {name} missed {self.miss_budget} heartbeats")
                del self.remote_workers[name]
                self.metrics.counter("svc.remote.workers_lost").inc()
                if self.attest is not None:
                    self.attest.note_miss(name)

    def _revoke_lease(self, lease: RemoteLease, reason: str,
                      detail: str) -> None:
        self.remote_leases.pop(lease.fence, None)
        lease.worker.fences.discard(lease.fence)
        self.metrics.counter("svc.remote.revoked").inc()
        self._fail(lease, reason, detail)

    def _revoke_worker(self, worker: RemoteWorker, detail: str) -> None:
        for fence in sorted(worker.fences):
            lease = self.remote_leases.get(fence)
            if lease is not None:
                self._revoke_lease(lease, "lost", detail)
        worker.fences.clear()

    def _fail(self, lease: RemoteLease, reason: str, detail: str) -> None:
        """Settle a remote lease as failed, for the next :meth:`poll`."""
        lease.meta.fail(lease, reason, detail)
        self._pending.append(lease.meta)


def heartbeat_snapshot(pool: LeasePool,
                       now: float | None = None) -> list[dict]:
    """The in-flight leases as heartbeat rows (study-tagged)."""
    now = time.monotonic() if now is None else now
    return [{"unit": lease.unit.unit_id,
             "study": getattr(lease.meta, "study_id", None),
             "attempt": lease.attempt,
             "age_s": lease.age_s(now)}
            for lease in pool.running]


__all__ = ["ServiceRun", "WorkerFleet", "heartbeat_snapshot",
           "RemoteWorker", "RemoteLease", "StaleFence", "UnknownWorker",
           "RejectedComplete", "pack_text", "unpack_text", "pack_blob",
           "unpack_blob"]
