"""One study's durable run state: the unit policy both study loops share.

A :class:`StudyRun` is one study (or one shard of it) in progress: its
plan, its write-ahead journal and its ``events.jsonl`` stream.  It holds
the one copy of the unit policy:

* **open** — a fresh run refuses an existing journal; a resumed run
  must match the journal's header by spec hash *and* by shard;
* **replay** — completed and quarantined units come back from the
  journal as :class:`CellOutcome`\\ s, and every journaled lease, stale
  ones included, counts as a spent attempt;
* **order** — the run's ready list holds every unit waiting for a
  lease, in plan order; :meth:`StudyRun.next_unit` pops the first one
  whose retry backoff is spent;
* **lease** — the ``leased`` row is durable before the work starts;
* **settle** — a success journals ``done`` and adopts the worker's
  trace events, which the run's tracer folds into its metrics; a
  failure journals ``failed`` and rejoins the ready list, eligible
  after ``backoff_s * 2 ** (attempt - 1)`` seconds, or is quarantined
  once its attempt exceeds ``max_retries``.  A result
  :func:`check_result` refuses raises before anything is journaled.

Two loops call it.  :class:`~repro.sched.scheduler.Scheduler` runs one
study to completion on its own :class:`~repro.sched.pool.LeasePool`;
:class:`repro.svc.service.CampaignService` runs many studies on one
shared pool and on remote workers, taking units round-robin across
their ready lists.  Both ship golden runs through a
:class:`GoldenCache`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JSONLSink, MetricsSink, TeeSink, TraceEvent, \
    Tracer
from repro.prune import PRUNE_OFF
from repro.sched.journal import (DONE, FAILED, LEASED, QUARANTINED, Journal,
                                 JournalState, load_journal)
from repro.sched.plan import CampaignPlan, StudySpec, WorkUnit
from repro.sched.pool import CRASHED, RESULT, LeasePool

JOURNAL_NAME = "journal.jsonl"
EVENTS_NAME = "events.jsonl"


@dataclass
class CellOutcome:
    """Terminal (or last-known) state of one unit after a run."""

    unit_id: str
    state: str
    counts: dict | None = None
    injections: int = 0
    early_stops: int = 0
    attempts: int = 0
    error: str | None = None


def merge_counts(per_unit) -> dict:
    """Class -> count summed over an iterable of per-unit counts."""
    totals: dict = {}
    for counts in per_unit:
        for cls, n in counts.items():
            totals[cls] = totals.get(cls, 0) + n
    return totals


class MalformedResult(ValueError):
    """A unit result that cannot settle its unit (:func:`check_result`)."""


def check_result(res: dict) -> None:
    """Raise :class:`MalformedResult` unless *res* carries every field
    :meth:`StudyRun.succeed` reads, with the right type.

    ``events`` must be a list of objects with a string ``name``; the
    fold never raises on such a row, so a checked result settles
    whole.  A ``metrics`` key (sent by older workers) is ignored.
    """
    counts, wall_s, events = (res.get("counts"), res.get("wall_s"),
                              res.get("events"))
    for key, ok in (
            ("counts", isinstance(counts, dict)
             and all(isinstance(n, int) for n in counts.values())),
            ("injections", isinstance(res.get("injections"), int)),
            ("early_stops", isinstance(res.get("early_stops"), int)),
            ("resumed", isinstance(res.get("resumed"), int)),
            ("pruned", isinstance(res.get("pruned", 0), int)),
            ("wall_s", isinstance(wall_s, (int, float))
             and abs(wall_s) < 1e18),
            ("events", isinstance(events, list) and all(
                isinstance(ev, dict) and isinstance(ev.get("name"), str)
                for ev in events))):
        if not ok:
            raise MalformedResult(f"{key!r} is missing or malformed")


class GoldenCache:
    """Content-addressed cache of compressed golden payloads.

    Entries are keyed by everything that determines the golden run —
    (setup, benchmark, scaled, scale, n_checkpoints) — so one entry
    serves every unit of a (setup, benchmark) pair, and in the service
    every study of it.  A blob recorded with an access trace (built for
    a pruning study) also serves non-pruning studies; the reverse falls
    back to a fresh traced run, like the worker's own stale-blob path.
    Blobs are also stored by sha256 digest, so remote workers fetch
    them over ``GET /blobs/{digest}`` and cache them on their own disk
    — the digest is self-verifying, so a blob fetched once never needs
    re-fetching or trust.
    """

    def __init__(self):
        self._blobs: dict[tuple, tuple[str, bool]] = {}  # key -> (digest, traced)
        self._by_digest: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(unit: WorkUnit, spec: StudySpec) -> tuple:
        return (unit.setup, unit.benchmark, spec.scaled, spec.scale,
                spec.n_checkpoints)

    def lookup_meta(self, unit: WorkUnit,
                    spec: StudySpec) -> tuple[bytes, str] | None:
        """``(blob, digest)`` serving this unit, or None (counts a miss)."""
        entry = self._blobs.get(self.key(unit, spec))
        needs_trace = spec.prune != PRUNE_OFF
        if entry is not None and (entry[1] or not needs_trace):
            self.hits += 1
            digest = entry[0]
            return self._by_digest[digest], digest
        self.misses += 1
        return None

    def lookup(self, unit: WorkUnit, spec: StudySpec) -> bytes | None:
        meta = self.lookup_meta(unit, spec)
        return None if meta is None else meta[0]

    def blob_by_digest(self, digest: str) -> bytes | None:
        """Raw blob bytes for ``/blobs/{digest}``, or None."""
        return self._by_digest.get(digest)

    def store(self, unit: WorkUnit, spec: StudySpec, blob: bytes) -> str:
        """Record *blob*; returns its digest."""
        digest = hashlib.sha256(blob).hexdigest()
        key = self.key(unit, spec)
        has_trace = spec.prune != PRUNE_OFF
        prior = self._blobs.get(key)
        # Never replace a trace-carrying blob with a trace-less one
        # (but keep the bytes addressable — a worker may still be
        # fetching the superseded digest).
        self._by_digest.setdefault(digest, blob)
        if prior is not None and prior[1] and not has_trace:
            return digest
        self._blobs[key] = (digest, has_trace)
        return digest

    def evict(self, live_keys) -> int:
        """Drop entries not serving any key in *live_keys*.

        Returns the number of blob payloads (digests) released.  The
        service calls it when a study goes terminal: without it,
        ``_by_digest`` keeps every golden payload ever stored for the
        service's lifetime.
        """
        live = set(live_keys)
        for key in [k for k in self._blobs if k not in live]:
            del self._blobs[key]
        referenced = {digest for digest, _ in self._blobs.values()}
        dead = [d for d in self._by_digest if d not in referenced]
        for digest in dead:
            del self._by_digest[digest]
        return len(dead)

    def __len__(self) -> int:
        return len(self._blobs)


class StudyRun:
    """One study's plan, journal, event stream and unit outcomes."""

    def __init__(self, plan: CampaignPlan, study_dir, *,
                 metrics: MetricsRegistry, resume: bool = False,
                 fsync: bool = True, max_retries: int = 2,
                 backoff_s: float = 0.5, cache: GoldenCache | None = None):
        self.plan = plan
        self.spec = plan.spec
        self.study_dir = Path(study_dir)
        self.metrics = metrics
        self.fsync = fsync
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.cache = cache if cache is not None else GoldenCache()
        self.attempts: dict[str, int] = {}
        self.cells: dict[str, CellOutcome] = {}
        self.study_dir.mkdir(parents=True, exist_ok=True)
        path = self.study_dir / JOURNAL_NAME
        prior = None
        if path.exists() and path.stat().st_size > 0:
            if not resume:
                raise FileExistsError(
                    f"{path} already exists — resume the study "
                    f"(sched resume) or pick a fresh directory")
            prior = load_journal(path)
            if prior.spec_hash != self.spec.spec_hash:
                raise ValueError(
                    f"journal {path} belongs to spec "
                    f"{prior.spec_hash}, not {self.spec.spec_hash}")
            shard = tuple(plan.shard_id) if plan.shard_id else None
            if prior.shard != shard:
                raise ValueError(
                    f"journal {path} belongs to shard {prior.shard}, "
                    f"not {shard}")
        self.resumed = prior is not None
        self.journal = Journal(path, fsync=fsync)
        self.event_log = JSONLSink(self.study_dir / EVENTS_NAME)
        self.tracer = Tracer(TeeSink(self.event_log, MetricsSink(metrics)))
        if prior is None:
            self.journal.write_header(self.spec.to_dict(), plan.unit_ids(),
                                      shard=plan.shard_id)
        else:
            self._replay(prior)
        # The ready list: (eligible_at, unit) for every unit waiting for
        # a lease, stale leases included; a retry rejoins at the back.
        self.ready: list[tuple[float, WorkUnit]] = [
            (0.0, unit) for unit in self.pending_units()]

    def _replay(self, prior: JournalState) -> None:
        """Rebuild attempts and terminal outcomes from a prior journal."""
        for unit in self.plan:
            uid = unit.unit_id
            self.attempts[uid] = prior.attempts.get(uid, 0)
            state = prior.state_of(uid)
            if state == DONE:
                row = prior.results[uid]
                self.cells[uid] = CellOutcome(
                    uid, DONE, counts=row.get("counts"),
                    injections=row.get("injections", 0),
                    early_stops=row.get("early_stops", 0),
                    attempts=self.attempts[uid])
            elif state == QUARANTINED:
                self.cells[uid] = CellOutcome(
                    uid, QUARANTINED, attempts=self.attempts[uid],
                    error=prior.last[uid].get("detail"))

    # -- transitions -------------------------------------------------------

    def start(self, **fields) -> None:
        """Emit ``study_start``; the caller adds its own *fields*."""
        shard = self.plan.shard_id
        self.tracer.emit("study_start", units=len(self.plan),
                         pending=len(self.pending_units()), **fields,
                         shard=list(shard) if shard else None,
                         spec_hash=self.spec.spec_hash, resumed=self.resumed)

    def next_unit(self, now: float | None = None) -> WorkUnit | None:
        """Pop the first ready unit whose backoff is spent, or None."""
        now = time.monotonic() if now is None else now
        for i, (eligible_at, unit) in enumerate(self.ready):
            if eligible_at <= now:
                del self.ready[i]
                return unit
        return None

    def lease(self, unit: WorkUnit, **fields) -> int:
        """Journal a lease of *unit* before its work starts.

        Returns the attempt number.  A remote lease passes its
        ``fence`` and ``worker`` as *fields*.
        """
        uid = unit.unit_id
        attempt = self.attempts[uid] = self.attempts.get(uid, 0) + 1
        self.journal.record(uid, LEASED, attempt=attempt, **fields)
        self.tracer.emit("unit_leased", unit=uid, attempt=attempt, **fields)
        return attempt

    def launch(self, pool: LeasePool, unit: WorkUnit,
               deadline_s: float | None = None) -> None:
        """Lease *unit* into a slot of *pool* with any cached golden blob."""
        attempt = self.lease(unit)
        blob = self.cache.lookup(unit, self.spec)
        pool.launch(unit, self.spec, attempt=attempt,
                    logs_path=self.logs_path(unit),
                    masks_path=self.masks_path(unit), golden_blob=blob,
                    fsync=self.fsync, want_blob=blob is None,
                    deadline_s=deadline_s, meta=self)

    def settle(self, lease, kind: str, payload) -> float | None:
        """Apply the policy to one :meth:`LeasePool.poll` completion.

        Returns the retry delay, or None once the unit is terminal.
        """
        if kind != RESULT:
            return self.fail(lease, "crashed" if kind == CRASHED
                             else "timeout", payload)
        if not payload.get("ok"):
            return self.fail(lease, "error",
                             payload.get("error", "worker error"))
        self.succeed(lease, payload)
        return None

    def succeed(self, lease, res: dict, **fields) -> None:
        """Journal ``done``; adopt the worker's events and golden blob.

        A remote lease passes its ``worker`` as one of *fields*.  Raises
        :class:`MalformedResult`, before any effect, on a bad result.
        """
        check_result(res)
        uid = lease.unit.unit_id
        self.journal.record(uid, DONE, attempt=lease.attempt,
                            counts=res["counts"],
                            injections=res["injections"],
                            early_stops=res["early_stops"],
                            pruned=res.get("pruned", 0),
                            resumed=res["resumed"], wall_s=res["wall_s"],
                            **fields)
        blob = res.get("golden_blob")
        if blob is not None:
            self.cache.store(lease.unit, self.spec, blob)
        for ev in res["events"]:
            self.tracer.sink.write(TraceEvent.from_dict(ev))
        self.metrics.counter("sched.units_done").inc()
        self.metrics.histogram("time.unit_s").observe(res["wall_s"])
        self.tracer.emit("unit_done", unit=uid, attempt=lease.attempt,
                         injections=res["injections"],
                         pruned=res.get("pruned", 0),
                         resumed=res["resumed"], wall_s=res["wall_s"])
        self.cells[uid] = CellOutcome(
            uid, DONE, counts=res["counts"], injections=res["injections"],
            early_stops=res["early_stops"], attempts=lease.attempt)

    def fail(self, lease, reason: str, detail: str) -> float | None:
        """Journal ``failed`` and put the unit back on the ready list
        behind its backoff; returns the delay, or None once the unit is
        quarantined."""
        uid = lease.unit.unit_id
        self.record_failure(lease, reason, detail)
        self.metrics.counter("sched.units_failed").inc()
        if reason == "timeout":
            self.metrics.counter("sched.timeouts").inc()
        if lease.attempt > self.max_retries:
            self.journal.record(uid, QUARANTINED, attempts=lease.attempt,
                                detail=detail)
            self.tracer.emit("unit_quarantined", unit=uid,
                             attempts=lease.attempt)
            self.metrics.counter("sched.quarantined").inc()
            self.cells[uid] = CellOutcome(
                uid, QUARANTINED, attempts=lease.attempt, error=detail)
            return None
        self.metrics.counter("sched.retries").inc()
        delay = self.backoff_s * (2 ** (lease.attempt - 1))
        self.ready.append((time.monotonic() + delay, lease.unit))
        return delay

    def record_failure(self, lease, reason: str, detail: str) -> None:
        """Journal a ``failed`` transition and emit ``unit_failed``."""
        self.journal.record(lease.unit.unit_id, FAILED,
                            attempt=lease.attempt, reason=reason,
                            detail=detail)
        self.tracer.emit("unit_failed", unit=lease.unit.unit_id,
                         attempt=lease.attempt, reason=reason)

    def finish(self, wall_s: float = 0.0) -> None:
        """Emit ``study_end``; a study with units left is interrupted."""
        done = self.done_count()
        self.tracer.emit("study_end", done=done,
                         quarantined=len(self.cells) - done,
                         interrupted=not self.complete, wall_s=wall_s)

    def close(self) -> None:
        self.journal.close()
        self.tracer.close()

    # -- queries -----------------------------------------------------------

    def pending_units(self) -> list[WorkUnit]:
        """Units with no terminal outcome yet (includes stale leases)."""
        return [u for u in self.plan if u.unit_id not in self.cells]

    @property
    def complete(self) -> bool:
        return len(self.cells) == len(self.plan)

    def done_count(self) -> int:
        return sum(1 for c in self.cells.values() if c.state == DONE)

    def tally(self) -> dict:
        done = self.done_count()
        return {"units": len(self.plan), "done": done,
                "quarantined": len(self.cells) - done,
                "pending": len(self.plan) - len(self.cells)}

    def totals(self) -> dict:
        """Merged class -> count over the completed units."""
        return merge_counts(c.counts or {} for c in self.cells.values())

    def injections_done(self) -> int:
        return sum(c.injections for c in self.cells.values())

    def logs_path(self, unit: WorkUnit) -> Path:
        return self.study_dir / "logs" / f"{unit.file_id}.jsonl"

    def masks_path(self, unit: WorkUnit) -> Path:
        return self.study_dir / "masks" / f"{unit.file_id}.jsonl"


__all__ = ["StudyRun", "GoldenCache", "CellOutcome", "MalformedResult",
           "check_result", "merge_counts", "JOURNAL_NAME", "EVENTS_NAME"]
