"""Durable campaign scheduler: lease, retry, quarantine, resume, merge.

The :class:`Scheduler` drives a :class:`~repro.sched.plan.CampaignPlan`
to completion with local worker processes: a lease loop over one
:class:`~repro.sched.pool.LeasePool`, with the unit policy of
:class:`~repro.sched.study.StudyRun`.  Every unit state transition is
journaled (write-ahead, fsync'd) before the scheduler acts on it, so a
study killed at any point — including SIGKILL — resumes losslessly:

* completed units are never re-run (their classification rides in the
  journal's ``done`` record);
* a unit interrupted mid-campaign resumes from its logs repository and
  injects only the masks it is missing (``set_id``-keyed idempotence);
* stale leases left by a dead scheduler count as spent attempts.

A unit that fails (worker exception, worker death, or per-unit
wall-clock timeout) is retried with exponential backoff, then
quarantined as a poison unit: reported, never silently dropped.

Sharding: ``plan.shard(i, n)`` restricts a host to the units whose id
hashes to shard *i*; shards journal independently, a resume must name
the shard its journal holds, and :func:`merge_studies` checks spec
compatibility and coverage before folding the per-unit classifications
together.  Per-unit logs files are named by unit id, so shard output
directories merge cleanly.

Observability: unit-lifecycle trace events (``study_start``,
``unit_leased``, ``unit_done``, ``unit_failed``, ``unit_quarantined``,
``study_end``), ``sched.*`` counters (retries, timeouts, quarantined)
and a queue-depth gauge flow through :mod:`repro.obs`; worker trace
events and metrics are shipped home exactly like the parallel runner's.
With ``heartbeat_s`` set, the run loop additionally emits periodic
``heartbeat`` events carrying the leases in flight and their ages —
the liveness signal :mod:`repro.obs.live` and ``obs serve`` use to
tell a slow unit from a dead scheduler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.sched.journal import DONE, FAILED, QUARANTINED, load_journal
from repro.sched.plan import CampaignPlan, StudySpec
from repro.sched.pool import LeasePool
# EVENTS_NAME and CellOutcome moved to repro.sched.study; importing them
# here keeps ``from repro.sched.scheduler import ...`` working.
from repro.sched.study import (EVENTS_NAME, JOURNAL_NAME, CellOutcome,
                               StudyRun, merge_counts)


@dataclass
class StudyResult:
    """What one scheduler run (or resume) produced."""

    spec: StudySpec
    shard: tuple | None
    cells: dict = field(default_factory=dict)   # unit_id -> CellOutcome
    interrupted: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return (not self.interrupted and
                all(c.state == DONE for c in self.cells.values()))

    def classifications(self) -> dict:
        """unit_id -> classification counts for every completed unit."""
        return {uid: c.counts for uid, c in sorted(self.cells.items())
                if c.state == DONE and c.counts is not None}

    def totals(self) -> dict:
        """Merged class -> count over all completed units."""
        return merge_counts(self.classifications().values())

    def quarantined(self) -> list:
        return sorted(uid for uid, c in self.cells.items()
                      if c.state == QUARANTINED)


class Scheduler:
    """Runs a plan's units to completion against a durable journal."""

    def __init__(self, plan: CampaignPlan, study_dir,
                 workers: int = 2, unit_timeout_s: float | None = None,
                 max_retries: int = 2, backoff_s: float = 0.5,
                 fsync: bool = True, progress=None,
                 heartbeat_s: float | None = None):
        self.plan = plan
        self.study_dir = Path(study_dir)
        self.workers = max(workers, 1)
        self.unit_timeout_s = unit_timeout_s
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.fsync = fsync
        self.heartbeat_s = heartbeat_s
        self.metrics = MetricsRegistry()
        self.progress = progress
        self._cancelled = False

    @classmethod
    def resume(cls, study_dir, **overrides) -> "Scheduler":
        """Rebuild a scheduler from a study directory's journal.

        The plan (spec + shard) comes from the journal header; runtime
        knobs (workers, timeouts, retries...) may be overridden.
        """
        study_dir = Path(study_dir)
        state = load_journal(study_dir / JOURNAL_NAME)
        spec = StudySpec.from_dict(state.spec_dict)
        plan = CampaignPlan.from_spec(spec)
        if state.shard is not None:
            plan = plan.shard(*state.shard)
        return cls(plan, study_dir, **overrides)

    def cancel(self) -> None:
        """Graceful shutdown: terminate leases, leave the journal durable."""
        self._cancelled = True

    # -- the run loop ------------------------------------------------------

    def run(self, resume: bool = False) -> StudyResult:
        run = StudyRun(self.plan, self.study_dir, metrics=self.metrics,
                       resume=resume, fsync=self.fsync,
                       max_retries=self.max_retries,
                       backoff_s=self.backoff_s)
        try:
            return self._loop(run)
        finally:
            run.close()

    def _loop(self, run: StudyRun) -> StudyResult:
        t0 = time.monotonic()
        pool = LeasePool(self.workers)
        run.start(workers=self.workers)

        def queue_depth() -> None:
            self.metrics.gauge("sched.queue_depth").set(
                len(run.ready) + len(pool.running))

        # Liveness hook for the live-monitoring layer (repro.obs.live):
        # a periodic heartbeat event carrying the leases in flight and
        # their ages, so an external observer can tell "scheduler alive,
        # unit slow" from "scheduler gone" without process introspection.
        last_beat = time.monotonic()

        def heartbeat() -> None:
            nonlocal last_beat
            if self.heartbeat_s is None:
                return
            now_mono = time.monotonic()
            if now_mono - last_beat < self.heartbeat_s:
                return
            last_beat = now_mono
            run.tracer.emit(
                "heartbeat", workers=self.workers,
                running=[{"unit": lease.unit.unit_id,
                          "attempt": lease.attempt,
                          "age_s": lease.age_s(now_mono)}
                         for lease in pool.running],
                queued=len(run.ready), done=run.done_count(),
                units=len(self.plan))

        while run.ready or pool.running:
            if self._cancelled:
                pool.terminate_all()
                break

            # Launch leases while there are slots and eligible units.
            now = time.monotonic()
            while pool.free_slots > 0:
                unit = run.next_unit(now)
                if unit is None:
                    break
                run.launch(pool, unit, self.unit_timeout_s)
                queue_depth()

            # Results first, then deaths, then timeouts (pool order); a
            # failed unit goes back on the run's ready list.
            settled = pool.poll()
            for lease, kind, payload in settled:
                uid = lease.unit.unit_id
                delay = run.settle(lease, kind, payload)
                self._notify(uid, FAILED if delay is not None
                             else run.cells[uid].state, run)
                queue_depth()

            heartbeat()
            # A settled lease freed a slot: lease again at once.
            if not settled and (run.ready or pool.running):
                time.sleep(0.01)

        wall_s = time.monotonic() - t0
        run.finish(wall_s)
        return StudyResult(spec=self.plan.spec, shard=self.plan.shard_id,
                           cells=dict(run.cells),
                           interrupted=not run.complete, wall_s=wall_s)

    def _notify(self, uid: str, state: str, run: StudyRun) -> None:
        if self.progress is not None:
            self.progress(uid, state, run.done_count(), len(self.plan))


def run_study(spec: StudySpec, study_dir, shard=None,
              resume: bool = False, **kwargs) -> StudyResult:
    """One-call study: expand *spec*, (optionally) shard, run to done.

    With *resume*, the directory's journal must exist and belong to
    *spec* and *shard*.
    """
    plan = CampaignPlan.from_spec(spec)
    if shard is not None:
        plan = plan.shard(*shard)
    journal = Path(study_dir) / JOURNAL_NAME
    if resume and not journal.exists():
        raise FileNotFoundError(f"no study journal at {journal}")
    return Scheduler(plan, study_dir, **kwargs).run(resume=resume)


# -- status / merge --------------------------------------------------------

def study_status(study_dir) -> dict:
    """Machine-readable status of a study directory's journal."""
    study_dir = Path(study_dir)
    state = load_journal(study_dir / JOURNAL_NAME)
    cells = []
    injections = 0
    for uid in state.unit_ids:
        st = state.state_of(uid)
        row = state.results.get(uid, {})
        if st == DONE:
            injections += row.get("injections", 0)
        cells.append({"unit": uid, "state": st,
                      "attempts": state.attempts.get(uid, 0),
                      "injections": row.get("injections", 0)})
    return {
        "study_dir": str(study_dir),
        "spec_hash": state.spec_hash,
        "shard": list(state.shard) if state.shard else None,
        "units": len(state.unit_ids),
        "tally": state.tally(),
        "injections_done": injections,
        "cells": cells,
    }


def merge_studies(study_dirs) -> dict:
    """Fold several shard journals of one study into one result.

    Verifies every journal shares the spec (by hash), unions the
    per-unit classifications (flagging conflicting duplicates), and
    reports coverage against the spec's full grid — so a missing shard
    shows up as ``complete: false`` with the units it owes.
    """
    states = []
    for d in study_dirs:
        states.append(load_journal(Path(d) / JOURNAL_NAME))
    if not states:
        raise ValueError("nothing to merge")
    spec_hash = states[0].spec_hash
    for st in states[1:]:
        if st.spec_hash != spec_hash:
            raise ValueError(
                f"spec mismatch: {st.spec_hash} vs {spec_hash} — these "
                f"journals belong to different studies")
    spec = StudySpec.from_dict(states[0].spec_dict)
    grid = CampaignPlan.from_spec(spec).unit_ids()

    units: dict[str, dict] = {}
    conflicts: list[str] = []
    quarantined: set = set()
    for st in states:
        for uid, row in st.results.items():
            counts = row.get("counts", {})
            if uid in units and units[uid]["counts"] != counts:
                conflicts.append(uid)
            units[uid] = {"counts": counts,
                          "injections": row.get("injections", 0)}
        for uid in st.unit_ids:
            if st.state_of(uid) == QUARANTINED:
                quarantined.add(uid)
    missing = [uid for uid in grid if uid not in units]
    return {
        "sources": len(states),
        "spec_hash": spec_hash,
        "complete": not missing and not conflicts,
        "missing": missing,
        "conflicts": sorted(set(conflicts)),
        "quarantined": sorted(quarantined),
        "units": {uid: units[uid]["counts"] for uid in sorted(units)},
        "injections": sum(u["injections"] for u in units.values()),
        "totals": merge_counts(u["counts"] for u in units.values()),
    }
