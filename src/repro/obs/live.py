"""Live study monitoring: tail a study directory into a rolling view.

A running ``repro.sched`` study leaves three kinds of append-only JSONL
streams in its directory — the write-ahead journal (unit state
transitions), the trace event stream (``events.jsonl``), and one logs
repository per unit (golden reference + raw injection records, written
per injection).  :class:`StudyView` tails all of them incrementally —
tolerant of torn tails and of the scheduler still writing — and
maintains the live picture the status server, the HTML report, and
``sched status --watch`` render:

* per-unit lease/retry/quarantine state and lease ages, with
  worker-stall detection (a leased unit whose logs stopped growing);
* live outcome classification per unit — records are classified
  against the unit's golden reference as they land, so proportions and
  Wilson confidence intervals update mid-unit, not only at unit
  completion;
* statistical convergence per structure×benchmark cell
  (:mod:`repro.obs.convergence`) against the spec's confidence/error
  margin — the paper's 99 %/3 % sampling rule as a live flag;
* throughput (injections/sec over a sliding window) and an ETA from
  the remaining injections;
* the phase/checkpoint breakdown of :mod:`repro.obs.summarize`, fed
  incrementally.

Everything is read-only: a view never writes into the study directory,
so any number of observers can watch one running study.  Unit states
fold through the journal's own :meth:`JournalState.apply
<repro.sched.journal.JournalState.apply>`, so the view agrees with
``load_journal`` row for row; the tailer follows the append-only rule
of :mod:`repro.core.ioutil` (docs/robustness.md, "Append-only files and
crashes").
"""

from __future__ import annotations

import time
from collections import deque
from pathlib import Path

from repro.core.ioutil import parse_jsonl_line
from repro.core.outcome import GoldenReference, InjectionRecord
from repro.core.parser import classify
from repro.core.repository import decode_logs_row
from repro.obs.convergence import cell_convergence
from repro.obs.summarize import SummaryAccumulator

JOURNAL_NAME = "journal.jsonl"
EVENTS_NAME = "events.jsonl"

#: A leased unit whose logs have not grown for this long is "stalled".
DEFAULT_STALL_AFTER_S = 120.0

#: Sliding window for the live injections/sec estimate.
RATE_WINDOW_S = 60.0


class JSONLTailer:
    """Incremental reader of a JSONL file another process is appending.

    Remembers the byte offset just past the last newline it consumed;
    anything after it — a torn tail, or a line a concurrent writer has
    not finished — is read again on the next :meth:`poll`, so a writer
    that truncates a torn tail before appending never splices old bytes
    onto new ones.  A complete line that is not valid JSON is skipped
    and counted in :attr:`bad_lines`.  A file that shrinks below the
    offset (truncation/rotation) resets the tail to the start.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.offset = 0
        self.bad_lines = 0

    def poll(self) -> list[dict]:
        """Return the complete JSON rows appended since the last poll."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return []
        if size < self.offset:               # truncated out from under us
            self.offset = 0
        if size == self.offset:
            return []
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            data = fh.read()
        end = data.rfind(b"\n") + 1          # complete lines only
        self.offset += end
        rows = []
        for line in data[:end].split(b"\n"):
            if not line.strip():
                continue
            try:
                rows.append(parse_jsonl_line(line))
            except ValueError:
                self.bad_lines += 1
        return rows


class UnitView:
    """Rolling state of one work unit: its live logs, plus what the
    study's :class:`JournalState` says about it."""

    __slots__ = ("unit_id", "journal", "lease_ts", "detail", "records",
                 "counts", "golden", "pending", "planned",
                 "last_progress")

    def __init__(self, unit_id: str, journal):
        self.unit_id = unit_id
        self.journal = journal
        self.lease_ts: float | None = None
        self.detail: str | None = None
        self.records = 0                     # live records seen in logs
        self.counts: dict[str, int] = {}     # live class -> count
        self.golden: GoldenReference | None = None
        self.pending: list[InjectionRecord] = []   # records before golden
        self.planned: int | None = None      # masks generated (if known)
        self.last_progress: float | None = None

    @property
    def state(self) -> str:
        return self.journal.state_of(self.unit_id)

    @property
    def result(self) -> dict:
        """The unit's journaled ``done`` row ({} until it is done)."""
        return self.journal.results.get(self.unit_id, {})

    @property
    def injections(self) -> int:
        return max(self.records, self.result.get("injections", 0))

    @property
    def file_id(self) -> str:
        return self.unit_id.replace("/", "__")

    def classify_record(self, rec: InjectionRecord) -> None:
        if self.golden is None:
            self.pending.append(rec)
            return
        cls = classify(rec, self.golden)
        self.counts[cls] = self.counts.get(cls, 0) + 1
        self.records += 1

    def set_golden(self, golden: GoldenReference) -> None:
        self.golden = golden
        pending, self.pending = self.pending, []
        for rec in pending:
            self.classify_record(rec)

    def best_counts(self) -> dict:
        """Most authoritative outcome counts available right now."""
        done = self.result.get("counts")
        if done is not None and \
                sum(done.values()) >= sum(self.counts.values()):
            return done
        return self.counts


class StudyView:
    """A rolling, tail-maintained view over one study directory."""

    def __init__(self, study_dir, stall_after_s: float =
                 DEFAULT_STALL_AFTER_S):
        self.study_dir = Path(study_dir)
        self.stall_after_s = stall_after_s
        self.journal_tail = JSONLTailer(self.study_dir / JOURNAL_NAME)
        self.events_tail = JSONLTailer(self.study_dir / EVENTS_NAME)
        self.accumulator = SummaryAccumulator()
        # Imported here: the sched package itself imports repro.obs.
        from repro.sched.journal import JournalState
        self.journal = JournalState()
        self.unit_ids: list[str] = []
        self.units: dict[str, UnitView] = {}
        self.transitions: list[dict] = []     # journal rows + seq, in order
        self.last_heartbeat_ts: float | None = None
        self.latest_ts: float | None = None   # newest ts in any stream
        self._logs_tails: dict[str, JSONLTailer] = {}
        self._masks_tails: dict[str, JSONLTailer] = {}
        self._arrivals: deque = deque()       # record-arrival times (live)

    # -- tail plumbing -----------------------------------------------------

    def _unit(self, unit_id: str) -> UnitView:
        uv = self.units.get(unit_id)
        if uv is None:
            uv = self.units[unit_id] = UnitView(unit_id, self.journal)
            if unit_id not in self.unit_ids:
                self.unit_ids.append(unit_id)
        return uv

    def _apply_journal(self, row: dict) -> None:
        ts = row.get("ts")
        if isinstance(ts, (int, float)):
            self.latest_ts = max(self.latest_ts or ts, ts)
        self.journal.apply(row)
        if row.get("kind") == "study":
            for uid in self.journal.unit_ids:
                self._unit(uid)
        elif row.get("kind") == "unit" and isinstance(row.get("unit"), str):
            uid, state = row["unit"], row.get("state")
            if state == "audit_void":
                # The voided unit's logs are deleted and rerun: start
                # its live picture over.
                self.units.pop(uid, None)
                self._logs_tails.pop(uid, None)
                self._masks_tails.pop(uid, None)
            uv = self._unit(uid)
            if state == "leased":
                uv.lease_ts = uv.last_progress = ts
            elif state in ("failed", "quarantined"):
                uv.detail = row.get("detail") or row.get("reason")
            self.transitions.append(
                {"seq": len(self.transitions), **row})

    def _poll_logs(self, now: float) -> None:
        logs_dir = self.study_dir / "logs"
        masks_dir = self.study_dir / "masks"
        for uv in self.units.values():
            tail = self._logs_tails.get(uv.unit_id)
            if tail is None:
                tail = self._logs_tails[uv.unit_id] = \
                    JSONLTailer(logs_dir / f"{uv.file_id}.jsonl")
            for row in tail.poll():
                try:
                    item = decode_logs_row(row)
                    if isinstance(item, GoldenReference):
                        uv.set_golden(item)
                        continue
                    uv.classify_record(item)
                except (TypeError, ValueError, KeyError):
                    continue              # schema drift; never crash a view
                uv.last_progress = now
                self._arrivals.append(now)
            mtail = self._masks_tails.get(uv.unit_id)
            if mtail is None:
                mtail = self._masks_tails[uv.unit_id] = \
                    JSONLTailer(masks_dir / f"{uv.file_id}.jsonl")
            planned = len(mtail.poll())
            if planned:
                uv.planned = (uv.planned or 0) + planned

    def refresh(self, now: float | None = None) -> "StudyView":
        """Consume everything appended since the last refresh."""
        now = time.time() if now is None else now
        for row in self.journal_tail.poll():
            self._apply_journal(row)
        for ev in self.events_tail.poll():
            self.accumulator.add(ev)
            ts = ev.get("ts")
            if isinstance(ts, (int, float)):
                self.latest_ts = max(self.latest_ts or ts, ts)
            if ev.get("name") == "heartbeat":
                self.last_heartbeat_ts = ts
        self._poll_logs(now)
        while self._arrivals and now - self._arrivals[0] > RATE_WINDOW_S:
            self._arrivals.popleft()
        return self

    # -- derived quantities ------------------------------------------------

    def tally(self) -> dict:
        return self.journal.tally()

    def complete(self) -> bool:
        return bool(self.units) and all(
            uv.state in ("done", "quarantined")
            for uv in self.units.values())

    def state(self) -> str:
        """Coarse study state: ``queued`` | ``running`` | ``complete``.

        ``queued`` covers the window before the scheduler's first
        journal line lands (a service-admitted study waiting for a
        worker slot, or a directory handed to ``obs serve`` ahead of
        ``sched run``) — the /status snapshot is well-formed there,
        just all-pending with zero progress.
        """
        if self.complete():
            return "complete"
        if any(uv.state != "pending" for uv in self.units.values()):
            return "running"
        return "queued"

    def injections_done(self) -> int:
        return sum(uv.injections for uv in self.units.values())

    def planned_injections(self) -> int | None:
        """Total study size, when every unit's mask count is known."""
        spec = self.journal.spec_dict or {}
        fixed = spec.get("injections")
        total = 0
        for uv in self.units.values():
            planned = uv.planned if uv.planned is not None else fixed
            if planned is None:
                if uv.state == "done":
                    planned = uv.result.get("injections", 0)
                else:
                    return None            # sampler-sized unit not started
            total += planned
        return total

    def live_rate(self, now: float | None = None) -> float:
        """Injections/sec: sliding arrival window while running, the
        whole-study average once every unit is terminal (a finished
        study's backlog arrives in one poll burst, which would read as
        an absurd instantaneous rate)."""
        now = time.time() if now is None else now
        if self.complete():
            span = self.accumulator.summary()["wall_span_s"]
            done = self.injections_done()
            if span and span > 0:
                return done / span
        if not self._arrivals:
            return 0.0
        span = max(now - self._arrivals[0], 1e-9)
        return len(self._arrivals) / span

    def eta_s(self, now: float | None = None) -> float | None:
        """Seconds until study completion, from the live/observed rate."""
        planned = self.planned_injections()
        if planned is None:
            return None
        remaining = max(planned - self.injections_done(), 0)
        if remaining == 0:
            return 0.0
        rate = self.live_rate(now)
        if rate <= 0.0:
            # Fall back to the historical per-injection wall time from
            # the event stream's time histograms.
            lat = self.accumulator.inject_hist
            if lat.count == 0:
                return None
            rate = 1.0 / max(lat.mean, 1e-9)
        return remaining / rate

    def stalled_units(self, now: float | None = None) -> list[str]:
        """Leased units whose logs stopped growing for stall_after_s."""
        now = time.time() if now is None else now
        out = []
        for uv in self.units.values():
            if uv.state != "leased":
                continue
            last = uv.last_progress if uv.last_progress is not None \
                else uv.lease_ts
            if last is not None and now - last > self.stall_after_s:
                out.append(uv.unit_id)
        return sorted(out)

    # -- the snapshot ------------------------------------------------------

    def snapshot(self, now: float | None = None) -> dict:
        """One JSON-serialisable status dict: the /status payload.

        Pass a fixed *now* for deterministic output (reports, tests);
        it defaults to wall-clock time.
        """
        now = time.time() if now is None else now
        spec = self.journal.spec_dict or {}
        confidence = spec.get("confidence", 0.99)
        error_margin = spec.get("error_margin", 0.03)
        stalled = set(self.stalled_units(now))
        summary = self.accumulator.summary()
        cells = []
        converged_cells = 0
        for uid in self.unit_ids:
            uv = self.units[uid]
            counts = uv.best_counts()
            conv = cell_convergence(counts, confidence=confidence,
                                    error_margin=error_margin)
            converged_cells += bool(conv["converged"])
            lease_age = (now - uv.lease_ts
                         if uv.state == "leased" and uv.lease_ts is not None
                         else None)
            cells.append({
                "unit": uid,
                "state": uv.state,
                "attempts": self.journal.attempts.get(uid, 0),
                "injections": uv.injections,
                "planned": uv.planned if uv.planned is not None
                else spec.get("injections"),
                "counts": dict(counts),
                "convergence": conv,
                "lease_age_s": lease_age,
                "stalled": uid in stalled,
                "resumed": uv.result.get("resumed", 0),
                "wall_s": uv.result.get("wall_s", 0.0),
                "error": uv.detail,
            })
        eta = self.eta_s(now)
        return {
            "study_dir": str(self.study_dir),
            "spec_hash": self.journal.spec_hash,
            "spec": spec or None,
            "shard": (list(self.journal.shard) if self.journal.shard
                      else None),
            "units": len(self.unit_ids),
            "tally": self.tally(),
            "state": self.state(),
            "complete": self.complete(),
            "injections_done": self.injections_done(),
            "progress": {
                "planned_injections": self.planned_injections(),
                "injections_per_sec": self.live_rate(now),
                "eta_s": eta,
                "converged_cells": converged_cells,
            },
            "confidence": confidence,
            "error_margin": error_margin,
            "stalled": sorted(stalled),
            "heartbeat_age_s": (now - self.last_heartbeat_ts
                                if self.last_heartbeat_ts is not None
                                else None),
            "phases": summary["phases"],
            "checkpoint": summary["checkpoint"],
            "latency": summary["latency"],
            "outcomes": summary["outcomes"],
            "guard": summary["guard"],
            "prune": summary["prune"],
            "sched": summary["sched"],
            "svc": summary["svc"],
            "events_seen": summary["events"],
            "wall_span_s": summary["wall_span_s"],
            "cells": cells,
        }


def load_study_view(study_dir, stall_after_s: float =
                    DEFAULT_STALL_AFTER_S) -> StudyView:
    """Build a view and consume everything the study has written so far."""
    view = StudyView(study_dir, stall_after_s=stall_after_s)
    view.refresh()
    if view.journal.spec_dict is None:
        raise FileNotFoundError(
            f"{view.study_dir / JOURNAL_NAME}: no study journal (yet)")
    return view


__all__ = ["JSONLTailer", "StudyView", "UnitView", "load_study_view",
           "DEFAULT_STALL_AFTER_S"]
