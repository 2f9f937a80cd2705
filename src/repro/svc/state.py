"""Durable service journal — the campaign service's study ledger.

The service keeps two kinds of durable state.  Per-unit progress lives
in each study's own write-ahead journal (``studies/<id>/journal.jsonl``,
the unchanged :mod:`repro.sched.journal` format), so a study submitted
over HTTP is exactly as resumable as one started from the CLI.  This
module adds the thin layer above it: one ``service.jsonl`` recording
study *lifecycle* — which studies exist, who submitted them, and
whether they are accepted, running, done or cancelled::

    accepted ──▶ running ──▶ done
        │            │
        └──▶ cancelled ◀──┘

Same discipline as the unit journal: every append is flushed and
``fsync``'d before the service acts on it, and replay and reopening
follow the append-only rule of :mod:`repro.core.ioutil`
(docs/robustness.md, "Append-only files and crashes").  ``repro.tools
svc serve`` killed at any point — SIGTERM, SIGKILL, power loss —
replays ``service.jsonl``, reopens every non-terminal study's unit
journal, and resumes with no unit lost and no completed unit re-run.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core.ioutil import JSONLWriter, read_jsonl

SERVICE_JOURNAL_NAME = "service.jsonl"
STUDIES_DIR_NAME = "studies"

# Study lifecycle states (service journal vocabulary).
ACCEPTED = "accepted"        # admitted, units queued, none finished yet
RUNNING = "running"          # at least one unit has been leased
STUDY_DONE = "done"          # every unit terminal (done or quarantined)
CANCELLED = "cancelled"      # operator or tenant cancelled the study

TERMINAL_STUDY_STATES = (STUDY_DONE, CANCELLED)


class StudyRecord:
    """The replayed lifecycle of one submitted study."""

    __slots__ = ("study_id", "tenant", "spec_dict", "spec_hash",
                 "unit_ids", "state", "submitted_ts", "finished_ts",
                 "detail", "purged")

    def __init__(self, study_id: str, tenant: str, spec_dict: dict,
                 spec_hash: str, unit_ids: list, submitted_ts: float):
        self.study_id = study_id
        self.tenant = tenant
        self.spec_dict = spec_dict
        self.spec_hash = spec_hash
        self.unit_ids = list(unit_ids)
        self.state = ACCEPTED
        self.submitted_ts = submitted_ts
        self.finished_ts: float | None = None
        self.detail: str | None = None
        self.purged = False            # study dir deleted by retention GC

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STUDY_STATES

    def to_dict(self) -> dict:
        return {
            "id": self.study_id,
            "tenant": self.tenant,
            "spec_hash": self.spec_hash,
            "units": len(self.unit_ids),
            "state": self.state,
            "submitted_ts": self.submitted_ts,
            "finished_ts": self.finished_ts,
            "detail": self.detail,
            "purged": self.purged,
        }


class ServiceJournal(JSONLWriter):
    """Append-only, fsync'd JSONL ledger of study lifecycle."""

    def __init__(self, path, fsync: bool = True):
        super().__init__(path, fsync)
        self.open()

    def record_submit(self, study_id: str, tenant: str, spec_dict: dict,
                      spec_hash: str, unit_ids) -> None:
        self.append({"kind": "study", "id": study_id, "tenant": tenant,
                     "spec": spec_dict, "spec_hash": spec_hash,
                     "units": list(unit_ids), "ts": time.time()})

    def record_state(self, study_id: str, state: str, **fields) -> None:
        """Journal one study lifecycle transition (durably, before acting)."""
        self.append({"kind": "state", "id": study_id, "state": state,
                     "ts": time.time(), **fields})

    def record_epoch(self, epoch: int) -> None:
        """Journal one service incarnation (the fencing-token epoch).

        Every start of a service over this root writes the next epoch
        *before* granting any lease, so a fence minted by a previous
        incarnation can never collide with a fresh one — a zombie
        worker's late ``complete`` is rejected by construction.
        """
        self.append({"kind": "epoch", "epoch": epoch, "ts": time.time()})

    def record_gc(self, study_id: str, **fields) -> None:
        """Journal one retention-GC deletion (durably, before deleting)."""
        self.append({"kind": "gc", "id": study_id, "ts": time.time(),
                     **fields})


class ServiceState:
    """The replayed state of a service journal."""

    def __init__(self):
        self.studies: dict[str, StudyRecord] = {}   # id -> record (in order)
        self.epoch = 0                 # highest service incarnation seen

    def next_serial(self) -> int:
        return len(self.studies) + 1

    def active(self) -> list[StudyRecord]:
        """Non-terminal studies, in submission order."""
        return [rec for rec in self.studies.values() if not rec.terminal]

    def tally(self) -> dict:
        tally = {ACCEPTED: 0, RUNNING: 0, STUDY_DONE: 0, CANCELLED: 0}
        for rec in self.studies.values():
            tally[rec.state] = tally.get(rec.state, 0) + 1
        return tally


def load_service(path) -> ServiceState:
    """Replay a service journal (an absent one is an empty ledger).

    Skips a torn final line and raises ``ValueError`` on a corrupt line
    with rows after it.
    """
    state = ServiceState()
    path = Path(path)
    if not path.exists():
        return state
    for row in read_jsonl(path):
        kind = row.get("kind")
        if kind == "study":
            rec = StudyRecord(row["id"], row.get("tenant", "default"),
                              row.get("spec", {}),
                              row.get("spec_hash", ""),
                              row.get("units", []),
                              row.get("ts", 0.0))
            state.studies[rec.study_id] = rec
        elif kind == "state":
            rec = state.studies.get(row["id"])
            if rec is None:
                continue                   # state for an unknown study
            rec.state = row["state"]
            if rec.terminal:
                rec.finished_ts = row.get("ts")
            else:
                rec.finished_ts = None     # reopened (e.g. audit void)
            rec.detail = row.get("detail", rec.detail)
        elif kind == "epoch":
            state.epoch = max(state.epoch, int(row.get("epoch", 0)))
        elif kind == "gc":
            rec = state.studies.get(row["id"])
            if rec is not None:
                rec.purged = True
    return state


def study_id_for(serial: int, spec_hash: str) -> str:
    """Stable, human-scannable study id: serial + spec fingerprint."""
    return f"s{serial:04d}-{spec_hash[:6]}"


__all__ = ["ServiceJournal", "ServiceState", "StudyRecord", "load_service",
           "study_id_for", "ACCEPTED", "RUNNING", "STUDY_DONE", "CANCELLED",
           "TERMINAL_STUDY_STATES", "SERVICE_JOURNAL_NAME",
           "STUDIES_DIR_NAME"]
