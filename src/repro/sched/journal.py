"""Write-ahead journal for durable campaign studies.

One JSONL file per (study, shard): a header record binding the journal
to a :class:`~repro.sched.plan.StudySpec` (by content *and* by hash),
then one record per unit state transition::

    pending ──lease──▶ leased ──▶ done
                         │
                         ├──▶ failed ──(retry)──▶ leased …
                         └──▶ failed ──(attempts exhausted)──▶ quarantined

Every append is flushed and ``fsync``'d before the scheduler acts on
it (write-ahead: the intent is durable before the work starts), so a
killed study — SIGKILL, power loss, OOM — can always be resumed from
its journal.  ``done`` records carry the unit's classification counts;
resume never re-runs a completed unit, and partially-completed units
resume mid-campaign from their logs repository (records are keyed by
``set_id`` — see :mod:`repro.core.repository`).

Replay and reopening follow the append-only rule of
:mod:`repro.core.ioutil` (docs/robustness.md, "Append-only files and
crashes"): replay skips a torn final line, reopening truncates it, and a
corrupt line with rows after it is a ``ValueError``.  Stale leases — a
``leased`` record with no terminal transition — are what an interrupted
run leaves behind; the scheduler counts them as spent attempts and
re-queues the unit.  :meth:`JournalState.apply` is the one fold of a
journal row: :func:`load_journal`, ``repro.tools fsck`` and the live
:class:`~repro.obs.live.StudyView` all replay through it.
"""

from __future__ import annotations

import json
import time

from repro.core.ioutil import JSONLWriter, read_jsonl

# Unit states (journal record vocabulary).
PENDING = "pending"          # implicit: in the plan, nothing journaled
LEASED = "leased"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"
AUDIT_VOID = "audit_void"    # a done result retracted by attestation:
                             # the worker that produced it was
                             # distrusted, the unit is pending again

TERMINAL_STATES = (DONE, QUARANTINED)


class Journal(JSONLWriter):
    """Append-only, fsync'd JSONL journal of one study shard."""

    def __init__(self, path, fsync: bool = True):
        super().__init__(path, fsync)
        self.open()

    # A name in this class's own dict: perfbench/spans.py counts
    # journal appends by wrapping it.
    _append = JSONLWriter.append

    def write_header(self, spec_dict: dict, unit_ids, shard=None) -> None:
        self._append({"kind": "study", "spec": spec_dict,
                      "spec_hash": _spec_hash(spec_dict),
                      "units": list(unit_ids),
                      "shard": list(shard) if shard else None,
                      "ts": time.time()})

    def record(self, unit_id: str, state: str, **fields) -> None:
        """Journal one unit state transition (durably, before acting)."""
        self._append({"kind": "unit", "unit": unit_id, "state": state,
                      "ts": time.time(), **fields})


class JournalState:
    """The replayed state of a journal: who is where, with what result."""

    def __init__(self):
        self.spec_dict: dict | None = None
        self.spec_hash: str | None = None
        self.unit_ids: list[str] = []
        self.shard: tuple | None = None
        self.last: dict[str, dict] = {}       # unit -> last transition row
        self.attempts: dict[str, int] = {}    # unit -> leases journaled
        self.results: dict[str, dict] = {}    # unit -> done payload

    def apply(self, row: dict) -> None:
        """Fold one journal row into the state (rows in file order)."""
        kind = row.get("kind")
        if kind == "study":
            self.spec_dict = row.get("spec")
            self.spec_hash = row.get("spec_hash")
            self.unit_ids = list(row.get("units", []))
            shard = row.get("shard")
            self.shard = tuple(shard) if shard else None
        elif kind == "unit" and isinstance(row.get("unit"), str):
            uid, state = row["unit"], row.get("state")
            self.last[uid] = row
            if state == LEASED:
                self.attempts[uid] = self.attempts.get(uid, 0) + 1
            elif state == DONE:
                self.results[uid] = row
            elif state == AUDIT_VOID:
                self.results.pop(uid, None)

    # -- queries ----------------------------------------------------------

    def state_of(self, unit_id: str) -> str:
        row = self.last.get(unit_id)
        return row.get("state") if row else PENDING

    def is_done(self, unit_id: str) -> bool:
        return self.state_of(unit_id) == DONE

    def counts_by_unit(self) -> dict:
        """unit_id -> classification counts for every completed unit."""
        return {uid: row.get("counts", {})
                for uid, row in self.results.items()}

    def tally(self) -> dict:
        """State -> unit count over the journal's plan."""
        tally = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0, QUARANTINED: 0}
        for uid in self.unit_ids:
            state = self.state_of(uid)
            if state == AUDIT_VOID:
                state = PENDING    # a voided unit is back in the queue
            tally[state] = tally.get(state, 0) + 1
        return tally


def _spec_hash(spec_dict: dict) -> str:
    import hashlib
    blob = json.dumps(spec_dict, sort_keys=True)
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def load_journal(path) -> JournalState:
    """Replay a journal file into a :class:`JournalState`.

    Skips a torn final line — everything before it is, by the fsync
    discipline, durable and consistent — and raises ``ValueError`` on a
    corrupt line with rows after it.
    """
    state = JournalState()
    for row in read_jsonl(path):
        state.apply(row)
    if state.spec_dict is None:
        raise ValueError(f"{path}: not a study journal (no header)")
    return state
