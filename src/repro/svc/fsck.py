"""Offline integrity checker for study and service directories.

``repro.tools fsck PATH`` walks a study directory (or a whole service
root) and verifies the invariants the running system enforces online:

* **journal replay consistency** — the unit journal parses, carries a
  header, references only units of its own plan, and uses only legal
  states, replayed through the same :meth:`JournalState.apply
  <repro.sched.journal.JournalState.apply>` as ``load_journal``;
* **repository integrity** — every DONE unit's logs/masks files exist,
  parse, hold each ``set_id`` at most once, and agree with each other
  (every injection record carries the masks of its own fault set);
* **record digests** — the journal's ``done`` counts equal the counts
  re-derived by classifying the unit's records against its golden
  reference, and every (setup, benchmark) family agrees on one golden;
* **blob digests** — any content-addressed ``*.blob`` cache file under
  the tree hashes to its own name;
* **service ledger** — ``service.jsonl`` parses, study ids are unique,
  the fencing epoch is monotonic, and every non-purged study has its
  directory on disk.

Every JSONL file is read by :func:`repro.core.ioutil.scan_jsonl`, the
scan the online readers and writers share (docs/robustness.md,
"Append-only files and crashes"): a torn final line and a corrupt line
with complete lines after it are both reported.  Findings are ``{"path",
"check", "detail", "repaired"}`` rows; the CLI exits 0 when nothing
(unrepaired) is wrong and 3 otherwise.  ``fsck`` is deliberately
read-only except for ``--repair``, which only ever truncates torn
tails — the same truncation every writer applies when it opens a file.
A corrupt line is never repaired.

What fsck does *not* re-verify is the deterministic mask stream
against the unit seed — that is ingest validation's and the audit's
job (:mod:`repro.svc.attest`), which have the simulator at hand; fsck
must stay runnable on any directory, corrupted or synthetic.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.core.ioutil import scan_jsonl
from repro.core.outcome import GoldenReference
from repro.core.parser import classify_all
from repro.core.repository import decode_logs_row
from repro.sched.journal import (AUDIT_VOID, DONE, FAILED, LEASED,
                                 PENDING, QUARANTINED, JournalState)
from repro.sched.study import EVENTS_NAME, JOURNAL_NAME
from repro.svc.state import SERVICE_JOURNAL_NAME, STUDIES_DIR_NAME

LEGAL_UNIT_STATES = {PENDING, LEASED, DONE, FAILED, QUARANTINED,
                     AUDIT_VOID}


def _finding(path, check: str, detail: str, repaired: bool = False) -> dict:
    return {"path": str(path), "check": check, "detail": detail,
            "repaired": repaired}


def _check_jsonl(path: Path, findings: list, repair: bool,
                 check: str) -> list[dict] | None:
    """Scan one JSONL file, reporting (and maybe repairing) damage.

    Returns the parsed rows, or None when the file is missing,
    unreadable or corrupt beyond a tail truncation (the caller should
    not interpret partial rows).
    """
    if not path.exists():
        findings.append(_finding(path, check, "file is missing"))
        return None
    try:
        rows, torn_at, corrupt = scan_jsonl(path)
    except OSError as exc:
        findings.append(_finding(path, check, f"unreadable: {exc}"))
        return None
    if corrupt is not None:
        findings.append(_finding(path, check, corrupt))
    if torn_at is not None:
        if repair:
            os.truncate(path, torn_at)
        findings.append(_finding(
            path, check,
            f"torn final line at byte {torn_at}"
            + (" (truncated)" if repair else " (run with --repair)"),
            repaired=repair))
    return None if corrupt is not None else rows


def _load_records(rows: list[dict], path, findings: list):
    """Parse logs-repository rows into (golden, records, ok)."""
    golden = None
    records = []
    seen = set()
    ok = True
    for n, row in enumerate(rows, 1):
        try:
            item = decode_logs_row(row)
        except ValueError as exc:
            findings.append(_finding(path, "record-format",
                                     f"row {n}: {exc}"))
            ok = False
            continue
        if isinstance(item, GoldenReference):
            golden = item
            continue
        if item.set_id in seen:
            findings.append(_finding(
                path, "duplicate-set-id",
                f"set_id {item.set_id} appears more than once"))
            ok = False
        seen.add(item.set_id)
        records.append(item)
    return golden, records, ok


def fsck_study(study_dir, repair: bool = False) -> list[dict]:
    """Check one study directory; returns the findings."""
    study_dir = Path(study_dir)
    findings: list[dict] = []
    journal_path = study_dir / JOURNAL_NAME
    rows = _check_jsonl(journal_path, findings, repair, "journal-parse")
    if rows is None:
        return findings
    journal = JournalState()
    for row in rows:
        journal.apply(row)
    if journal.spec_dict is None:
        findings.append(_finding(journal_path, "journal-header",
                                 "no study header row"))
        return findings
    plan_units = set(journal.unit_ids)
    goldens: dict[tuple, tuple] = {}   # (setup, bench) -> (golden, unit)
    for uid, row in sorted(journal.last.items()):
        if uid not in plan_units:
            findings.append(_finding(
                journal_path, "journal-unknown-unit",
                f"unit {uid} is not in the journal's plan"))
        state = row.get("state")
        if state not in LEGAL_UNIT_STATES:
            findings.append(_finding(
                journal_path, "journal-bad-state",
                f"unit {uid} has illegal state {state!r}"))
    for uid, row in sorted(journal.results.items()):
        file_id = uid.replace("/", "__")
        logs_path = study_dir / "logs" / f"{file_id}.jsonl"
        masks_path = study_dir / "masks" / f"{file_id}.jsonl"
        log_rows = _check_jsonl(logs_path, findings, repair, "logs-parse")
        mask_rows = _check_jsonl(masks_path, findings, repair,
                                 "masks-parse")
        if log_rows is None or mask_rows is None:
            continue
        golden, records, ok = _load_records(log_rows, logs_path, findings)
        masks_by_set: dict[int, list] = {}
        for n, mrow in enumerate(mask_rows, 1):
            set_id = mrow.get("set_id")
            if set_id in masks_by_set:
                findings.append(_finding(
                    masks_path, "duplicate-set-id",
                    f"set_id {set_id} appears more than once"))
                ok = False
            masks_by_set[set_id] = mrow.get("masks")
        for rec in records:
            if rec.set_id not in masks_by_set:
                findings.append(_finding(
                    logs_path, "record-mask-mismatch",
                    f"record {rec.set_id} has no fault set in the "
                    f"masks repository"))
                ok = False
            elif rec.masks != masks_by_set[rec.set_id]:
                findings.append(_finding(
                    logs_path, "record-mask-mismatch",
                    f"record {rec.set_id} does not carry the masks of "
                    f"its own fault set"))
                ok = False
        if golden is None:
            findings.append(_finding(logs_path, "missing-golden",
                                     "no golden reference row"))
            continue
        setup, benchmark = uid.split("/")[0], uid.split("/")[1]
        prior = goldens.get((setup, benchmark))
        if prior is None:
            goldens[(setup, benchmark)] = (golden.to_dict(), uid)
        elif prior[0] != golden.to_dict():
            findings.append(_finding(
                logs_path, "golden-mismatch",
                f"golden observables diverge from unit {prior[1]} of "
                f"the same ({setup}, {benchmark}) family"))
        if not ok:
            continue                   # counts would mis-diagnose
        claimed = row.get("counts")
        recomputed = classify_all(records, golden)
        if claimed != recomputed:
            findings.append(_finding(
                journal_path, "counts-mismatch",
                f"unit {uid}: journal counts {claimed!r} != counts "
                f"recomputed from its records {recomputed!r}"))
        if row.get("injections") not in (None, len(records)):
            findings.append(_finding(
                journal_path, "counts-mismatch",
                f"unit {uid}: journal claims {row.get('injections')} "
                f"injections but the logs hold {len(records)} records"))
    events_path = study_dir / EVENTS_NAME
    if events_path.exists():
        _check_jsonl(events_path, findings, repair, "events-parse")
    return findings


def _check_blobs(root: Path, findings: list) -> None:
    for blob in sorted(root.rglob("*.blob")):
        digest = hashlib.sha256(blob.read_bytes()).hexdigest()
        if digest != blob.stem:
            findings.append(_finding(
                blob, "blob-digest",
                f"content hashes to {digest[:12]}…, not its name"))


def fsck_service(root, repair: bool = False) -> list[dict]:
    """Check a whole service root (ledger + every study directory)."""
    root = Path(root)
    findings: list[dict] = []
    ledger_path = root / SERVICE_JOURNAL_NAME
    rows = _check_jsonl(ledger_path, findings, repair, "service-parse")
    if rows is None:
        return findings
    seen_ids: set[str] = set()
    last_epoch = 0
    purged: set[str] = set()
    for n, row in enumerate(rows, 1):
        kind = row.get("kind")
        if kind == "study":
            sid = row.get("id")
            if sid in seen_ids:
                findings.append(_finding(
                    ledger_path, "duplicate-study",
                    f"study id {sid} submitted more than once"))
            seen_ids.add(sid)
        elif kind == "epoch":
            epoch = int(row.get("epoch", 0))
            if epoch <= last_epoch:
                findings.append(_finding(
                    ledger_path, "epoch-regression",
                    f"row {n}: epoch {epoch} after epoch {last_epoch} "
                    f"— fences may collide across incarnations"))
            last_epoch = max(last_epoch, epoch)
        elif kind == "gc":
            purged.add(row.get("id"))
    studies_dir = root / STUDIES_DIR_NAME
    for sid in sorted(seen_ids):
        study_dir = studies_dir / sid
        if not study_dir.exists():
            if sid not in purged:
                findings.append(_finding(
                    study_dir, "missing-study-dir",
                    f"study {sid} is in the ledger (not purged) but "
                    f"has no directory"))
            continue
        findings.extend(fsck_study(study_dir, repair=repair))
    _check_blobs(root, findings)
    return findings


def fsck_path(path, repair: bool = False) -> tuple[str, list[dict]]:
    """Autodetect service root vs study dir and check it.

    Returns ``(kind, findings)`` with kind ``"service"`` or
    ``"study"``; raises ``ValueError`` when *path* is neither.
    """
    path = Path(path)
    if (path / SERVICE_JOURNAL_NAME).exists():
        return "service", fsck_service(path, repair=repair)
    if (path / JOURNAL_NAME).exists():
        return "study", fsck_study(path, repair=repair)
    raise ValueError(
        f"{path} is neither a service root (no {SERVICE_JOURNAL_NAME}) "
        f"nor a study directory (no {JOURNAL_NAME})")


__all__ = ["fsck_path", "fsck_study", "fsck_service"]
