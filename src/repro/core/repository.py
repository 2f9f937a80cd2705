"""Masks repository and logs repository (Fig. 1).

Both are JSONL-backed so campaigns can be split across processes or
machines (the paper ran on 10 workstations) and so the Parser can be
re-run with a different classification policy without re-injecting.
In-memory operation (``path=None``) is the default for tests and small
studies.

Attach semantics: reopening an existing file and re-adding records is
*idempotent* — both repositories key their contents by ``set_id`` and
silently skip duplicates, so a process that re-attaches after a crash
(the ``repro.sched`` resume path) can regenerate its deterministic
masks, replay its campaign loop, and only genuinely new records reach
the file.  Pass ``fsync=True`` to force every append to stable storage
before returning — the durability contract the scheduler's write-ahead
journal and unit logs rely on.

Crash tolerance follows the append-only rule of
:mod:`repro.core.ioutil` (docs/robustness.md, "Append-only files and
crashes"): reopening a file whose writer was SIGKILLed mid-append
replays the records before the torn final line and truncates that line,
so later appends stay line-aligned.  A corrupt line with records after
it raises ``ValueError``; that is a damaged file, not an interrupted
write.  :func:`decode_logs_row` is the one decoder of a logs row.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.fault import FaultSet
from repro.core.ioutil import JSONLWriter, read_jsonl
from repro.core.outcome import GoldenReference, InjectionRecord


def decode_logs_row(row: dict) -> GoldenReference | InjectionRecord:
    """Decode one ``{"kind": "golden" | "injection", "data": ...}`` row.

    Raises ``ValueError`` for any other row.
    """
    kind = row.get("kind")
    if kind == "golden":
        cls = GoldenReference
    elif kind == "injection":
        cls = InjectionRecord
    else:
        raise ValueError(f"unknown kind {kind!r}")
    try:
        return cls.from_dict(row.get("data"))
    except (TypeError, AttributeError) as exc:
        raise ValueError(str(exc)) from exc


class _FileBacked:
    """The file half of a repository: the rows already in its JSONL file
    on attach, appends after; nothing on disk when *path* is None."""

    def __init__(self, path, fsync: bool):
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self._log = (JSONLWriter(self.path) if self.path is not None
                     else None)

    def _replay(self) -> list[dict]:
        if self._log is None or not self.path.exists():
            return []
        rows = read_jsonl(self.path)
        self._log.open()                   # truncates a torn tail
        return rows

    def _write(self, rows) -> None:
        if self._log is not None:
            self._log.fsync = self.fsync   # callers may set it after attach
            self._log.append(*rows)

    def close(self) -> None:
        """Close the file; a later append reopens it."""
        if self._log is not None:
            self._log.close()


class MasksRepository(_FileBacked):
    """Stores generated fault sets for a campaign (keyed by ``set_id``)."""

    def __init__(self, path: str | Path | None = None,
                 fsync: bool = False):
        super().__init__(path, fsync)
        self._sets: list[FaultSet] = []
        self._ids: set[int] = set()
        for row in self._replay():
            self._remember(FaultSet.from_dict(row))

    def _remember(self, fs: FaultSet) -> bool:
        if fs.set_id in self._ids:
            return False
        self._sets.append(fs)
        self._ids.add(fs.set_id)
        return True

    def add_all(self, fault_sets) -> None:
        """Add fault sets, skipping ``set_id``s already present.

        A second process attaching to the same file and regenerating the
        same (deterministic) masks therefore appends nothing.
        """
        fresh = [fs for fs in fault_sets if self._remember(fs)]
        if fresh:
            self._write(fs.to_dict() for fs in fresh)

    def __contains__(self, set_id: int) -> bool:
        return set_id in self._ids

    def __iter__(self):
        return iter(self._sets)

    def __len__(self) -> int:
        return len(self._sets)


class LogsRepository(_FileBacked):
    """Stores raw injection records plus the golden reference."""

    def __init__(self, path: str | Path | None = None,
                 fsync: bool = False):
        super().__init__(path, fsync)
        self.golden: GoldenReference | None = None
        self._records: list[InjectionRecord] = []
        self._ids: set[int] = set()
        for row in self._replay():
            item = decode_logs_row(row)
            if isinstance(item, GoldenReference):
                self.golden = item
            elif item.set_id not in self._ids:
                self._records.append(item)
                self._ids.add(item.set_id)

    def set_golden(self, golden: GoldenReference) -> None:
        """Record the golden reference (idempotent on re-attach).

        Re-setting an identical golden after loading it from the file
        writes nothing; a *different* golden appends a new row (last row
        wins on load), which keeps the file append-only.
        """
        if self.golden == golden:
            self.golden = golden
            return
        self.golden = golden
        self._write([{"kind": "golden", "data": golden.to_dict()}])

    def add(self, record: InjectionRecord) -> None:
        """Append one record; duplicates (same ``set_id``) are skipped."""
        if record.set_id in self._ids:
            return
        self._records.append(record)
        self._ids.add(record.set_id)
        self._write([{"kind": "injection", "data": record.to_dict()}])

    @property
    def set_ids(self) -> set:
        """``set_id``s already recorded (the sched resume skip-list)."""
        return set(self._ids)

    def __contains__(self, set_id: int) -> bool:
        return set_id in self._ids

    @property
    def records(self) -> list[InjectionRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)
