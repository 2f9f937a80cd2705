"""Small filesystem utilities shared across the stack.

Two kinds of file live on disk.

*Derived* outputs — merged study JSON, HTML reports, figure renderings,
stats dumps — are rewritten whole by :func:`atomic_write_text`: a crash
mid-write must never leave a half-file behind for a consumer (CI, a
dashboard, a later merge) to misread, so the text goes to a temporary
file in the same directory, is flushed and ``fsync``'d, then
``os.replace``'d — atomic on POSIX.

*Append-only* JSONL files — the unit journal, the service ledger, the
logs and masks repositories and the event streams — grow one line at a
time, and this module frames every one of them (docs/robustness.md,
"Append-only files and crashes"):

* a line is a row once it ends in a newline and decodes to a JSON
  object;
* whatever non-blank text follows the last row is a *torn tail*, the
  write a crash interrupted.  Readers (:func:`read_jsonl`) skip it and
  never write; a writer (:class:`JSONLWriter`) truncates it once, when
  it opens the file, so its appends stay line-aligned;
* a bad line with rows after it is corruption no truncation repairs:
  every reader raises ``ValueError`` naming ``path:line``.

:func:`scan_jsonl` is the one non-mutating scan under all of them and
under ``repro.tools fsck``.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

from repro.errors import CampaignError


def atomic_write_text(path, text: str, fsync: bool = True) -> None:
    """Replace *path* with *text* atomically (tmp file + ``os.replace``).

    The temporary file lives in *path*'s directory so the final rename
    never crosses a filesystem boundary.  Readers see either the old
    content or the new content, never a prefix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent,
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class JSONLScan(NamedTuple):
    """What :func:`scan_jsonl` found in one append-only file."""

    rows: list               # every decoded row, in file order
    torn_at: int | None      # byte offset of a torn tail
    corrupt: str | None      # "path:line: ..." of the first bad line
                             # that rows follow


def parse_jsonl_line(raw: bytes, require: str | None = None) -> dict:
    """Decode one complete line into a row; ``ValueError`` says why not."""
    try:
        row = json.loads(raw)
    except ValueError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(row, dict):
        raise ValueError("not a JSON object")
    if require is not None and require not in row:
        raise ValueError(f"row without {require!r}")
    return row


def scan_jsonl(path, require: str | None = None) -> JSONLScan:
    """Read an append-only JSONL file without changing it.

    A line counts as a row only if it is newline-terminated, decodes to
    a JSON object and, with *require*, carries that field.
    """
    data = Path(path).read_bytes()
    rows: list[dict] = []
    corrupt = None
    bad = None                     # (line, why) of a bad line, no row since
    offset = end = 0               # end: just past the last row
    for n, raw in enumerate(data.split(b"\n")[:-1], 1):
        offset += len(raw) + 1
        if not raw.strip():
            continue
        try:
            rows.append(parse_jsonl_line(raw, require))
        except ValueError as exc:
            bad = bad or (n, exc)
            continue
        if bad is not None and corrupt is None:
            corrupt = (f"{path}:{bad[0]}: corrupt line with complete "
                       f"lines after it ({bad[1]})")
        bad, end = None, offset
    return JSONLScan(rows, end if data[end:].strip() else None, corrupt)


def read_jsonl(path, require: str | None = None) -> list[dict]:
    """The rows of an append-only JSONL file, by the readers' rule.

    A torn tail is skipped with a ``RuntimeWarning``; corruption raises
    ``ValueError`` naming ``path:line``.  The file is never written.
    """
    scan = scan_jsonl(path, require)
    if scan.corrupt is not None:
        raise ValueError(scan.corrupt)
    if scan.torn_at is not None:
        warnings.warn(f"{path}: dropping torn trailing line at byte "
                      f"{scan.torn_at} — its writer was killed "
                      f"mid-append", RuntimeWarning, stacklevel=3)
    return scan.rows


class JSONLWriter:
    """Appends rows to one JSONL file, one whole line per row.

    :meth:`open` (called by the first :meth:`append` if nobody called it
    before) truncates a torn tail, once.  Each :meth:`append` flushes,
    and ``fsync``s when *fsync* is set, so a row is durable before the
    caller acts on it; an ``OSError`` becomes a :class:`CampaignError`
    naming the file.  :meth:`close` therefore only closes.
    """

    def __init__(self, path, fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self._fh = None

    def open(self) -> None:
        """Open for appending, truncating a torn tail first; a no-op
        while open."""
        if not self.closed:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            torn_at = scan_jsonl(self.path).torn_at
            if torn_at is not None:
                os.truncate(self.path, torn_at)
        self._fh = open(self.path, "a")

    def append(self, *rows: dict) -> None:
        """Write *rows*, flush, and ``fsync`` when *fsync* is set."""
        try:
            self.open()
            for row in rows:
                self._fh.write(json.dumps(row) + "\n")
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except OSError as exc:
            raise CampaignError(
                f"cannot append to {self.path}: {exc} — its rows are not "
                f"durable; free space or fix permissions, then run "
                f"`repro.tools fsck --repair` on the study directory or "
                f"service root before resuming") from exc

    @property
    def closed(self) -> bool:
        return self._fh is None or self._fh.closed

    def close(self) -> None:
        if not self.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


__all__ = ["atomic_write_text", "JSONLScan", "JSONLWriter",
           "parse_jsonl_line", "read_jsonl", "scan_jsonl"]
