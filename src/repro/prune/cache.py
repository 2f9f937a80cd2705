"""Persistent per-(setup × benchmark) access-trace cache.

A study touches each (setup, benchmark) pair once per *structure* ×
*fault type* cell, but the golden access trace is a property of the
pair alone — so it is recorded once and reused, exactly like the
in-memory fault-site cache on the simulator.  This module gives the
trace a home on disk: campaigns (and scheduler units) pass a cache
directory, the first campaign of a pair records and stores, and every
later campaign loads instead of re-recording.

Entries are the zlib-compressed :meth:`AccessTrace.to_bytes` form
behind the magic ``RPTR2``, keyed by the identity of the golden
execution: setup label, benchmark, program scaling.  An entry of
another trace version (an ``RPTR1`` file of an older build included)
or a corrupt one is a miss, which the campaign re-records and
overwrites.  Loads are
validated downstream against the golden run's cycle count — a stale
entry (the simulator changed) is discarded and re-recorded, never
trusted.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from pathlib import Path

from repro.prune.trace import AccessTrace

_MAGIC = b"RPTR2"


class TraceCache:
    """Directory of serialized :class:`AccessTrace` blobs."""

    def __init__(self, root):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @staticmethod
    def entry_key(setup: str, benchmark: str) -> str:
        digest = hashlib.sha1(
            f"{setup}|{benchmark}".encode()).hexdigest()[:10]
        safe = "".join(c if c.isalnum() or c in "-_" else "_"
                       for c in f"{setup}__{benchmark}")
        return f"{safe}__{digest}.trace"

    def path_for(self, setup: str, benchmark: str) -> Path:
        return self.root / self.entry_key(setup, benchmark)

    def load(self, setup: str, benchmark: str) -> AccessTrace | None:
        path = self.path_for(setup, benchmark)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            trace = AccessTrace.from_bytes(
                zlib.decompress(blob[len(_MAGIC):]))
        except Exception:
            # Corrupt, foreign or another version's file: treat as a
            # miss; the campaign re-records and overwrites it.
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def store(self, trace: AccessTrace) -> Path:
        path = self.path_for(trace.setup, trace.benchmark)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp%d" % os.getpid())
        tmp.write_bytes(_MAGIC + zlib.compress(trace.to_bytes(), 6))
        os.replace(tmp, path)
        self.stores += 1
        return path
