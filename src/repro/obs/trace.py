"""Event tracing: typed, timestamped campaign events to pluggable sinks.

The campaign stack (dispatcher, campaign controller, parallel runner)
emits a small vocabulary of events — ``golden_start``/``golden_end``,
``checkpoint_taken``/``checkpoint_restored``, ``inject_start``/
``inject_end``, ``early_stop``, ``classify``, ``campaign_start``/
``campaign_end`` — through a :class:`Tracer`.  Where they go is the
sink's business: a bounded in-memory ring buffer for tests and live
introspection, a JSONL file for offline analysis (``repro.tools obs
summarize``), or the null sink, which is the default.  A campaign
also tees its stream into a :class:`MetricsSink`, its metrics' source.

Tracing never feeds back into simulation: events carry wall-clock
observations only, so enabling any sink cannot change campaign results
(the parallel==serial bit-identity tests run instrumented).
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.ioutil import JSONLWriter
from repro.obs.metrics import fold_event
from repro.obs.summarize import load_events as load_event_dicts

#: The documented event vocabulary.  The campaign's come first, in the
#: order a serial campaign with a single classify() call emits them
#: (checkpoint/inject events repeat), wrapped in the scheduler's unit
#: lifecycle (repro.sched); then the service's and its fleet's.
EVENT_NAMES = (
    "study_start", "heartbeat", "unit_leased",
    "golden_start", "checkpoint_taken", "golden_end", "golden_adopted",
    "trace_recorded", "trace_cache_hit",
    "maskgen_start", "maskgen_end", "prune_plan", "campaign_start",
    "inject_start", "checkpoint_restored", "cold_start",
    "guard.contamination", "early_stop", "inject_end", "pruned",
    "prune_audit", "campaign_end", "classify",
    "unit_done", "unit_failed", "unit_quarantined", "study_end",
    "study_submitted", "study_running", "study_resumed", "study_done",
    "study_cancelled", "study_reopened", "study_gc", "svc_heartbeat",
    "blobs_evicted", "worker_registered", "worker_lost",
    "worker_distrusted", "lease_revoked", "fence_rejected",
    "attest_rejected", "challenge_passed", "challenge_failed",
    "audit_started", "audit_ok", "audit_divergence", "audit_inconclusive",
    "audit_void",
)


@dataclass(frozen=True)
class TraceEvent:
    """One telemetry event: a name, a wall-clock stamp, typed fields."""

    name: str
    ts: float                       # seconds since the epoch (time.time)
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "ts": self.ts, **self.fields}

    @staticmethod
    def from_dict(d: dict) -> "TraceEvent":
        d = dict(d)
        name = d.pop("name")
        ts = d.pop("ts", 0.0)
        return TraceEvent(name=name, ts=ts, fields=d)


class NullSink:
    """Discards everything; the zero-cost default."""

    def write(self, event: TraceEvent) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the last *capacity* events in memory."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._buf: deque = deque(maxlen=capacity)

    def write(self, event: TraceEvent) -> None:
        self._buf.append(event)

    def close(self) -> None:
        pass

    @property
    def events(self) -> list:
        return list(self._buf)

    def names(self) -> list:
        return [e.name for e in self._buf]

    def __len__(self) -> int:
        return len(self._buf)


class JSONLSink(JSONLWriter):
    """Appends one JSON object per event to *path*.

    The file format is the input of ``repro.tools obs summarize``; see
    docs/observability.md for the schema.  Opening truncates a torn
    tail; events are buffered, with no flush per event.
    """

    def __init__(self, path):
        super().__init__(path)
        self.open()

    def write(self, event: TraceEvent) -> None:
        if self.closed:                # late emits (e.g. classify() after
            return                     # the campaign closed the file)
        self._fh.write(json.dumps(event.to_dict()) + "\n")


class TeeSink:
    """Fans every event out to several sinks."""

    def __init__(self, *sinks):
        self.sinks = tuple(sinks)

    def write(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class MetricsSink:
    """Folds every event into a metrics registry, via :func:`fold_event`."""

    def __init__(self, metrics):
        self.metrics = metrics

    def write(self, event: TraceEvent) -> None:
        fold_event(self.metrics, event.name, event.fields)

    def close(self) -> None:
        pass


class Tracer:
    """Front-end the instrumented code talks to.

    ``emit`` is a no-op when the sink is null — instrumentation sites in
    per-cycle loops additionally guard on :attr:`enabled` so disabled
    tracing costs one attribute read.
    """

    def __init__(self, sink=None):
        self.sink = sink if sink is not None else NullSink()
        self.enabled = not isinstance(self.sink, NullSink)

    def emit(self, name: str, **fields) -> None:
        if not self.enabled:
            return
        self.sink.write(TraceEvent(name=name, ts=time.time(),
                                   fields=fields))

    def close(self) -> None:
        self.sink.close()


#: Shared do-nothing tracer; instrumented modules default to this.
NULL_TRACER = Tracer()


def load_events(path) -> list:
    """Read a JSONL events file back into :class:`TraceEvent` objects,
    by the rule of :func:`repro.obs.summarize.load_events`."""
    return [TraceEvent.from_dict(row) for row in load_event_dicts(path)]
