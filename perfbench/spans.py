"""Span recorder: the benchmark's tracing, done from outside ``src/``.

A span is one call into a layer: a name, a start, an end and the span
that caused it.  :func:`install` wraps the layer entry points listed in
:data:`TARGETS` (class methods and module-level names, replaced on the
class or module so every instance and every forked worker process sees
them) and :func:`uninstall` puts the originals back.  Spans stay in
memory and each process writes them out once, with :meth:`Recorder.dump`.

Hot layers -- the four pipeline stages run once per simulated cycle,
the logs append once per record, the lease poll every 10 ms -- are only
aggregated (calls, total time, self time): one span object per stage
call would cost more memory than the simulator.  Coarse layers also
keep every span.  Self time is a span's duration minus the time its
child spans cover.

Study workloads run their units in forked worker processes.  Those
inherit the wrappers; the ``run_unit`` wrapper clears what the child
inherited from its parent and dumps the child's own spans to
``<out_dir>/unit-<pid>.json`` when the unit returns.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path

# (module, class or None for a module-level name, attribute, span name,
#  keep every span).  One span name may cover several entry points.
TARGETS = (
    ("repro.sim.base", "OoOCore", "_fetch_cycle", "sim.step.fetch", False),
    ("repro.sim.base", "OoOCore", "_issue_cycle", "sim.step.issue", False),
    ("repro.sim.base", "OoOCore", "_writeback_cycle", "sim.step.writeback",
     False),
    ("repro.sim.base", "OoOCore", "_commit_cycle", "sim.step.commit", False),
    ("repro.sim.base", "OoOCore", "restore", "sim.restore", True),
    ("repro.sim.base", "OoOCore", "snapshot", "sim.snapshot", True),
    ("repro.core.dispatcher", "InjectorDispatcher", "inject",
     "core.dispatcher.inject", True),
    ("repro.core.dispatcher", "InjectorDispatcher", "run_golden",
     "core.dispatcher.run_golden", True),
    ("repro.core.repository", "LogsRepository", "add",
     "core.repository.logs_add", False),
    ("repro.core.campaign", None, "classify_all", "core.parser.classify",
     True),
    ("repro.sched.worker", None, "classify_all", "core.parser.classify",
     True),
    ("repro.core.campaign", "InjectionCampaign", "prepare",
     "core.campaign.prepare", True),
    ("repro.core.campaign", "InjectionCampaign", "run", "core.campaign.run",
     True),
    ("repro.core.dispatcher", None, "check_invariants", "guard.invariants",
     False),
    ("repro.sched.pool", "LeasePool", "launch", "sched.pool.launch", True),
    ("repro.sched.pool", "LeasePool", "poll", "sched.pool.poll", False),
    ("repro.sched.journal", "Journal", "_append", "sched.journal.append",
     True),
    ("repro.sched.worker", None, "run_unit", "sched.worker.run_unit", True),
)


class Recorder:
    """In-memory spans of one process."""

    def __init__(self):
        self.pid = os.getpid()
        # Open spans, innermost last: [child_s] for hot layers,
        # [child_s, span_id] for coarse ones.
        self.stack: list[list] = []
        self.totals: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []    # (id, parent_id, name, start, end)
        self._ids = iter(range(1, 1 << 62))
        self._saved: list[tuple] = []   # (owner, attribute, original)

    def reset(self) -> None:
        """Forget everything recorded so far, keeping the wrappers."""
        self.pid = os.getpid()
        self.stack.clear()
        self.spans.clear()
        for tot in self.totals.values():
            tot[:] = [0, 0.0, 0.0]

    def wrap(self, fn, name: str, keep: bool):
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids = self.stack, self.spans, self._ids
        clock = time.perf_counter

        if not keep:
            def hot(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    tot[0] += 1
                    tot[1] += dt
                    tot[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
            return hot

        def coarse(*args, **kwargs):
            parent = next((f[1] for f in reversed(stack) if len(f) > 1),
                          None)
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                spans.append((frame[1], parent, name, t0, t1))
        return coarse

    def to_dict(self) -> dict:
        return {"pid": os.getpid(), "totals": self.totals,
                "spans": self.spans}

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))


def install(out_dir=None) -> Recorder:
    """Wrap every target; returns the process's recorder.

    With *out_dir*, forked unit workers dump their spans there.
    """
    rec = Recorder()
    for module_name, cls, attr, name, keep in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls) if cls else module
        original = owner.__dict__[attr] if cls else getattr(owner, attr)
        wrapped = rec.wrap(original, name, keep)
        if attr == "run_unit" and out_dir is not None:
            wrapped = _dumping(rec, wrapped, Path(out_dir))
        rec._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    return rec


def uninstall(rec: Recorder) -> None:
    for owner, attr, original in reversed(rec._saved):
        setattr(owner, attr, original)
    rec._saved.clear()


def _dumping(rec: Recorder, fn, out_dir: Path):
    """``run_unit`` in a forked worker: record only the child's spans."""
    def run_unit(*args, **kwargs):
        if os.getpid() == rec.pid:       # in-process call: keep going
            return fn(*args, **kwargs)
        rec.reset()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.dump(out_dir / f"unit-{os.getpid()}.json")
    return run_unit


def merge(totals) -> dict:
    """Sum several ``Recorder.totals``: name -> [calls, total_s, self_s]."""
    out: dict[str, list] = {}
    for one in totals:
        for name, (calls, total, self_s) in one.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    return out


def load_dir(path) -> list[dict]:
    return [json.loads(p.read_text())
            for p in sorted(Path(path).glob("*.json"))]
