"""Worker-process lease pool — the mechanics under every unit lease.

One :class:`LeasePool` owns a fixed number of worker slots and the
process lifecycle of every lease running in them: spawn a
:func:`~repro.sched.worker.unit_entry` process with its payload, poll
the result pipe, detect worker death, and enforce the per-lease
wall-clock deadline.  It makes no policy decisions — journaling,
retries, backoff and quarantine belong to
:class:`~repro.sched.study.StudyRun`, which both of its callers use:

* :class:`~repro.sched.scheduler.Scheduler` drives one study's plan
  through a pool;
* :class:`repro.svc.fleet.WorkerFleet` multiplexes units from many
  concurrent studies onto one shared pool (the campaign-as-a-service
  write side).

A lease carries an opaque ``meta`` slot so a completion finds its
owner: the ``StudyRun`` that launched it, a remote agent's wire lease,
or an audit ticket.
"""

from __future__ import annotations

import multiprocessing as mp
import time

from repro.sched.worker import unit_entry

#: Completion kinds yielded by :meth:`LeasePool.poll`.
RESULT = "result"          # worker sent a result dict (ok True or False)
CRASHED = "crashed"        # worker died without sending anything
TIMEOUT = "timeout"        # lease exceeded its wall-clock deadline


class Lease:
    """One unit running in one worker process."""

    __slots__ = ("unit", "attempt", "proc", "conn", "started",
                 "deadline_s", "meta")

    def __init__(self, unit, attempt, proc, conn, started,
                 deadline_s=None, meta=None):
        self.unit = unit
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.started = started
        self.deadline_s = deadline_s
        self.meta = meta

    def age_s(self, now: float | None = None) -> float:
        return (time.monotonic() if now is None else now) - self.started


class LeasePool:
    """Launches and polls unit worker processes, up to *workers* at once."""

    def __init__(self, workers: int = 2):
        # 0 is legal: a service can run with no local slots at all and
        # let remote agents (repro.svc.remote) do every unit.
        self.workers = max(workers, 0)
        self._ctx = mp.get_context(
            "spawn" if mp.get_start_method(True) == "spawn" else "fork")
        self.running: list[Lease] = []

    @property
    def free_slots(self) -> int:
        return self.workers - len(self.running)

    def launch(self, unit, spec, *, logs_path, masks_path, attempt: int = 1,
               golden_blob: bytes | None = None, fsync: bool = True,
               want_blob: bool = False, deadline_s: float | None = None,
               meta=None) -> Lease:
        """Start one unit worker; the lease joins :attr:`running`."""
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=unit_entry,
            args=(send, {
                "unit": unit.to_dict(),
                "spec": spec.to_dict(),
                "logs_path": str(logs_path),
                "masks_path": str(masks_path),
                "attempt": attempt,
                "golden_blob": golden_blob,
                "fsync": fsync,
                "want_blob": want_blob,
            }),
            daemon=True)
        proc.start()
        send.close()
        lease = Lease(unit, attempt, proc, recv, time.monotonic(),
                      deadline_s=deadline_s, meta=meta)
        self.running.append(lease)
        return lease

    def poll(self) -> list[tuple[Lease, str, object]]:
        """Leases that finished since the last poll, removed from the pool.

        Each entry is ``(lease, kind, payload)``: ``RESULT`` carries the
        worker's result dict (which may still say ``ok: False``),
        ``CRASHED`` and ``TIMEOUT`` carry a human-readable detail
        string.  Checked in that order, so a worker that produced a
        result just before its deadline is never misreported.
        """
        finished = []
        for lease in list(self.running):
            res = None
            if lease.conn.poll():
                try:
                    res = lease.conn.recv()
                except EOFError:
                    res = None
            if res is not None:
                lease.proc.join()
                self.running.remove(lease)
                finished.append((lease, RESULT, res))
            elif not lease.proc.is_alive():
                self.running.remove(lease)
                finished.append((lease, CRASHED,
                                 f"worker exited with code "
                                 f"{lease.proc.exitcode}"))
            elif (lease.deadline_s is not None and
                  lease.age_s() > lease.deadline_s):
                self.terminate(lease)
                finished.append((lease, TIMEOUT,
                                 f"unit exceeded {lease.deadline_s}s "
                                 f"wall clock"))
        return finished

    def terminate(self, lease: Lease) -> None:
        """Kill one lease's worker and drop it from the pool."""
        lease.proc.terminate()
        lease.proc.join(timeout=5)
        if lease in self.running:
            self.running.remove(lease)

    def terminate_all(self) -> list[Lease]:
        """Kill every running lease; returns what was terminated."""
        leases = list(self.running)
        for lease in leases:
            self.terminate(lease)
        return leases


__all__ = ["Lease", "LeasePool", "RESULT", "CRASHED", "TIMEOUT"]
