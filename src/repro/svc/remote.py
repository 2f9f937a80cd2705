"""Remote worker agent — scale the campaign service across machines.

``python -m repro.tools svc worker --connect URL`` runs one
:class:`WorkerAgent`: it registers with a campaign service, long-polls
``POST /fleet/lease`` for units, executes them with the *same*
:class:`~repro.sched.pool.LeasePool` machinery a local fleet uses, and
reports results through ``POST /fleet/complete``.  To the service a
remote unit is indistinguishable from a local one — same journal rows,
same retry/quarantine policy, and (because the agent ships its unit
files verbatim) byte-identical study records.

The network is assumed hostile (and the CI chaos harness makes it so):

* every call retries on transport errors with exponential backoff and
  full jitter — the service being down is a delay, never a failure;
* completes are identified by the lease's *fence*; a retried complete
  whose first attempt landed is a server-side duplicate (no-op), and a
  fence revoked while we worked gets ``409 stale-fence`` — the agent
  discards the result, because the unit was already re-leased
  elsewhere;
* heartbeats report the fences the agent holds; the reply lists fences
  the *server* revoked, whose local processes the agent kills;
* ``409 unregistered`` (server restarted or evicted us) makes the
  agent kill everything it is running — those fences died with the old
  epoch — and re-register from scratch;
* golden blobs are fetched by sha256 digest from ``GET /blobs/…`` and
  cached on local disk; the digest is self-verifying, so a cache hit
  costs nothing and a corrupt file is re-fetched, not trusted.

The agent is deliberately single-threaded: one loop polls the local
pool, heartbeats on the server's cadence, and long-polls for work when
slots are free (using a short wait while units are running so their
completions are not delayed).  Keepalive lines on the lease stream are
its liveness signal — a stream silent past the keepalive budget times
out and retries.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import socket
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.sched.plan import StudySpec, WorkUnit
from repro.sched.pool import CRASHED, LeasePool, RESULT
from repro.svc.chaos import ChaosDrop, TransportChaos
from repro.svc.fleet import pack_blob, pack_text

#: Exponential-backoff envelope for every HTTP call.
BACKOFF_BASE_S = 0.25
BACKOFF_MAX_S = 5.0

#: Lease long-poll wait while the agent is otherwise idle; with units
#: running it polls with a short wait instead so completions report
#: promptly.
IDLE_WAIT_S = 20.0
BUSY_WAIT_S = 0.5


class AgentStopped(Exception):
    """Raised out of a retry loop when :meth:`WorkerAgent.stop` fired."""


class WorkerAgent:
    """One remote worker: lease, execute, complete — despite the network."""

    def __init__(self, url: str, *, name: str | None = None,
                 token: str | None = None, workers: int = 2,
                 cache_dir=None, scratch_dir=None, fsync: bool = True,
                 chaos: TransportChaos | None = None,
                 backoff_base_s: float = BACKOFF_BASE_S,
                 backoff_max_s: float = BACKOFF_MAX_S,
                 idle_wait_s: float = IDLE_WAIT_S):
        self.url = url.rstrip("/")
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.token = token
        self.fsync = fsync
        self.pool = LeasePool(max(workers, 1))
        base = Path(scratch_dir) if scratch_dir is not None \
            else Path(f".repro-worker-{self.name}")
        self.scratch_dir = base / "scratch"
        self.cache_dir = (Path(cache_dir) if cache_dir is not None
                          else base / "blob-cache")
        self.chaos = chaos if chaos is not None else TransportChaos.from_env()
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.idle_wait_s = idle_wait_s
        self._rng = random.Random()
        self._stopping = False
        self._poll = None            # the lease long-poll in flight
        # Contract learned at registration.
        self.heartbeat_s = 5.0
        self.epoch: int | None = None
        self._last_beat = 0.0
        # Stats (CLI summary + tests).
        self.completed = 0
        self.discarded = 0           # stale-fence / revoked results
        self.registrations = 0

    # -- lifecycle ----------------------------------------------------------

    def run(self) -> None:
        """Blocking agent loop until :meth:`stop` (the CLI entry point)."""
        self.register()
        try:
            while not self._stopping:
                self.step()
        except AgentStopped:
            pass
        finally:
            self.pool.terminate_all()

    def stop(self) -> None:
        """Thread/signal-safe: end a lease long-poll in flight at once,
        finish any other call, then exit."""
        self._stopping = True
        try:            # the poll's blocked read then sees end of stream
            with socket.fromfd(self._poll.fileno(), socket.AF_INET,
                               socket.SOCK_STREAM) as sock:
                sock.shutdown(socket.SHUT_RDWR)
        except (AttributeError, OSError, ValueError):
            pass                       # no poll in flight

    def step(self) -> None:
        """One agent round: report, heartbeat, then ask for work."""
        for lease, kind, payload in self.pool.poll():
            self._report(lease, kind, payload)
        if time.monotonic() - self._last_beat >= self.heartbeat_s:
            self.heartbeat()
        if self.pool.free_slots > 0:
            wire = self._lease(BUSY_WAIT_S if self.pool.running
                               else self.idle_wait_s)
            if wire is not None:
                self._launch(wire)
        elif self.pool.running:
            time.sleep(0.02)

    # -- protocol -----------------------------------------------------------

    def register(self) -> None:
        """(Re-)register; adopts the server's lease contract."""
        status, payload = self._call("/fleet/register", {
            "worker": self.name,
            "meta": {"pid": os.getpid(), "host": socket.gethostname(),
                     "slots": self.pool.workers}})
        if status != 200:
            raise RuntimeError(f"registration rejected ({status}): "
                               f"{payload.get('error', payload)}")
        self.heartbeat_s = float(payload.get("heartbeat_s",
                                             self.heartbeat_s))
        self.epoch = payload.get("epoch")
        self._last_beat = time.monotonic()
        self.registrations += 1
        if payload.get("challenge"):
            self._prove_challenge(payload["challenge"])

    def _prove_challenge(self, wire: dict) -> None:
        """Execute the server's determinism challenge and send the proof.

        The agent runs the unit the *server* sent (not a local
        constant), so a version-skewed host fails the byte comparison
        instead of silently executing a different plan.
        """
        from repro.svc.attest import execute_challenge

        proof = execute_challenge(wire, self.scratch_dir / "challenge")
        status, payload = self._call("/fleet/challenge", {
            "worker": self.name,
            "logs": pack_text(proof["logs"]),
            "masks": pack_text(proof["masks"]),
            "state_digest": proof["state_digest"]})
        if status != 200 or not payload.get("admitted"):
            raise RuntimeError(
                f"determinism challenge rejected ({status}): "
                f"{payload.get('error', payload)}")

    def heartbeat(self) -> None:
        self._last_beat = time.monotonic()
        status, payload = self._call("/fleet/heartbeat", {
            "worker": self.name,
            "fences": [lease.meta["fence"] for lease in self.pool.running]})
        if status == 409:
            self._reset_and_register()
            return
        for fence in payload.get("revoked", ()):
            for lease in list(self.pool.running):
                if lease.meta["fence"] == fence:
                    self.pool.terminate(lease)
                    self.discarded += 1

    def _lease(self, wait_s: float) -> dict | None:
        """One long-poll for work; None on timeout/failure (retry later)."""
        try:
            row = self._stream("/fleet/lease",
                               {"worker": self.name, "wait_s": wait_s},
                               read_timeout_s=wait_s + 3 * self.heartbeat_s)
        except AgentStopped:
            raise
        except OSError:
            return None                # transport trouble; next step retries
        if row is None:
            return None
        if row.get("reason") == "unregistered" \
                or row.get("error") == "unregistered":
            self._reset_and_register()
            return None
        return row.get("lease")

    def _launch(self, wire: dict) -> None:
        unit = WorkUnit.from_dict(wire["unit"])
        spec = StudySpec.from_dict(wire["spec"])
        study_dir = self.scratch_dir / wire["study"]
        logs = study_dir / "logs" / f"{unit.file_id}.jsonl"
        masks = study_dir / "masks" / f"{unit.file_id}.jsonl"
        # A fresh attempt starts from clean files so the shipped text
        # is byte-identical to a unit that ran locally on the server.
        for path in (logs, masks):
            if path.exists():
                path.unlink()
        blob = self._fetch_blob(wire.get("golden_digest"))
        wire = dict(wire)
        wire["want_blob"] = bool(wire.get("want_blob")) or (
            wire.get("golden_digest") is not None and blob is None)
        self.pool.launch(unit, spec, logs_path=logs, masks_path=masks,
                         attempt=wire.get("attempt", 1), golden_blob=blob,
                         fsync=self.fsync, want_blob=wire["want_blob"],
                         deadline_s=wire.get("deadline_s"), meta=wire)

    def _report(self, lease, kind: str, payload) -> None:
        wire = lease.meta
        body = {"fence": wire["fence"], "worker": self.name}
        if kind == RESULT:
            res = dict(payload)
            blob = res.pop("golden_blob", None)
            body["result"] = res
            if res.get("ok"):
                body["logs"] = pack_text(
                    Path(wire_logs_path(self.scratch_dir, wire)).read_text())
                body["masks"] = pack_text(
                    Path(wire_masks_path(self.scratch_dir,
                                         wire)).read_text())
                if blob is not None and wire.get("want_blob"):
                    body["golden_blob"] = pack_blob(blob)
        else:
            body["reason"] = "crashed" if kind == CRASHED else "timeout"
            body["detail"] = str(payload)
        status, response = self._call("/fleet/complete", body)
        if status == 200 and response.get("accepted"):
            self.completed += 1
        elif status == 409:
            self.discarded += 1        # revoked while we worked
        else:
            self.discarded += 1

    def _reset_and_register(self) -> None:
        """The server forgot us: our fences are dead, so is our work."""
        killed = self.pool.terminate_all()
        self.discarded += len(killed)
        self.register()

    # -- golden blobs -------------------------------------------------------

    def _fetch_blob(self, digest: str | None) -> bytes | None:
        if digest is None:
            return None
        cached = self.cache_dir / f"{digest}.blob"
        if cached.exists():
            data = cached.read_bytes()
            if hashlib.sha256(data).hexdigest() == digest:
                return data
            cached.unlink()            # corrupt cache entry: re-fetch
        data = self._get_bytes(f"/blobs/{digest}")
        if data is None \
                or hashlib.sha256(data).hexdigest() != digest:
            return None                # 404/garbled: run golden locally
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = cached.with_suffix(".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, cached)
        return data

    # -- transport ----------------------------------------------------------

    def _call(self, path: str, body: dict) -> tuple[int, dict]:
        """POST with infinite transport retry (backoff + full jitter).

        Chaos hooks fire per attempt: a dropped request surfaces as a
        transport error (retried), a duplicated one is sent twice —
        which is exactly what a retry against a lost *response* looks
        like, so the server must tolerate it either way.
        """
        attempt = 0
        while True:
            if self._stopping:
                raise AgentStopped()
            try:
                self.chaos.before_request()
                sends = 2 if self.chaos.duplicate_request() else 1
                status = payload = None
                for _ in range(sends):
                    status, payload = self._post_once(path, body)
                return status, payload
            except ChaosDrop:
                pass
            except (OSError, urllib.error.URLError):
                pass
            self._sleep_backoff(attempt)
            attempt += 1

    def _post_once(self, path: str, body: dict) -> tuple[int, dict]:
        req = urllib.request.Request(
            self.url + path, data=json.dumps(body).encode(),
            headers=self._headers({"Content-Type": "application/json"}),
            method="POST")
        try:
            with urllib.request.urlopen(req, timeout=30.0) as resp:
                return resp.status, self._parse(resp.read())
        except urllib.error.HTTPError as exc:
            data = exc.read()
            if exc.code == 401:
                raise RuntimeError(
                    f"service rejected our token (401): "
                    f"{self._parse(data).get('error', '')}") from None
            return exc.code, self._parse(data)

    def _stream(self, path: str, body: dict,
                read_timeout_s: float) -> dict | None:
        """POST an NDJSON long-poll; returns the first non-keepalive row.

        Keepalives are consumed as liveness; a stream silent past
        *read_timeout_s* raises ``OSError`` (socket timeout) and the
        caller treats it as a failed poll; :meth:`stop` ends it (None).
        No duplication chaos here — duplicating a lease request would
        grant two leases on purpose.
        """
        if self._stopping:
            raise AgentStopped()
        self.chaos.before_request()
        req = urllib.request.Request(
            self.url + path, data=json.dumps(body).encode(),
            headers=self._headers({"Content-Type": "application/json"}),
            method="POST")
        try:
            with urllib.request.urlopen(req,
                                        timeout=read_timeout_s) as resp:
                self._poll = resp
                while not self._stopping:
                    raw = resp.readline()
                    if not raw:
                        break
                    row = self._parse(raw)
                    if not row.get("keepalive"):
                        return row
        except urllib.error.HTTPError as exc:
            data = exc.read()
            if exc.code == 401:
                raise RuntimeError(
                    f"service rejected our token (401): "
                    f"{self._parse(data).get('error', '')}") from None
            return self._parse(data)
        finally:
            self._poll = None
        return None

    def _get_bytes(self, path: str) -> bytes | None:
        """GET raw bytes with the same retry envelope; None on 404."""
        attempt = 0
        while True:
            if self._stopping:
                raise AgentStopped()
            try:
                self.chaos.before_request()
                req = urllib.request.Request(self.url + path,
                                             headers=self._headers({}))
                with urllib.request.urlopen(req, timeout=30.0) as resp:
                    return resp.read()
            except urllib.error.HTTPError as exc:
                exc.read()
                if exc.code == 404:
                    return None
            except ChaosDrop:
                pass
            except (OSError, urllib.error.URLError):
                pass
            self._sleep_backoff(attempt)
            attempt += 1

    def _headers(self, headers: dict) -> dict:
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    @staticmethod
    def _parse(data: bytes) -> dict:
        try:
            row = json.loads(data.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}
        return row if isinstance(row, dict) else {}

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(self.backoff_max_s,
                    self.backoff_base_s * (2 ** attempt))
        time.sleep(delay * self._rng.uniform(0.5, 1.0))


def wire_logs_path(scratch_dir: Path, wire: dict) -> Path:
    unit = WorkUnit.from_dict(wire["unit"])
    return Path(scratch_dir) / wire["study"] / "logs" \
        / f"{unit.file_id}.jsonl"


def wire_masks_path(scratch_dir: Path, wire: dict) -> Path:
    unit = WorkUnit.from_dict(wire["unit"])
    return Path(scratch_dir) / wire["study"] / "masks" \
        / f"{unit.file_id}.jsonl"


__all__ = ["WorkerAgent", "AgentStopped", "IDLE_WAIT_S"]
