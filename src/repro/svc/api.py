"""HTTP front end for the campaign service (stdlib asyncio only).

``python -m repro.tools svc serve --root DIR`` exposes one
:class:`~repro.svc.service.CampaignService` over HTTP:

* ``POST /studies`` — submit a study: a JSON body holding the
  :class:`~repro.sched.plan.StudySpec` fields (or ``{"tenant": ...,
  "spec": {...}}``, the tenant a label kept in the ledger).  Strictly
  validated at the boundary — unknown fields, bare-string axes and
  unresolvable grid names are a ``400`` whose body says exactly what
  to fix.  Success is ``202`` with the study id.
* ``GET /studies`` — every study's lifecycle row.
* ``GET /studies/{id}/status`` — live tally, injections, totals.
* ``GET /studies/{id}/events`` — NDJSON stream of the study's unit
  transitions (``?since=SEQ`` replays from an offset), closed by a
  deterministic ``study_complete`` line once the study is terminal —
  the same read-to-EOF protocol as ``obs serve``.
* ``GET /studies/{id}/report`` — the plain-text study report.
* ``POST /studies/{id}/cancel`` — cancel (``409`` if already terminal).
* ``GET /status`` — service-level snapshot: study tally, queued
  units, fleet occupancy, golden-cache hit rate.

Remote-fleet endpoints (the :mod:`repro.svc.remote` agent protocol):

* ``POST /fleet/register`` — ``{"worker": name}``; answers the lease
  contract (epoch, heartbeat cadence).  Idempotent.
* ``POST /fleet/lease`` — long poll: an NDJSON stream of
  ``{"keepalive": true}`` lines until a unit is dispatched
  (``{"lease": {...}}``) or the wait expires (``{"lease": null}``).
* ``POST /fleet/heartbeat`` — ``{"worker": name, "fences": [...]}``;
  answers the fences the worker must kill.  ``409 unregistered`` tells
  a forgotten worker (server restart, miss-budget eviction) to
  re-register.
* ``POST /fleet/complete`` — settle a lease by fence; a revoked fence
  is ``409 stale-fence``, a retried settle is a detected duplicate,
  and a body failing semantic ingest validation (record counts, mask
  stream, classifications, golden observables — see
  :mod:`repro.svc.attest`), or a result the study cannot settle
  (``malformed-result``), is ``422`` with a machine-readable code.
* ``POST /fleet/challenge`` — prove the registration determinism
  challenge; failure is ``403 distrusted``.  A registered worker that
  has not proven its challenge gets ``403 challenge-pending`` on
  ``/fleet/lease``.
* ``GET /blobs/{digest}`` — raw compressed golden payloads,
  content-addressed.

When ``--token`` (or ``SVC_TOKEN``) arms authentication, every
endpoint requires ``Authorization: Bearer <token>`` and answers ``401``
with a machine-readable body otherwise.

The whole service runs on one asyncio loop: HTTP handlers and the
scheduling tick (``CampaignService.tick`` every ``TICK_S``, the
server's background task) interleave cooperatively, so no state needs
locking.  Unit work happens in fleet worker *processes*, so a tick
never blocks the loop for long.  :class:`ServiceServer` is a route
table on :class:`~repro.obs.http.HttpServer`, the loop, request
parsing and ``/events`` stream it shares with ``obs serve``.
``REPRO_SVC_CHAOS`` (see :mod:`repro.svc.chaos`) arms the server-side
``disconnect`` fault on fleet endpoints: the request is processed,
then the response is discarded — the at-most-once crucible the fences
exist for.
"""

from __future__ import annotations

import asyncio
import hmac
import json

from repro.obs.http import KEEPALIVE_S, HttpServer, http_head, json_response
from repro.obs.live import StudyView
from repro.sched.study import EVENTS_NAME
from repro.svc.attest import (ChallengePending, RejectedComplete,
                              WorkerDistrusted)
from repro.svc.chaos import TransportChaos
from repro.svc.fleet import StaleFence, UnknownWorker
from repro.svc.service import CampaignService

#: How often the embedded scheduling loop runs one service tick.
TICK_S = 0.05

#: Largest accepted request body (a complete ships compressed unit
#: files and possibly a golden blob; specs are tiny).
MAX_BODY = 64 << 20

#: Default / maximum lease long-poll wait.
LEASE_WAIT_S = 20.0
LEASE_WAIT_MAX_S = 120.0


def _unregistered(name) -> bytes:
    return json_response("409 Conflict", {"error": f"unknown worker: {name}",
                                          "reason": "unregistered"})


class ServiceServer(HttpServer):
    """Serves one :class:`CampaignService` over HTTP."""

    methods = ("GET", "HEAD", "POST")
    max_body = MAX_BODY

    def __init__(self, service: CampaignService, host: str = "127.0.0.1",
                 port: int = 8437, token: str | None = None,
                 keepalive_s: float = KEEPALIVE_S):
        super().__init__(host, port, keepalive_s)
        self.service = service
        self.token = token
        self.chaos = TransportChaos.from_env()

    async def background(self) -> None:
        while True:
            self.service.tick()
            await asyncio.sleep(TICK_S)

    async def route(self, writer, request) -> None:
        method, path, headers, body = (request.method, request.path,
                                       request.headers, request.body)
        svc = self.service
        if self.token is not None:
            supplied = headers.get("authorization", "")
            if not hmac.compare_digest(supplied, f"Bearer {self.token}"):
                writer.write(json_response(
                    "401 Unauthorized",
                    {"error": "missing or bad bearer token",
                     "reason": "unauthorized"}))
                return
        if path.startswith("/fleet/") and method == "POST":
            await self._route_fleet(writer, path, body)
            return
        if path.startswith("/blobs/") and method in ("GET", "HEAD"):
            digest = path[len("/blobs/"):]
            blob = svc.fleet.cache.blob_by_digest(digest)
            if blob is None:
                writer.write(json_response(
                    "404 Not Found", {"error": f"no blob {digest}"}))
                return
            writer.write(http_head("200 OK", "application/octet-stream",
                                   len(blob)))
            if method == "GET":
                writer.write(blob)
            return
        if path == "/studies" and method == "POST":
            self._submit(writer, body)
            return
        if path == "/studies" and method in ("GET", "HEAD"):
            writer.write(json_response(
                "200 OK", {"studies": svc.studies()}))
            return
        if path == "/status" and method in ("GET", "HEAD"):
            writer.write(json_response("200 OK", svc.status()))
            return
        segs = [s for s in path.split("/") if s]
        if len(segs) == 3 and segs[0] == "studies":
            study_id, action = segs[1], segs[2]
            try:
                svc.study_status(study_id)
            except KeyError:
                writer.write(json_response(
                    "404 Not Found",
                    {"error": f"no such study: {study_id}"}))
                return
            if action == "status" and method in ("GET", "HEAD"):
                writer.write(json_response(
                    "200 OK", svc.study_status(study_id)))
                return
            if action == "events" and method in ("GET", "HEAD"):
                await self._serve_events(writer, study_id, request.query)
                return
            if action == "report" and method in ("GET", "HEAD"):
                from repro.obs.summarize import summarize_file
                text = summarize_file(
                    svc.study_dir(study_id) / EVENTS_NAME)
                data = text.encode()
                writer.write(http_head("200 OK",
                                       "text/plain; charset=utf-8",
                                       len(data)))
                writer.write(data)
                return
            if action == "cancel" and method == "POST":
                try:
                    writer.write(json_response(
                        "200 OK", svc.cancel(study_id)))
                except ValueError as exc:
                    writer.write(json_response(
                        "409 Conflict", {"error": str(exc)}))
                return
        writer.write(json_response(
            "404 Not Found", {"error": "not found"}))

    def _submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            writer.write(json_response(
                "400 Bad Request", {"error": f"body is not JSON: {exc}"}))
            return
        tenant, spec = "default", payload
        if isinstance(payload, dict) and "spec" in payload:
            spec = payload["spec"]
            tenant = payload.get("tenant", tenant)
        if not isinstance(tenant, str) or not tenant:
            writer.write(json_response(
                "400 Bad Request",
                {"error": f"tenant must be a non-empty string, "
                          f"got {tenant!r}"}))
            return
        try:
            study_id = self.service.submit(spec, tenant=tenant)
        except ValueError as exc:
            writer.write(json_response(
                "400 Bad Request", {"error": str(exc)}))
            return
        writer.write(json_response("202 Accepted", {
            "id": study_id,
            "tenant": tenant,
            "status_url": f"/studies/{study_id}/status",
            "events_url": f"/studies/{study_id}/events",
        }))

    # -- remote-fleet endpoints --------------------------------------------

    async def _route_fleet(self, writer, path: str, body: bytes) -> None:
        """The agent protocol: register / lease / heartbeat / complete."""
        svc = self.service
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            writer.write(json_response(
                "400 Bad Request", {"error": f"body is not JSON: {exc}"}))
            return
        if not isinstance(payload, dict):
            writer.write(json_response(
                "400 Bad Request", {"error": "body must be a JSON object"}))
            return
        if path == "/fleet/lease":
            await self._serve_lease(writer, payload)
            return
        name = payload.get("worker")
        if path != "/fleet/complete" and (not isinstance(name, str)
                                          or not name):
            writer.write(json_response(
                "400 Bad Request",
                {"error": f"worker must be a non-empty string, "
                          f"got {name!r}"}))
            return
        if path == "/fleet/register":
            try:
                response = json_response(
                    "200 OK", svc.register_worker(name,
                                                  payload.get("meta")))
            except WorkerDistrusted as exc:
                response = json_response(
                    "403 Forbidden",
                    {"error": str(exc), "reason": "distrusted"})
        elif path == "/fleet/challenge":
            try:
                response = json_response(
                    "200 OK", svc.worker_challenge(name, payload))
            except WorkerDistrusted as exc:
                response = json_response(
                    "403 Forbidden",
                    {"error": str(exc), "reason": "distrusted",
                     "admitted": False})
            except UnknownWorker:
                response = _unregistered(name)
        elif path == "/fleet/heartbeat":
            try:
                response = json_response(
                    "200 OK",
                    svc.worker_heartbeat(name, payload.get("fences")))
            except UnknownWorker:
                response = _unregistered(name)
        elif path == "/fleet/complete":
            try:
                response = json_response("200 OK",
                                         svc.complete_remote(payload))
            except StaleFence as exc:
                response = json_response(
                    "409 Conflict",
                    {"error": str(exc), "reason": "stale-fence"})
            except RejectedComplete as exc:
                # Semantic ingest validation failed: machine-readable
                # code, and the lease is already settled as a failure
                # (the unit retries on an honest worker).
                response = json_response(
                    "422 Unprocessable Entity",
                    {"error": str(exc), "reason": exc.code,
                     "rejected": True, "unit": exc.unit,
                     "worker": exc.worker})
        else:
            response = json_response("404 Not Found", {"error": "not found"})
        # Server-side chaos: the work above already happened; dropping
        # the response here forces the client through its retry path
        # against an effect that already landed.
        if self.chaos.drop_response():
            return
        writer.write(response)

    async def _serve_lease(self, writer, payload: dict) -> None:
        """Long-poll one lease as an NDJSON keepalive stream."""
        svc = self.service
        name = payload.get("worker")
        try:
            wait_s = min(float(payload.get("wait_s", LEASE_WAIT_S)),
                         LEASE_WAIT_MAX_S)
        except (TypeError, ValueError):
            wait_s = LEASE_WAIT_S
        if name not in svc.fleet.remote_workers:
            writer.write(_unregistered(name))
            return
        if svc.attestor is not None:
            try:
                svc.attestor.admit_gate(name)
            except ChallengePending as exc:
                writer.write(json_response(
                    "403 Forbidden",
                    {"error": str(exc), "reason": "challenge-pending"}))
                return
            except WorkerDistrusted as exc:
                writer.write(json_response(
                    "403 Forbidden",
                    {"error": str(exc), "reason": "distrusted"}))
                return
        writer.write(http_head("200 OK", "application/x-ndjson"))
        loop = asyncio.get_event_loop()
        deadline = loop.time() + wait_s
        last_line = loop.time()
        while True:
            worker = svc.fleet.remote_workers.get(name)
            if worker is None:       # evicted mid-poll
                writer.write(b'{"error": "unregistered"}\n')
                await writer.drain()
                return
            # A waiting poll is proof of life as good as a heartbeat.
            worker.last_seen = loop.time()
            try:
                lease = svc.lease_remote(name)
            except (ChallengePending, WorkerDistrusted):
                # Distrusted mid-poll: end the stream like an eviction.
                writer.write(b'{"error": "unregistered"}\n')
                await writer.drain()
                return
            if lease is not None:
                writer.write(
                    (json.dumps({"lease": lease}) + "\n").encode())
                await writer.drain()
                return
            now = loop.time()
            if now >= deadline:
                writer.write(b'{"lease": null}\n')
                await writer.drain()
                return
            if now - last_line >= self.keepalive_s:
                writer.write(b'{"keepalive": true}\n')
                last_line = now
            await writer.drain()
            await asyncio.sleep(TICK_S)

    async def _serve_events(self, writer, study_id: str,
                            query: dict) -> None:
        """The study's unit transitions, obs-serve protocol."""
        rec = self.service.state.studies[study_id]
        # Terminality is the *service's* call, not the journal's: a
        # fully-done tally can still be reopened (an audit voiding a
        # distrusted worker's unit), and a finish is deferred while
        # audits are pending — so only the lifecycle row closes the
        # stream.
        await self.stream_transitions(
            writer, StudyView(self.service.study_dir(study_id)), query,
            lambda: {"state": rec.state} if rec.terminal else None)


__all__ = ["ServiceServer", "TICK_S", "LEASE_WAIT_S", "MAX_BODY"]
