"""The HTTP plumbing under ``obs serve`` and ``svc serve`` (stdlib asyncio).

:class:`HttpServer` owns what both servers share: one asyncio loop,
request parsing with a per-server method set and body limit,
``Connection: close`` responses, the NDJSON stream of a study's unit
transitions that ``/events`` serves, and the loop lifecycle — bind,
serve until :meth:`~HttpServer.stop`, cancel the connections still
open, and one background task beside the handlers.  A server is a
subclass that implements :meth:`~HttpServer.route`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

#: How often a transitions stream re-polls the study directory.
EVENTS_POLL_S = 0.25

#: Quiet-stream liveness: an NDJSON stream with nothing to say emits
#: a ``{"keepalive": true}`` line this often, so clients can tell an
#: idle study from a dead connection (and time out when neither rows
#: nor keepalives arrive).
KEEPALIVE_S = 15.0


def http_head(status: str, content_type: str,
              length: int | None = None) -> bytes:
    head = [f"HTTP/1.1 {status}",
            f"Content-Type: {content_type}",
            "Cache-Control: no-store",
            "Connection: close"]
    if length is not None:
        head.append(f"Content-Length: {length}")
    return ("\r\n".join(head) + "\r\n\r\n").encode()


def json_response(status: str, payload: dict) -> bytes:
    """A whole response: head plus one JSON line."""
    body = (json.dumps(payload) + "\n").encode()
    return http_head(status, "application/json", len(body)) + body


@dataclass
class Request:
    method: str
    path: str
    query: dict       # name -> [values], as urllib.parse.parse_qs
    headers: dict     # lower-cased names
    body: bytes


class HttpServer:
    """One asyncio HTTP/1.1 server; subclasses supply :meth:`route`."""

    #: Methods answered; anything else is a 405.
    methods = ("GET", "HEAD")
    #: Largest accepted POST body; a longer one is a 413.
    max_body = 0

    def __init__(self, host: str, port: int,
                 keepalive_s: float = KEEPALIVE_S):
        self.host = host
        self.port = port           # updated to the bound port on start
        self.keepalive_s = keepalive_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._conns: set = set()       # open connection tasks

    async def route(self, writer: asyncio.StreamWriter,
                    request: Request) -> None:
        raise NotImplementedError

    async def background(self) -> None:
        """Runs beside the handlers until the server stops."""

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=10.0)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    asyncio.LimitOverrunError):
                return
            request_line, _, rest = head.decode(
                "latin-1", errors="replace").partition("\r\n")
            parts = request_line.split()
            if len(parts) < 2 or parts[0] not in self.methods:
                writer.write(http_head("405 Method Not Allowed",
                                       "text/plain", 0))
                return
            method = parts[0]
            headers = {}
            for line in rest.split("\r\n"):
                name, sep, value = line.partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            body = b""
            if method == "POST":
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = 0
                if length > self.max_body:
                    writer.write(json_response(
                        "413 Payload Too Large",
                        {"error": f"body over {self.max_body} bytes"}))
                    return
                if length:
                    body = await asyncio.wait_for(
                        reader.readexactly(length), timeout=10.0)
            url = urlsplit(parts[1])
            await self.route(writer, Request(method, url.path,
                                             parse_qs(url.query),
                                             headers, body))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass                       # server shutting down mid-stream
        finally:
            self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def stream_transitions(self, writer: asyncio.StreamWriter, view,
                                 query: dict, closing) -> None:
        """NDJSON stream of a :class:`~repro.obs.live.StudyView`'s unit
        transitions, from ``?since=SEQ`` (default 0) on.

        Quiet stretches carry ``{"keepalive": true}`` lines.  After each
        batch *closing()* decides: None keeps following the study; a
        dict ends the stream with one ``study_complete`` line that also
        carries the dict's fields.
        """
        try:
            seq = int(query.get("since", ["0"])[0])
        except ValueError:
            seq = 0
        writer.write(http_head("200 OK", "application/x-ndjson"))
        loop = asyncio.get_running_loop()
        last_line = loop.time()
        while True:
            view.refresh()
            while seq < len(view.transitions):
                writer.write((json.dumps(view.transitions[seq]) + "\n")
                             .encode())
                seq += 1
                last_line = loop.time()
            if loop.time() - last_line >= self.keepalive_s:
                writer.write(b'{"keepalive": true}\n')
                last_line = loop.time()
            await writer.drain()
            extra = closing()
            if extra is not None:
                final = {
                    "name": "study_complete",
                    "complete": view.complete(),
                    **extra,
                    "tally": view.tally(),
                    "injections_done": view.injections_done(),
                    "units": {uid: dict(view.units[uid].best_counts())
                              for uid in view.unit_ids},
                }
                writer.write((json.dumps(final) + "\n").encode())
                await writer.drain()
                return
            await asyncio.sleep(EVENTS_POLL_S)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        """Bind and start serving; returns the asyncio server."""
        server = await asyncio.start_server(self._handle, self.host,
                                            self.port)
        self.port = server.sockets[0].getsockname()[1]
        return server

    async def _main(self, on_ready=None) -> None:
        self._stop = asyncio.Event()
        server = await self.start()
        background = asyncio.ensure_future(self.background())
        if on_ready is not None:
            on_ready(self)
        async with server:
            try:
                await self._stop.wait()
            finally:
                # Open streams (lease long-polls, /events followers)
                # would otherwise outlive the loop and die noisily with
                # it, or hold the server's close open.
                background.cancel()
                for task in list(self._conns):
                    task.cancel()
                await asyncio.gather(background, *self._conns,
                                     return_exceptions=True)
        if not background.cancelled():
            background.result()        # a background task that died raises

    def serve_forever(self, on_ready=None) -> None:
        """Blocking entry point (the CLI's ``obs serve`` and ``svc serve``).

        *on_ready* is called with the server once the port is bound —
        tests and scripts use it to learn an ephemeral port.  Stop from
        another thread with :meth:`stop`.
        """
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._main(on_ready))
        finally:
            try:
                self._loop.close()
            finally:
                self._loop = None

    def stop(self) -> None:
        """Thread-safe shutdown of :meth:`serve_forever`."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)


__all__ = ["HttpServer", "Request", "http_head", "json_response",
           "EVENTS_POLL_S", "KEEPALIVE_S"]
