"""Streaming status server for a running study (stdlib asyncio only).

``python -m repro.tools obs serve --study-dir DIR`` exposes one study
directory over three endpoints:

* ``GET /status`` — the full :meth:`StudyView.snapshot` as JSON:
  per-unit state, live outcome counts with Wilson intervals, the
  converged-at-99 %/3 % flags, injections/sec, ETA, stall list, phase
  and checkpoint breakdowns.
* ``GET /events`` — an NDJSON stream of journal unit transitions
  (``leased``/``done``/``failed``/``quarantined``), replayed from the
  start (or ``?since=SEQ``) and then followed live; when every unit is
  terminal a final ``study_complete`` line is emitted and the stream
  closes, so clients (and CI) can read-to-EOF deterministically.
* ``GET /`` — a small self-contained dashboard page that polls
  ``/status`` and re-renders itself; no external assets.

The server is read-only over the study directory and single-threaded
(one asyncio loop), so it can watch a study another process is
actively running — the underlying :class:`~repro.obs.live.StudyView`
tailer tolerates torn tails and concurrent writers by construction.
It is a route table on :class:`~repro.obs.http.HttpServer`, the loop,
request parsing and ``/events`` stream it shares with ``svc serve``.
"""

from __future__ import annotations

import json

from repro.obs.http import HttpServer, http_head
from repro.obs.live import DEFAULT_STALL_AFTER_S, StudyView

_DASHBOARD = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>repro study — live</title>
<style>
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2rem auto; max-width: 64rem; color: #263238; }
h1 { font-size: 1.3rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .25rem .5rem;
         border-bottom: 1px solid #eceff1; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.badge { padding: .05rem .45rem; border-radius: 9px; font-size: .75rem;
         font-weight: 600; }
.ok { background: #dcedc8; color: #33691e; }
.warn { background: #ffecb3; color: #e65100; }
.bad { background: #ffcdd2; color: #b71c1c; }
.muted { color: #90a4ae; }
#kv { display: flex; gap: 2rem; flex-wrap: wrap; margin: .8rem 0; }
</style></head><body>
<h1>repro study <span id="spec" class="muted"></span></h1>
<div id="kv"></div>
<table id="cells"><tr><th>unit</th><th>state</th>
<th class="num">injections</th><th class="num">margin</th>
<th>converged</th></tr></table>
<p class="muted">auto-refreshes from <code>/status</code> every 2s;
full report: <code>repro.tools obs report</code></p>
<script>
function badge(s) {
  const css = {done: "ok", leased: "warn", failed: "warn",
               quarantined: "bad"}[s] || "muted";
  return '<span class="badge ' + css + '">' + s + "</span>";
}
async function tick() {
  try {
    const s = await (await fetch("/status")).json();
    document.getElementById("spec").textContent = s.spec_hash || "";
    const p = s.progress, eta = p.eta_s == null ? "—"
        : (p.eta_s > 90 ? (p.eta_s / 60).toFixed(1) + "m"
                        : p.eta_s.toFixed(0) + "s");
    document.getElementById("kv").innerHTML =
      "<span>injections <b>" + s.injections_done +
      (p.planned_injections ? " / " + p.planned_injections : "") +
      "</b></span><span>rate <b>" + p.injections_per_sec.toFixed(1) +
      "/s</b></span><span>ETA <b>" + eta + "</b></span>" +
      "<span>converged <b>" + p.converged_cells + " / " + s.units +
      "</b></span><span>" + badge(s.complete ? "done" : "leased") +
      (s.stalled.length ? ' <span class="badge bad">stalled: ' +
       s.stalled.length + "</span>" : "") + "</span>";
    const rows = s.cells.map(c =>
      "<tr><td>" + c.unit + "</td><td>" + badge(c.state) +
      (c.stalled ? ' <span class="badge bad">stalled</span>' : "") +
      '</td><td class="num">' + c.injections +
      (c.planned ? " / " + c.planned : "") +
      '</td><td class="num">±' +
      (100 * c.convergence.margin).toFixed(1) + "%</td><td>" +
      (c.convergence.converged ? '<span class="badge ok">99%/3%</span>'
                               : '<span class="muted">not yet</span>') +
      "</td></tr>").join("");
    document.getElementById("cells").innerHTML =
      "<tr><th>unit</th><th>state</th><th class=num>injections</th>" +
      "<th class=num>margin</th><th>converged</th></tr>" + rows;
  } catch (e) { /* server restarting; retry next tick */ }
}
tick(); setInterval(tick, 2000);
</script></body></html>
"""


class StatusServer(HttpServer):
    """Serves one study directory's live view over HTTP."""

    def __init__(self, study_dir, host: str = "127.0.0.1",
                 port: int = 8436,
                 stall_after_s: float = DEFAULT_STALL_AFTER_S):
        super().__init__(host, port)
        self.view = StudyView(study_dir, stall_after_s=stall_after_s)

    async def route(self, writer, request) -> None:
        if request.path == "/status":
            self.view.refresh()
            body = json.dumps(self.view.snapshot()).encode()
            writer.write(http_head("200 OK", "application/json", len(body)))
            writer.write(body)
        elif request.path == "/events":
            await self.stream_transitions(
                writer, self.view, request.query,
                lambda: {} if self.view.complete() else None)
        elif request.path in ("/", "/index.html"):
            body = _DASHBOARD.encode()
            writer.write(http_head("200 OK", "text/html; charset=utf-8",
                                   len(body)))
            writer.write(body)
        else:
            body = b'{"error": "not found"}'
            writer.write(http_head("404 Not Found", "application/json",
                                   len(body)))
            writer.write(body)


def serve_study(study_dir, host: str = "127.0.0.1", port: int = 8436,
                on_ready=None, **kwargs) -> None:
    """One-call blocking server over *study_dir* (CLI plumbing)."""
    StatusServer(study_dir, host=host, port=port,
                 **kwargs).serve_forever(on_ready)


__all__ = ["StatusServer", "serve_study"]
