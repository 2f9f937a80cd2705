"""Self-contained single-file HTML study report.

Rendered from the same :class:`~repro.obs.live.StudyView` snapshot the
status server exposes, in the spirit of the paper's figs. 2-6: per
structure×benchmark outcome stacked bars — proportions, not raw counts
— annotated with Wilson confidence intervals and the converged-at-
99 %/3 % flag, plus the phase/speedup breakdown, latency percentiles,
the guard/contamination section, and a scheduler lease timeline.

The output is one ``.html`` file with inline CSS and zero external
assets, scripts, or network fetches — it can be archived as a CI
artifact or mailed around and will render identically forever.
Rendering is deterministic: everything comes from the snapshot (pass a
fixed ``now``), so the same study directory yields byte-identical
reports (tested).
"""

from __future__ import annotations

import html

from repro.core.ioutil import atomic_write_text
from repro.obs.live import load_study_view

#: Fault-effect class palette (stacked-bar segment colours).
CLASS_COLORS = {
    "Masked": "#7cb342",
    "SDC": "#e53935",
    "DUE": "#fb8c00",
    "DUE (true)": "#fb8c00",
    "DUE (false)": "#ffb74d",
    "Timeout": "#8e24aa",
    "Crash": "#6d4c41",
    "Assert": "#1e88e5",
    "Non-Masked": "#e53935",
}
_FALLBACK_COLOR = "#90a4ae"

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2rem auto; max-width: 70rem; color: #263238;
       background: #fafafa; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem;
     border-bottom: 1px solid #cfd8dc; padding-bottom: .25rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .3rem .5rem;
         border-bottom: 1px solid #eceff1; vertical-align: middle; }
th { color: #546e7a; font-weight: 600; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { display: flex; height: 1.1rem; min-width: 14rem;
       border-radius: 2px; overflow: hidden; background: #eceff1; }
.bar span { display: block; height: 100%; }
.badge { display: inline-block; padding: .05rem .45rem;
         border-radius: 9px; font-size: .75rem; font-weight: 600; }
.ok { background: #dcedc8; color: #33691e; }
.warn { background: #ffecb3; color: #e65100; }
.bad { background: #ffcdd2; color: #b71c1c; }
.muted { color: #90a4ae; }
.legend span.swatch { display: inline-block; width: .8rem;
        height: .8rem; border-radius: 2px; margin: 0 .25rem 0 .9rem;
        vertical-align: -.1rem; }
.timeline { position: relative; height: 1rem; background: #eceff1;
            border-radius: 2px; min-width: 16rem; }
.timeline span { position: absolute; top: 0; height: 100%;
                 border-radius: 2px; opacity: .85; }
.kv { display: flex; flex-wrap: wrap; gap: .4rem 2rem;
      font-size: .9rem; margin: .6rem 0; }
.kv b { font-variant-numeric: tabular-nums; }
footer { margin-top: 2.5rem; font-size: .75rem; color: #90a4ae; }
"""


def _esc(text) -> str:
    return html.escape(str(text), quote=True)


def _fmt_s(seconds) -> str:
    if seconds is None:
        return "—"
    seconds = float(seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _class_color(cls: str) -> str:
    if cls in CLASS_COLORS:
        return CLASS_COLORS[cls]
    base = cls.split(" (")[0]
    return CLASS_COLORS.get(base, _FALLBACK_COLOR)


def _stacked_bar(convergence: dict) -> str:
    """One cell's outcome proportions as an inline stacked bar."""
    n = convergence["n"]
    if not n:
        return '<div class="bar"></div>'
    segs = []
    for cls, ci in convergence["classes"].items():
        if not ci["count"]:
            continue
        pct = 100.0 * ci["proportion"]
        tip = (f"{cls}: {ci['count']}/{n} = {pct:.1f}% "
               f"(99% CI {100 * ci['lo']:.1f}–{100 * ci['hi']:.1f}%)")
        segs.append(
            f'<span style="width:{pct:.3f}%;'
            f'background:{_class_color(cls)}" title="{_esc(tip)}"></span>')
    return f'<div class="bar">{"".join(segs)}</div>'


def _conv_badge(convergence: dict) -> str:
    margin = convergence["margin"]
    conf = int(round(100 * convergence["confidence"]))
    err = 100 * convergence["error_margin"]
    if convergence["converged"]:
        return (f'<span class="badge ok" title="every class interval '
                f'within ±{err:.0f}%">converged {conf}%/{err:.0f}%</span>')
    if convergence["n"] == 0:
        return '<span class="badge muted">no data</span>'
    return (f'<span class="badge warn">±{100 * margin:.1f}% '
            f'of ±{err:.0f}%</span>')


def _state_badge(cell: dict) -> str:
    state = cell["state"]
    css = {"done": "ok", "leased": "warn", "failed": "warn",
           "quarantined": "bad"}.get(state, "muted")
    extra = " STALLED" if cell.get("stalled") else ""
    return f'<span class="badge {css}">{_esc(state)}{_esc(extra)}</span>'


def _legend(classes) -> str:
    spans = "".join(
        f'<span class="swatch" style="background:{_class_color(c)}">'
        f'</span>{_esc(c)}' for c in classes)
    return f'<div class="legend">{spans}</div>'


def _outcome_section(snapshot: dict) -> list[str]:
    cells = snapshot["cells"]
    classes: list[str] = []
    for cell in cells:
        for cls in cell["convergence"]["classes"]:
            if cls not in classes:
                classes.append(cls)
    by_structure: dict[str, list[dict]] = {}
    for cell in cells:
        parts = cell["unit"].split("/")
        structure = parts[2] if len(parts) == 4 else cell["unit"]
        by_structure.setdefault(structure, []).append(cell)
    out = ["<h2>Outcome proportions by structure "
           "(Wilson 99&thinsp;% intervals)</h2>",
           _legend(classes)]
    for structure, group in by_structure.items():
        out.append(f"<h3>{_esc(structure)}</h3>")
        out.append("<table><tr><th>benchmark / setup</th><th>state</th>"
                   '<th class="num">n</th><th>outcomes</th>'
                   "<th>convergence</th></tr>")
        for cell in group:
            parts = cell["unit"].split("/")
            label = (f"{parts[1]} / {parts[0]} / {parts[3]}"
                     if len(parts) == 4 else cell["unit"])
            conv = cell["convergence"]
            planned = cell.get("planned")
            n_txt = (f"{conv['n']}/{planned}" if planned
                     else f"{conv['n']}")
            out.append(
                f"<tr><td>{_esc(label)}</td>"
                f"<td>{_state_badge(cell)}</td>"
                f'<td class="num">{_esc(n_txt)}</td>'
                f"<td>{_stacked_bar(conv)}</td>"
                f"<td>{_conv_badge(conv)}</td></tr>")
        out.append("</table>")
    return out


def _progress_section(snapshot: dict) -> list[str]:
    prog = snapshot["progress"]
    tally = snapshot["tally"]
    phases = snapshot["phases"]
    cp = snapshot["checkpoint"]
    total_phase = sum(phases.values()) or 1.0
    phase_bar = "".join(
        f'<span style="width:{100 * t / total_phase:.2f}%;'
        f'background:{color}" title="{_esc(name)} {t:.3f}s"></span>'
        for (name, t), color in zip(phases.items(),
                                    ("#1e88e5", "#8e24aa", "#fb8c00",
                                     "#7cb342")))
    eta = prog["eta_s"]
    planned = prog["planned_injections"]
    lat = snapshot["latency"]
    rows = []
    for name, h in (("inject", lat["inject_s"]), ("unit", lat["unit_s"])):
        if not h["count"]:
            continue
        rows.append(
            f"<tr><td>{name} wall</td>"
            f'<td class="num">{h["count"]}</td>'
            f'<td class="num">{h["p50"]:.3f}s</td>'
            f'<td class="num">{h["p90"]:.3f}s</td>'
            f'<td class="num">{h["p99"]:.3f}s</td>'
            f'<td class="num">{h["max"]:.3f}s</td></tr>')
    out = ["<h2>Progress &amp; throughput</h2>", '<div class="kv">']
    out.append(f"<span>injections <b>{snapshot['injections_done']}"
               + (f" / {planned}" if planned else "") + "</b></span>")
    out.append(f"<span>units done <b>{tally.get('done', 0)}"
               f" / {snapshot['units']}</b></span>")
    out.append(f"<span>rate <b>{prog['injections_per_sec']:.1f}/s</b>"
               "</span>")
    out.append(f"<span>ETA <b>{_fmt_s(eta)}</b></span>")
    out.append(f"<span>converged cells <b>{prog['converged_cells']}"
               f" / {snapshot['units']}</b></span>")
    out.append(f"<span>wall span <b>{_fmt_s(snapshot['wall_span_s'])}"
               "</b></span>")
    out.append("</div>")
    out.append(f'<div class="bar" style="max-width:32rem">{phase_bar}'
               "</div>")
    out.append('<p class="muted">phase wall time: '
               + " · ".join(f"{name[:-2]} {t:.3f}s"
                            for name, t in phases.items())
               + f" — checkpoint restores skipped "
                 f"{100 * cp['speedup_fraction']:.1f}% of faulty-run "
                 f"cycles ({cp['restores']} restores, "
                 f"{cp['cold_starts']} cold starts)</p>")
    if rows:
        out.append('<table style="max-width:40rem"><tr><th>phase</th>'
                   '<th class="num">n</th><th class="num">p50</th>'
                   '<th class="num">p90</th><th class="num">p99</th>'
                   '<th class="num">max</th></tr>'
                   + "".join(rows) + "</table>")
    return out


def _guard_section(snapshot: dict) -> list[str]:
    guard = snapshot["guard"]
    out = ["<h2>Guard &amp; contamination</h2>"]
    if not guard["contaminations"] and not guard["invariant_violations"]:
        out.append('<p class="muted">no contamination incidents, no '
                   "invariant violations</p>")
        return out
    out.append('<div class="kv">'
               f"<span>contamination incidents "
               f"<b>{guard['contaminations']}</b> "
               "(machine condemned and rebuilt)</span>"
               f"<span>invariant violations "
               f"<b>{guard['invariant_violations']}</b></span></div>")
    if guard["invariants"]:
        out.append("<table style=\"max-width:30rem\">"
                   "<tr><th>invariant</th>"
                   '<th class="num">violations</th></tr>')
        for inv, count in sorted(guard["invariants"].items()):
            out.append(f"<tr><td>{_esc(inv)}</td>"
                       f'<td class="num">{count}</td></tr>')
        out.append("</table>")
    return out


def _prune_section(snapshot: dict) -> list[str]:
    """Pruning summary — rendered only when a campaign actually pruned."""
    prune = snapshot.get("prune") or {}
    if not prune.get("plans"):
        return []
    out = ["<h2>Pruning</h2>"]
    rate = prune.get("rate", 0.0)
    out.append('<div class="kv">'
               f"<span>masked by analysis <b>{prune['masked']}</b></span>"
               f"<span>simulated <b>{prune['simulated']}</b> of "
               f"{prune['masks']} masks</span>"
               f"<span>prune rate <b>{100 * rate:.1f}%</b></span>"
               f"<span>traces <b>{prune['traces_recorded']}</b> recorded, "
               f"<b>{prune['trace_cache_hits']}</b> cache hits</span>"
               + (f"<span>audit <b>{prune['audit_checked']}</b> "
                  f"re-simulated, <b>{prune['audit_divergences']}</b> "
                  "divergences</span>"
                  if prune.get("audit_checked") else "")
               + "</div>")
    if prune.get("rules"):
        out.append("<table style=\"max-width:30rem\">"
                   "<tr><th>rule</th><th class=\"num\">masks</th></tr>")
        for rule, count in sorted(prune["rules"].items()):
            out.append(f"<tr><td>{_esc(rule)}</td>"
                       f'<td class="num">{count}</td></tr>')
        out.append("</table>")
    return out


def _timeline_section(snapshot: dict, transitions) -> list[str]:
    spans: dict[str, list] = {}
    open_lease: dict[str, float] = {}
    t0 = t1 = None
    for row in transitions:
        ts = row.get("ts")
        uid = row.get("unit")
        state = row.get("state")
        if not isinstance(ts, (int, float)) or not uid:
            continue
        t0 = ts if t0 is None else min(t0, ts)
        t1 = ts if t1 is None else max(t1, ts)
        if state == "leased":
            open_lease[uid] = ts
        elif state in ("done", "failed", "quarantined"):
            start = open_lease.pop(uid, ts)
            spans.setdefault(uid, []).append((start, ts, state))
    for uid, start in open_lease.items():       # still running
        spans.setdefault(uid, []).append((start, t1, "leased"))
    out = ["<h2>Scheduler timeline</h2>"]
    if t0 is None or t1 is None or t1 <= t0:
        out.append('<p class="muted">no lease spans journaled yet</p>')
        return out
    width = t1 - t0
    colors = {"done": "#7cb342", "failed": "#fb8c00",
              "quarantined": "#e53935", "leased": "#1e88e5"}
    out.append("<table><tr><th>unit</th><th>attempts</th>"
               f"<th>lease spans over {_fmt_s(width)}</th></tr>")
    for cell in snapshot["cells"]:
        uid = cell["unit"]
        bars = "".join(
            f'<span style="left:{100 * (a - t0) / width:.2f}%;'
            f'width:{max(100 * (b - a) / width, 0.4):.2f}%;'
            f'background:{colors.get(state, _FALLBACK_COLOR)}" '
            f'title="{_esc(state)} {_fmt_s(b - a)}"></span>'
            for a, b, state in spans.get(uid, ()))
        out.append(f"<tr><td>{_esc(uid)}</td>"
                   f'<td class="num">{cell["attempts"]}</td>'
                   f'<td><div class="timeline">{bars}</div></td></tr>')
    out.append("</table>")
    return out


def render_html(snapshot: dict, transitions=(), title: str | None = None)\
        -> str:
    """Render one study snapshot as a self-contained HTML document."""
    title = title or f"study report — {snapshot.get('spec_hash') or '?'}"
    tally = snapshot["tally"]
    shard = snapshot.get("shard")
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        '<div class="kv">',
        f"<span>study <b>{_esc(snapshot['study_dir'])}</b></span>",
        f"<span>spec <b>{_esc(snapshot.get('spec_hash') or '?')}</b>"
        "</span>",
    ]
    if shard:
        parts.append(f"<span>shard <b>{shard[0]}/{shard[1]}</b></span>")
    parts.append(
        "<span>units " + " ".join(
            f'<span class="badge '
            f'{ {"done": "ok", "quarantined": "bad"}.get(k, "muted") }">'
            f"{k} {v}</span>"
            for k, v in tally.items() if v) + "</span>")
    status = ("complete" if snapshot["complete"] else
              ("stalled" if snapshot["stalled"] else "running"))
    css = {"complete": "ok", "running": "warn", "stalled": "bad"}[status]
    parts.append(f'<span><span class="badge {css}">{status}</span>'
                 "</span></div>")
    parts.extend(_outcome_section(snapshot))
    parts.extend(_progress_section(snapshot))
    parts.extend(_guard_section(snapshot))
    parts.extend(_prune_section(snapshot))
    parts.extend(_timeline_section(snapshot, transitions))
    parts.append("<footer>repro.obs.report — self-contained study "
                 "report; proportions carry Wilson score intervals at "
                 "the study's confidence level, and a cell is "
                 "<em>converged</em> when every interval half-width is "
                 "within the spec's error margin (the paper's "
                 "99&thinsp;%/3&thinsp;% sampling rule).</footer>")
    parts.append("</body></html>")
    return "\n".join(parts)


def report_study(study_dir, out_path=None, now: float | None = None,
                 title: str | None = None) -> str:
    """Render a study directory's report; returns the HTML text.

    ``now`` defaults to the newest timestamp observed in the study's
    streams, which makes the output a pure function of the directory
    contents — re-rendering an unchanged study is byte-identical.
    """
    view = load_study_view(study_dir)
    if now is None:
        now = view.latest_ts if view.latest_ts is not None else 0.0
    text = render_html(view.snapshot(now=now), view.transitions,
                       title=title)
    if out_path is not None:
        # Atomic: a report consumer (CI artifact collection, a
        # dashboard refresh) never sees a half-written file.
        atomic_write_text(out_path, text)
    return text


__all__ = ["render_html", "report_study", "CLASS_COLORS"]
