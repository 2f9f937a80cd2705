"""Turn a JSONL campaign event stream into a human-readable report.

``repro.tools obs summarize events.jsonl`` is the CLI face of this
module.  The input is whatever a :class:`repro.obs.trace.JSONLSink`
captured — one or more campaigns' worth of events — and the output
reports the numbers the paper's analysis leans on: injections/sec,
per-phase wall time (golden / maskgen / inject / classify), the
early-stop rate by reason, the outcome distribution, and the fraction
of faulty-run cycles the checkpoint restores skipped (§III.B's 30-70 %
speedup claim, measured).  Those campaign numbers come from folding the
stream with :func:`repro.obs.metrics.fold_event` and condensing the
registry with :meth:`CampaignTelemetry.from_metrics
<repro.obs.profile.CampaignTelemetry.from_metrics>` — the two steps
behind ``CampaignResult.telemetry`` — so a report and the result of the
same run agree.  Streams captured by a ``repro.sched`` study
additionally get a scheduler section — unit leases, retries, timeouts,
quarantines, and injections recovered from logs on resume.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.ioutil import read_jsonl
from repro.obs.metrics import Histogram, MetricsRegistry, fold_event
from repro.obs.profile import CampaignTelemetry


def load_events(path) -> list[dict]:
    """Parse a JSONL events file into plain dicts (schema-tolerant).

    Every event needs a ``name``.  The append-only rule of
    :mod:`repro.core.ioutil` applies (docs/robustness.md, "Append-only
    files and crashes"): a torn trailing line — the write a killed
    campaign never finished — is dropped with a warning; a bad line with
    complete lines after it raises ``ValueError`` naming ``path:line``.
    """
    return read_jsonl(path, require="name")


class SummaryAccumulator:
    """Incrementally folds an event stream into the summary dict.

    ``summarize_events`` feeds it a whole list; the live layer
    (:mod:`repro.obs.live`) feeds it tailed batches from a running
    study and re-reads :meth:`summary` between polls.
    """

    def __init__(self):
        self.events = 0
        #: The campaign events' fold: phases, injections, outcomes,
        #: early stops, checkpointing, inject latency and guard.
        self.metrics = MetricsRegistry()
        self.campaigns: list[dict] = []
        self.span = {"first_ts": None, "last_ts": None}
        self.sched = {"studies": 0, "units": 0, "leases": 0, "retries": 0,
                      "done": 0, "resumed_injections": 0, "failed": 0,
                      "timeouts": 0, "quarantined": 0, "unit_wall_s": 0.0,
                      "interrupted": 0, "heartbeats": 0}
        self.svc = {"submitted": 0, "resumed": 0, "done": 0,
                    "cancelled": 0, "heartbeats": 0, "tenants": {}}
        self.fleet = {"registrations": 0, "workers": {}, "lost": 0,
                      "revoked_fences": 0, "rejected_fences": 0,
                      "remote_leases": 0, "gc_purged": 0,
                      "attest_rejected": 0, "challenges_passed": 0,
                      "challenges_failed": 0, "distrusted": 0,
                      "audits_ok": 0, "audits_diverged": 0,
                      "audits_inconclusive": 0, "voided": 0,
                      "reopened": 0, "blobs_evicted": 0}
        self.prune = {"plans": 0, "masks": 0, "masked": 0,
                      "simulated": 0, "rules": {},
                      "traces_recorded": 0, "trace_cache_hits": 0,
                      "audit_checked": 0, "audit_divergences": 0}
        self.unit_hist = Histogram()        # per-unit wall time

    def add(self, ev: dict) -> None:
        self.events += 1
        name = ev.get("name")
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            if self.span["first_ts"] is None:
                self.span["first_ts"] = ts
            self.span["last_ts"] = ts
        fold_event(self.metrics, name, ev)
        sched = self.sched
        if name == "campaign_start":
            self.campaigns.append({k: ev.get(k) for k in
                                   ("setup", "benchmark", "structure",
                                    "masks")})
        elif name == "prune_plan":
            prune = self.prune
            prune["plans"] += 1
            for key in ("masks", "masked", "simulated"):
                prune[key] += ev.get(key, 0)
        elif name == "pruned":
            rule = ev.get("rule", "unknown")
            self.prune["rules"][rule] = \
                self.prune["rules"].get(rule, 0) + 1
        elif name == "prune_audit":
            self.prune["audit_checked"] += ev.get("checked", 0)
            self.prune["audit_divergences"] += ev.get("divergences", 0)
        elif name == "trace_recorded":
            self.prune["traces_recorded"] += 1
        elif name == "trace_cache_hit":
            self.prune["trace_cache_hits"] += 1
        elif name == "study_start":
            sched["studies"] += 1
            sched["units"] += ev.get("units", 0)
        elif name == "unit_leased":
            sched["leases"] += 1
            if ev.get("attempt", 1) > 1:
                sched["retries"] += 1
            if ev.get("worker"):       # remote leases carry the worker
                self.fleet["remote_leases"] += 1
        elif name == "unit_done":
            sched["done"] += 1
            sched["resumed_injections"] += ev.get("resumed", 0)
            sched["unit_wall_s"] += ev.get("wall_s", 0.0)
            self.unit_hist.observe(ev.get("wall_s", 0.0))
        elif name == "unit_failed":
            sched["failed"] += 1
            if ev.get("reason") == "timeout":
                sched["timeouts"] += 1
        elif name == "unit_quarantined":
            sched["quarantined"] += 1
        elif name == "heartbeat":
            sched["heartbeats"] += 1
        elif name == "study_end":
            if ev.get("interrupted"):
                sched["interrupted"] += 1
        elif name in ("study_submitted", "study_resumed", "study_done",
                      "study_cancelled"):
            svc = self.svc
            svc[name.split("_", 1)[1]] += 1
            tenant = ev.get("tenant")
            # Per-tenant counts are submissions, not lifecycle events.
            if tenant and name == "study_submitted":
                svc["tenants"][tenant] = svc["tenants"].get(tenant, 0) + 1
        elif name == "svc_heartbeat":
            self.svc["heartbeats"] += 1
        elif name == "worker_registered":
            self.fleet["registrations"] += 1
            worker = ev.get("worker", "?")
            self.fleet["workers"][worker] = \
                self.fleet["workers"].get(worker, 0) + 1
        elif name == "worker_lost":
            self.fleet["lost"] += 1
        elif name == "lease_revoked":
            self.fleet["revoked_fences"] += len(ev.get("fences") or ())
        elif name == "fence_rejected":
            self.fleet["rejected_fences"] += 1
        elif name == "study_gc":
            self.fleet["gc_purged"] += len(ev.get("purged") or ())
        elif name == "attest_rejected":
            self.fleet["attest_rejected"] += 1
        elif name == "challenge_passed":
            self.fleet["challenges_passed"] += 1
        elif name == "challenge_failed":
            self.fleet["challenges_failed"] += 1
        elif name == "worker_distrusted":
            self.fleet["distrusted"] += 1
        elif name == "audit_ok":
            self.fleet["audits_ok"] += 1
        elif name == "audit_divergence":
            self.fleet["audits_diverged"] += 1
        elif name == "audit_inconclusive":
            self.fleet["audits_inconclusive"] += 1
        elif name == "audit_void":
            self.fleet["voided"] += 1
        elif name == "study_reopened":
            self.fleet["reopened"] += 1
        elif name == "blobs_evicted":
            self.fleet["blobs_evicted"] += ev.get("count", 0)

    def add_all(self, events) -> "SummaryAccumulator":
        for ev in events:
            self.add(ev)
        return self

    def summary(self) -> dict:
        m = self.metrics
        t = CampaignTelemetry.from_metrics(m)
        return {
            "events": self.events,
            "campaigns": list(self.campaigns),
            "phases": {
                "golden_s": t.golden_s,
                "maskgen_s": t.maskgen_s,
                "inject_s": t.inject_s,
                "classify_s": t.classify_s,
            },
            # A study pays one golden run per pair unless a unit's
            # lease beat its pair's blob; runs > pairs shows the excess.
            "golden": {"wall_s": t.golden_s, "cycles": t.golden_cycles,
                       "checkpoints": t.golden_checkpoints,
                       "runs": m.histogram("time.golden_s").count,
                       "packed": m.histogram("time.golden_pack_s").count,
                       "pack_s": m.histogram("time.golden_pack_s").total,
                       "adopted": m.histogram("time.golden_adopt_s").count,
                       "adopt_s": m.histogram("time.golden_adopt_s").total,
                       "snapshot_s": t.snapshot_s,
                       "checkpoint_bytes": t.checkpoint_bytes,
                       "pairs": len({(c["setup"], c["benchmark"])
                                     for c in self.campaigns
                                     if c["setup"] is not None})},
            "masks_generated": m.counter_value("masks_generated"),
            "injections": t.injections,
            "injections_per_sec": t.injections_per_sec,
            "outcomes": t.outcomes,
            "early_stops": t.early_stops,
            "early_stop_rate": t.early_stop_rate,
            "checkpoint": {
                "restores": t.checkpoint_restores,
                "cold_starts": t.cold_starts,
                "cycles_saved": t.cycles_saved,
                "cycles_simulated": t.cycles_simulated,
                "speedup_fraction": t.checkpoint_speedup,
                "snapshot_s": t.snapshot_s,
                "restore_s": t.restore_s,
                "bytes": t.checkpoint_bytes,
            },
            "latency": {
                "inject_s": m.histogram("time.inject_s").summary(),
                "unit_s": self.unit_hist.summary(),
            },
            "wall_span_s": ((self.span["last_ts"] - self.span["first_ts"])
                            if self.span["first_ts"] is not None else 0.0),
            "sched": dict(self.sched),
            "svc": {**self.svc,
                    "tenants": dict(sorted(self.svc["tenants"].items()))},
            "fleet": {**self.fleet,
                      "workers": dict(sorted(
                          self.fleet["workers"].items()))},
            "guard": {"contaminations":
                      m.counter_value("guard.contamination"),
                      "invariant_violations":
                      m.counter_value("guard.invariant_violations"),
                      "invariants": m.family("guard.invariant.")},
            "prune": {**self.prune,
                      "rules": dict(sorted(self.prune["rules"].items())),
                      "rate": (self.prune["masked"] / self.prune["masks"]
                               if self.prune["masks"] else 0.0)},
        }


def summarize_events(events: list[dict]) -> dict:
    """Aggregate an event stream into one summary dict."""
    return SummaryAccumulator().add_all(events).summary()


def render_report(summary: dict) -> str:
    """ASCII campaign report from a :func:`summarize_events` summary."""
    lines = ["campaign telemetry report",
             "=" * 52]
    if summary["campaigns"]:
        for c in summary["campaigns"]:
            cell = " / ".join(str(c.get(k, "?")) for k in
                              ("setup", "benchmark", "structure"))
            lines.append(f"campaign   {cell}  ({c.get('masks', '?')} masks)")
    else:
        lines.append("campaign   (no campaign_start events)")
    lines.append(f"events     {summary['events']}  "
                 f"spanning {summary['wall_span_s']:.3f}s")
    lines.append("")
    ph = summary["phases"]
    total = sum(ph.values()) or 1.0
    lines.append("phase timing")
    for phase in ("golden", "maskgen", "inject", "classify"):
        t = ph[f"{phase}_s"]
        lines.append(f"  {phase:<9s}{t:>10.3f}s  {100 * t / total:5.1f}%  "
                     f"|{'#' * round(30 * t / total):<30s}|")
    lines.append("")
    lines.append(f"injections {summary['injections']}  "
                 f"({summary['injections_per_sec']:,.1f}/sec)")
    lat = summary.get("latency", {}).get("inject_s", {})
    if lat.get("count"):
        lines.append(
            f"inject wall  p50 {1e3 * lat['p50']:.1f}ms  "
            f"p90 {1e3 * lat['p90']:.1f}ms  p99 {1e3 * lat['p99']:.1f}ms  "
            f"(mean {1e3 * lat['mean']:.1f}ms, max {1e3 * lat['max']:.1f}ms)")
    lines.append("outcomes")
    n_inj = summary["injections"] or 1
    for reason, count in summary["outcomes"].items():
        lines.append(f"  {reason:<12s}{count:>6d}  "
                     f"{100 * count / n_inj:5.1f}%")
    lines.append(f"early stops  rate {100 * summary['early_stop_rate']:.1f}%")
    for reason, count in summary["early_stops"].items():
        lines.append(f"  {reason:<14s}{count:>6d}  "
                     f"{100 * count / n_inj:5.1f}%")
    cp = summary["checkpoint"]
    lines.append(
        f"checkpointing  {cp['restores']} restores, "
        f"{cp['cold_starts']} cold starts — "
        f"{100 * cp['speedup_fraction']:.1f}% of faulty-run cycles skipped "
        f"({cp['cycles_saved']} of "
        f"{cp['cycles_saved'] + cp['cycles_simulated']})")
    lines.append(
        f"snapshots  take {cp['snapshot_s']:.3f}s, "
        f"restore {cp['restore_s']:.3f}s, {cp['bytes']:,} bytes stored")
    g = summary["golden"]
    packed = (f", {g['packed']} blob(s) packed in {g['pack_s']:.3f}s"
              if g.get("packed") else "")
    lines.append(f"golden     {g['runs']} run(s) for {g['pairs']} "
                 f"(setup, benchmark) pair(s), {g['cycles']} cycles, "
                 f"{g['checkpoints']} checkpoints{packed}")
    if g.get("adopted"):
        lines.append(f"           {g['adopted']} shipped blob(s) adopted "
                     f"in {g['adopt_s']:.3f}s")
    pr = summary.get("prune", {})
    if pr.get("plans"):
        lines.append("")
        lines.append(
            f"pruning    {pr['masked']} masked by analysis -> "
            f"{pr['simulated']} of {pr['masks']} masks simulated "
            f"({100 * pr['rate']:.1f}% pruned)")
        for rule, count in pr.get("rules", {}).items():
            lines.append(f"  {rule:<20s}{count:>6d}")
        lines.append(
            f"           traces: {pr['traces_recorded']} recorded, "
            f"{pr['trace_cache_hits']} cache hits"
            + (f"; audit: {pr['audit_checked']} re-simulated, "
               f"{pr['audit_divergences']} divergences"
               if pr.get("audit_checked") else ""))
    gd = summary.get("guard", {})
    if gd.get("contaminations") or gd.get("invariant_violations"):
        lines.append("")
        lines.append(
            f"guard      {gd['contaminations']} contamination incidents "
            f"(machine condemned and rebuilt), "
            f"{gd['invariant_violations']} invariant violations")
        for inv, count in sorted(gd.get("invariants", {}).items()):
            lines.append(f"  {inv:<26s}{count:>6d}")
    sc = summary.get("sched", {})
    if sc.get("studies") or sc.get("leases"):
        lines.append("")
        lines.append(
            f"scheduler  {sc['units']} units over {sc['studies']} "
            f"study run(s): {sc['done']} done, {sc['failed']} failed "
            f"attempts ({sc['timeouts']} timeouts), "
            f"{sc['retries']} retries, {sc['quarantined']} quarantined")
        lines.append(
            f"           {sc['leases']} leases, "
            f"{sc['resumed_injections']} injections recovered from logs "
            f"on resume, unit wall {sc['unit_wall_s']:.3f}s"
            + ("  [interrupted]" if sc.get("interrupted") else ""))
        unit_lat = summary.get("latency", {}).get("unit_s", {})
        if unit_lat.get("count"):
            lines.append(
                f"           unit wall  p50 {unit_lat['p50']:.3f}s  "
                f"p90 {unit_lat['p90']:.3f}s  p99 {unit_lat['p99']:.3f}s")
    sv = summary.get("svc", {})
    if sv.get("submitted"):
        lines.append("")
        lines.append(
            f"service    {sv['submitted']} studies submitted "
            f"({sv['resumed']} resumed after restart): {sv['done']} done, "
            f"{sv['cancelled']} cancelled")
        for tenant, count in sv.get("tenants", {}).items():
            lines.append(f"  tenant {tenant:<16s}{count:>6d} studies")
    fl = summary.get("fleet", {})
    if fl.get("registrations") or fl.get("remote_leases") \
            or fl.get("voided") or fl.get("blobs_evicted"):
        lines.append("")
        lines.append(
            f"remote fleet  {len(fl.get('workers', {}))} worker(s), "
            f"{fl['registrations']} registrations, {fl['lost']} lost; "
            f"{fl['remote_leases']} remote leases, "
            f"{fl['revoked_fences']} fences revoked, "
            f"{fl['rejected_fences']} stale completes rejected"
            + (f"; {fl['gc_purged']} studies gc'd"
               if fl.get("gc_purged") else ""))
        for worker, count in fl.get("workers", {}).items():
            lines.append(f"  worker {worker:<16s}{count:>6d} "
                         f"registration(s)")
        if any(fl.get(k) for k in ("attest_rejected", "challenges_passed",
                                   "challenges_failed", "distrusted",
                                   "audits_ok", "audits_diverged",
                                   "audits_inconclusive", "voided",
                                   "reopened", "blobs_evicted")):
            lines.append(
                f"  attest: {fl['attest_rejected']} completes rejected, "
                f"{fl['challenges_passed']}/{fl['challenges_failed']} "
                f"challenges passed/failed, "
                f"{fl['distrusted']} workers distrusted")
            lines.append(
                f"  audits: {fl['audits_ok']} ok, "
                f"{fl['audits_diverged']} diverged, "
                f"{fl['audits_inconclusive']} inconclusive; "
                f"{fl['voided']} completions voided, "
                f"{fl['reopened']} studies reopened, "
                f"{fl['blobs_evicted']} golden blobs evicted")
    return "\n".join(lines)


def summarize_file(path) -> str:
    """One-call path: JSONL events file in, rendered report out."""
    return render_report(summarize_events(load_events(Path(path))))
