"""Turn a JSONL campaign event stream into a human-readable report.

``repro.tools obs summarize events.jsonl`` is the CLI face of this
module.  The input is whatever a :class:`repro.obs.trace.JSONLSink`
captured — one or more campaigns' worth of events — and the output
reports the numbers the paper's analysis leans on: injections/sec,
per-phase wall time (golden / maskgen / inject / classify), the
early-stop rate by reason, the outcome distribution, and the fraction
of faulty-run cycles the checkpoint restores skipped (§III.B's 30-70 %
speedup claim, measured).  Streams captured by a ``repro.sched`` study
additionally get a scheduler section — unit leases, retries, timeouts,
quarantines, and injections recovered from logs on resume.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.ioutil import read_jsonl
from repro.obs.metrics import Histogram


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
        self.campaigns: list[dict] = []
        self.golden = {"wall_s": 0.0, "cycles": 0, "checkpoints": 0,
                       "runs": 0, "snapshot_s": 0.0, "checkpoint_bytes": 0}
        self.maskgen = {"wall_s": 0.0, "masks": 0}
        self.inject = {"runs": 0, "wall_s": 0.0, "sim_cycles": 0,
                       "saved_cycles": 0, "restores": 0, "cold_starts": 0,
                       "restore_s": 0.0}
        self.outcomes: dict[str, int] = {}
        self.early_stops: dict[str, int] = {}
        self.classify = {"wall_s": 0.0, "calls": 0}
        self.span = {"first_ts": None, "last_ts": None}
        self.sched = {"studies": 0, "units": 0, "leases": 0, "retries": 0,
                      "done": 0, "resumed_injections": 0, "failed": 0,
                      "timeouts": 0, "quarantined": 0, "unit_wall_s": 0.0,
                      "interrupted": 0, "heartbeats": 0}
        self.svc = {"submitted": 0, "resumed": 0, "done": 0,
                    "cancelled": 0, "quota_rejections": 0,
                    "heartbeats": 0, "tenants": {},
                    "quota_reasons": {}}
        self.fleet = {"registrations": 0, "workers": {}, "lost": 0,
                      "revoked_fences": 0, "rejected_fences": 0,
                      "remote_leases": 0, "gc_purged": 0,
                      "attest_rejected": 0, "challenges_passed": 0,
                      "challenges_failed": 0, "distrusted": 0,
                      "audits_ok": 0, "audits_diverged": 0,
                      "audits_inconclusive": 0, "voided": 0,
                      "reopened": 0, "blobs_evicted": 0}
        self.guard = {"contaminations": 0, "invariant_violations": 0,
                      "invariants": {}}
        self.prune = {"plans": 0, "masks": 0, "masked": 0,
                      "simulated": 0, "rules": {},
                      "traces_recorded": 0, "trace_cache_hits": 0,
                      "audit_checked": 0, "audit_divergences": 0}
        self.inject_hist = Histogram()      # per-injection wall time
        self.unit_hist = Histogram()        # per-unit wall time

    def add(self, ev: dict) -> None:
        self.events += 1
        name = ev.get("name")
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            if self.span["first_ts"] is None:
                self.span["first_ts"] = ts
            self.span["last_ts"] = ts
        golden, maskgen, inject = self.golden, self.maskgen, self.inject
        sched, guard = self.sched, self.guard
        if name == "campaign_start":
            self.campaigns.append({k: ev.get(k) for k in
                                   ("setup", "benchmark", "structure",
                                    "masks")})
        elif name == "golden_end":
            golden["runs"] += 1
            golden["wall_s"] += ev.get("wall_s", 0.0)
            golden["cycles"] = ev.get("cycles", golden["cycles"])
            golden["checkpoints"] = ev.get("checkpoints",
                                           golden["checkpoints"])
            golden["snapshot_s"] += ev.get("snapshot_s", 0.0)
            golden["checkpoint_bytes"] += ev.get("checkpoint_bytes", 0)
        elif name == "maskgen_end":
            maskgen["wall_s"] += ev.get("wall_s", 0.0)
            maskgen["masks"] += ev.get("masks", 0)
        elif name == "inject_end":
            inject["runs"] += 1
            inject["wall_s"] += ev.get("wall_s", 0.0)
            inject["sim_cycles"] += ev.get("sim_cycles", 0)
            inject["restore_s"] += ev.get("restore_s", 0.0)
            self.inject_hist.observe(ev.get("wall_s", 0.0))
            saved = ev.get("saved_cycles", 0)
            inject["saved_cycles"] += saved
            if saved > 0:
                inject["restores"] += 1
            else:
                inject["cold_starts"] += 1
            reason = ev.get("reason", "unknown")
            self.outcomes[reason] = self.outcomes.get(reason, 0) + 1
            stop = ev.get("early_stop")
            if stop:
                self.early_stops[stop] = self.early_stops.get(stop, 0) + 1
            inv = ev.get("invariant")
            if inv:
                guard["invariant_violations"] += 1
                guard["invariants"][inv] = \
                    guard["invariants"].get(inv, 0) + 1
        elif name == "guard.contamination":
            guard["contaminations"] += 1
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
        elif name == "classify":
            self.classify["calls"] += 1
            self.classify["wall_s"] += ev.get("wall_s", 0.0)
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
        elif name == "quota_rejected":
            self.svc["quota_rejections"] += 1
            reason = ev.get("reason", "unknown")
            self.svc["quota_reasons"][reason] = \
                self.svc["quota_reasons"].get(reason, 0) + 1
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
        golden, maskgen, inject = self.golden, self.maskgen, self.inject
        denom = inject["sim_cycles"] + inject["saved_cycles"]
        return {
            "events": self.events,
            "campaigns": list(self.campaigns),
            "phases": {
                "golden_s": golden["wall_s"],
                "maskgen_s": maskgen["wall_s"],
                "inject_s": inject["wall_s"],
                "classify_s": self.classify["wall_s"],
            },
            # A study pays one golden run per pair unless a unit's
            # lease beat its pair's blob; runs > pairs shows the excess.
            "golden": {**golden, "pairs": len(
                {(c["setup"], c["benchmark"]) for c in self.campaigns
                 if c["setup"] is not None})},
            "masks_generated": maskgen["masks"],
            "injections": inject["runs"],
            "injections_per_sec": (inject["runs"] / inject["wall_s"]
                                   if inject["wall_s"] else 0.0),
            "outcomes": dict(sorted(self.outcomes.items())),
            "early_stops": dict(sorted(self.early_stops.items())),
            "early_stop_rate": (sum(self.early_stops.values())
                                / inject["runs"]
                                if inject["runs"] else 0.0),
            "checkpoint": {
                "restores": inject["restores"],
                "cold_starts": inject["cold_starts"],
                "cycles_saved": inject["saved_cycles"],
                "cycles_simulated": inject["sim_cycles"],
                "speedup_fraction": (inject["saved_cycles"] / denom
                                     if denom else 0.0),
                "snapshot_s": golden["snapshot_s"],
                "restore_s": inject["restore_s"],
                "bytes": golden["checkpoint_bytes"],
            },
            "latency": {
                "inject_s": self.inject_hist.summary(),
                "unit_s": self.unit_hist.summary(),
            },
            "wall_span_s": ((self.span["last_ts"] - self.span["first_ts"])
                            if self.span["first_ts"] is not None else 0.0),
            "sched": dict(self.sched),
            "svc": {**self.svc,
                    "tenants": dict(sorted(self.svc["tenants"].items())),
                    "quota_reasons": dict(sorted(
                        self.svc["quota_reasons"].items()))},
            "fleet": {**self.fleet,
                      "workers": dict(sorted(
                          self.fleet["workers"].items()))},
            "guard": {**self.guard,
                      "invariants": dict(self.guard["invariants"])},
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
    lines.append(f"golden     {g['runs']} run(s) for {g['pairs']} "
                 f"(setup, benchmark) pair(s), {g['cycles']} cycles, "
                 f"{g['checkpoints']} checkpoints")
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
    if sv.get("submitted") or sv.get("quota_rejections"):
        lines.append("")
        lines.append(
            f"service    {sv['submitted']} studies submitted "
            f"({sv['resumed']} resumed after restart): {sv['done']} done, "
            f"{sv['cancelled']} cancelled; "
            f"{sv['quota_rejections']} quota rejections")
        for tenant, count in sv.get("tenants", {}).items():
            lines.append(f"  tenant {tenant:<16s}{count:>6d} studies")
        for reason, count in sv.get("quota_reasons", {}).items():
            lines.append(f"  429 {reason:<19s}{count:>6d}")
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
