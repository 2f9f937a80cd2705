"""Command-line entry points.

``python -m repro.tools figures`` regenerates the paper's Figs. 2-6
content (classification per structure × benchmark × setup): it runs
the figures' cells as one pruned study in ``--out`` (a rerun resumes
it) and writes text renderings plus machine-readable JSON beside it.

``python -m repro.tools stats`` dumps the golden runtime statistics
behind the paper's remark explanations.

``python -m repro.tools campaign`` runs one (setup, benchmark,
structure) cell — serial or parallel — with optional JSONL event
capture (``--events``) and log persistence (``--logs``), and prints the
classification plus the telemetry summary.

``python -m repro.tools obs summarize events.jsonl`` renders a captured
event stream as a campaign report (``--follow`` tails a stream a
campaign is still writing); ``obs serve`` exposes a running study
directory over HTTP (/status JSON, /events NDJSON, a dashboard) and
``obs report`` renders it as a self-contained HTML file (see
docs/observability.md).

``python -m repro.tools sched run | resume | status | merge`` drives
full studies through the durable campaign scheduler (``repro.sched``):
journaled kill-and-resume, bounded retries with backoff, poison-unit
quarantine, and deterministic ``--shard i/n`` splitting across hosts
(see docs/scheduler.md).

``python -m repro.tools svc serve`` runs the campaign service — HTTP
study submission, many studies multiplexed round-robin onto one worker
fleet, durable kill-and-restart resume — and ``svc submit | list |
status | cancel`` are its thin HTTP clients.  ``svc worker`` joins a
remote worker agent to a running service (fenced leases, heartbeats,
content-addressed golden blobs) and ``svc gc --retention-s`` deletes
finished studies past one retention age.  All svc endpoints can
be guarded with a shared bearer token (``--token`` / ``SVC_TOKEN``).
Remote results are attested — ingest validation, determinism
challenges (``--challenge``) and sampled re-execution audits
(``--audit-fraction``) — and ``svc fleet`` prints the per-worker
trust scorecards.  (See docs/service.md and docs/robustness.md.)

``python -m repro.tools fsck PATH`` checks a study directory or a
whole service root offline — journal replay, repository set_id
uniqueness, record/golden/blob digests — and ``--repair`` truncates
torn tails (see docs/robustness.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core.ioutil import atomic_write_text
from repro.core.report import golden_stats
from repro.prune import PRUNE_POLICIES

FIGURE_NAMES = {"int_rf": "fig2", "l1d": "fig3", "l1i": "fig4",
                "l2": "fig5", "lsq": "fig6"}


def _cmd_figures(args) -> int:
    from repro.core.report import figure_spec, study_figures
    from repro.sched import CampaignPlan, Scheduler
    from repro.sched.study import JOURNAL_NAME
    outdir = Path(args.out)
    spec = figure_spec(args.structures or list(FIGURE_NAMES),
                       benchmarks=args.benchmarks or None,
                       injections=args.injections, seed=args.seed)
    t0 = time.monotonic()

    def progress(uid, state, done, total):
        print(f"[{time.monotonic() - t0:7.1f}s] {uid:44s} {state:11s} "
              f"{done}/{total}", flush=True)

    try:
        result = _run_scheduler(
            Scheduler(CampaignPlan(spec), outdir, progress=progress),
            resume=(outdir / JOURNAL_NAME).exists())
    except ValueError as exc:
        print(f"repro.tools figures: {exc}", file=sys.stderr)
        return 2
    if not result.ok:
        return _print_study_result(result, as_json=False)
    for fig in study_figures(spec, result.classifications()):
        name = f"{FIGURE_NAMES.get(fig.structure, fig.structure)}_" \
               f"{fig.structure}"
        text = fig.render()
        atomic_write_text(outdir / f"{name}.txt", text)
        atomic_write_text(outdir / f"{name}.json",
                          json.dumps(fig.summary_rows(), indent=1))
        print(text, flush=True)
    return 0


def _cmd_campaign(args) -> int:
    from repro.core.campaign import run_campaign
    from repro.core.parallel import run_campaign_parallel
    from repro.obs import JSONLSink, NullSink, Tracer

    sink = JSONLSink(args.events) if args.events else NullSink()
    tracer = Tracer(sink)
    try:
        kwargs = dict(injections=args.injections, seed=args.seed,
                      fault_type=args.fault_type,
                      early_stop=not args.no_early_stop,
                      logs_path=args.logs, tracer=tracer,
                      timeout_s=args.timeout_s, guard=args.guard,
                      prune=args.prune, trace_cache=args.trace_cache,
                      audit=args.audit)
        if args.workers > 0:
            result = run_campaign_parallel(args.setup, args.benchmark,
                                           args.structure,
                                           workers=args.workers, **kwargs)
        else:
            result = run_campaign(args.setup, args.benchmark,
                                  args.structure, **kwargs)
        counts = result.classify()
        if args.json:
            payload = {
                "setup": args.setup,
                "benchmark": args.benchmark,
                "structure": args.structure,
                "fault_type": args.fault_type,
                "seed": args.seed,
                "injections": result.injections,
                "counts": counts,
                "vulnerability": result.vulnerability(),
                "early_stops": result.early_stops,
                "prune": result.prune,
                "telemetry": result.telemetry.to_dict(),
            }
            print(json.dumps(payload, indent=1))
            return 0
        print(f"{args.setup} / {args.benchmark} / {args.structure} — "
              f"{result.injections} injections "
              f"({args.fault_type}, seed {args.seed})")
        print("  " + "  ".join(f"{k}={v}" for k, v in counts.items()))
        print(f"  vulnerability: {100 * result.vulnerability():.1f}%")
        if result.prune is not None:
            p = result.prune
            print(f"  prune [{p['policy']}]: {p['masked']} masked by "
                  f"analysis -> {p['simulated']} of {p['masks']} "
                  f"simulated  (trace: {p.get('trace_source')})")
            audit = p.get("audit")
            if audit is not None:
                verdict = ("OK" if not audit["divergences"]
                           and audit["pristine_digest_ok"] else "FAILED")
                print(f"  prune audit: {audit['checked']}/"
                      f"{audit['candidates']} re-simulated, "
                      f"{len(audit['divergences'])} divergences, "
                      f"pristine digest "
                      f"{'ok' if audit['pristine_digest_ok'] else 'BAD'}"
                      f"  [{verdict}]")
        print()
        print(result.telemetry.summary())
        if args.events:
            print(f"\nevents written to {args.events} "
                  f"(render with: python -m repro.tools obs summarize "
                  f"{args.events})")
    finally:
        tracer.close()
    return 0


def _cmd_obs_summarize(args) -> int:
    from repro.obs import load_event_dicts, render_report, summarize_events
    if args.follow:
        return _follow_summarize(args)
    try:
        summary = summarize_events(load_event_dicts(args.events))
    except FileNotFoundError:
        print(f"repro.tools obs summarize: no such events file: "
              f"{args.events}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro.tools obs summarize: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=1))
    else:
        print(render_report(summary))
    return 0


def _follow_summarize(args) -> int:
    """``obs summarize --follow``: tail the stream, re-render per poll."""
    from repro.obs import JSONLTailer, SummaryAccumulator, render_report
    tailer = JSONLTailer(args.events)
    acc = SummaryAccumulator()
    ended = False
    try:
        while True:
            rows = tailer.poll()
            for row in rows:
                if "name" not in row:
                    continue
                acc.add(row)
                if row["name"] == "study_end":
                    ended = True
            if rows:
                summary = acc.summary()
                if args.json:
                    print(json.dumps(summary, indent=1), flush=True)
                else:
                    print(render_report(summary), flush=True)
                    print("-" * 52, flush=True)
            elif ended:
                return 0          # stream complete and drained
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 130


def _cmd_obs_serve(args) -> int:
    from repro.obs.live import JOURNAL_NAME
    from repro.obs.server import serve_study
    study_dir = Path(args.study_dir)
    if not study_dir.is_dir():
        # A directory that exists but has no journal yet is a queued
        # study (serve it — /status reports state "queued"); a missing
        # directory is a typo.
        print(f"repro.tools obs serve: no journal under {args.study_dir}",
              file=sys.stderr)
        return 2
    waiting = not (study_dir / JOURNAL_NAME).exists()

    def ready(server):
        note = (" — journal not written yet; reporting state "
                "\"queued\" until the scheduler starts" if waiting else "")
        print(f"watching {args.study_dir} — "
              f"http://{server.host}:{server.port}/  "
              f"(/status JSON, /events NDJSON){note}", flush=True)

    try:
        serve_study(args.study_dir, host=args.host, port=args.port,
                    stall_after_s=args.stall_after_s, on_ready=ready)
    except KeyboardInterrupt:
        return 130
    return 0


def _cmd_obs_report(args) -> int:
    from repro.obs.report import report_study
    try:
        text = report_study(args.study_dir, out_path=args.out,
                            title=args.title)
    except FileNotFoundError:
        print(f"repro.tools obs report: no journal under "
              f"{args.study_dir}", file=sys.stderr)
        return 2
    if args.out:
        print(f"wrote {args.out} ({len(text.encode())} bytes, "
              f"self-contained)")
    else:
        print(text)
    return 0


def _stat_distributions(rows: dict) -> dict:
    """Aggregate each numeric stat across cells into p50/p90/p99."""
    from repro.obs import Histogram
    hists: dict[str, Histogram] = {}
    for s in rows.values():
        for name, value in s.items():
            if isinstance(value, (int, float)):
                hists.setdefault(name, Histogram()).observe(float(value))
    return {name: hist.summary() for name, hist in sorted(hists.items())}


def _cmd_stats(args) -> int:
    stats = golden_stats(benchmarks=args.benchmarks or None)
    rows = {f"{bench}/{setup}": s for (bench, setup), s in stats.items()}
    payload = dict(rows)
    payload["_distributions"] = _stat_distributions(rows)
    out = json.dumps(payload, indent=1)
    if args.out:
        atomic_write_text(args.out, out)
    if args.json or not sys.stdout.isatty():
        print(out)
    else:
        for cell, s in rows.items():
            pairs = "  ".join(f"{k}={v}" for k, v in sorted(s.items()))
            print(f"{cell:24s} {pairs}")
        print("across cells:")
        for name, dist in payload["_distributions"].items():
            print(f"  {name:20s} p50={dist['p50']:.0f} "
                  f"p90={dist['p90']:.0f} p99={dist['p99']:.0f}")
    return 0


def _parse_shard(text):
    try:
        index, count = text.split("/")
        return int(index), int(count)
    except Exception:
        raise argparse.ArgumentTypeError(
            f"--shard wants i/n (e.g. 0/2), got {text!r}")


def _spec_from_args(args):
    from repro.sched import StudySpec
    return StudySpec(
        setups=tuple(args.setups), benchmarks=tuple(args.benchmarks),
        structures=tuple(args.structures),
        fault_types=tuple(args.fault_types),
        injections=args.injections, confidence=args.confidence,
        error_margin=args.error_margin, seed=args.seed,
        early_stop=not args.no_early_stop,
        timeout_s=args.timeout_s, guard=args.guard, prune=args.prune)


def _sched_knobs(args) -> dict:
    return dict(workers=args.workers, unit_timeout_s=args.unit_timeout_s,
                max_retries=args.retries, backoff_s=args.backoff_s,
                fsync=not args.no_fsync, heartbeat_s=args.heartbeat_s)


def _print_study_result(result, as_json: bool) -> int:
    from repro.core.parser import vulnerability
    from repro.sched import DONE
    if as_json:
        print(json.dumps({
            "ok": result.ok,
            "interrupted": result.interrupted,
            "wall_s": result.wall_s,
            "units": result.classifications(),
            "totals": result.totals(),
            "quarantined": result.quarantined(),
        }, indent=1))
    else:
        for uid, cell in sorted(result.cells.items()):
            if cell.state == DONE:
                vuln = 100 * vulnerability(cell.counts)
                print(f"  {uid:44s} done  {cell.injections:4d} inj  "
                      f"vuln {vuln:5.1f}%  (attempt {cell.attempts})")
            else:
                print(f"  {uid:44s} {cell.state}  ({cell.error})")
        totals = result.totals()
        if totals:
            print("  totals: " + "  ".join(f"{k}={v}"
                                           for k, v in totals.items())
                  + f"  vuln {100 * vulnerability(totals):.1f}%")
        if result.interrupted:
            print("  study interrupted — resume with: "
                  "python -m repro.tools sched resume <dir>")
        elif result.quarantined():
            print(f"  quarantined: {', '.join(result.quarantined())}")
    if result.interrupted:
        return 130
    return 0 if result.ok else 3


def _run_scheduler(sched, resume: bool):
    """``sched.run(resume)``, with SIGTERM cancelling it gracefully."""
    import signal

    def on_term(signum, frame):
        sched.cancel()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, on_term)
    except ValueError:
        pass                        # not the main thread; no handler
    try:
        return sched.run(resume=resume)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _cmd_sched_run(args) -> int:
    from repro.sched import CampaignPlan, Scheduler
    plan = CampaignPlan.from_spec(_spec_from_args(args))
    if args.shard is not None:
        plan = plan.shard(*args.shard)
    if not args.json:
        shard = (f" (shard {args.shard[0]}/{args.shard[1]})"
                 if args.shard else "")
        print(f"study: {len(plan)} units{shard} -> {args.out}")
    sched = Scheduler(plan, args.out, **_sched_knobs(args))
    return _print_study_result(_run_scheduler(sched, resume=False),
                              args.json)


def _cmd_sched_resume(args) -> int:
    from repro.sched import Scheduler
    try:
        sched = Scheduler.resume(args.study_dir, **_sched_knobs(args))
    except FileNotFoundError:
        print(f"repro.tools sched resume: no journal under "
              f"{args.study_dir}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro.tools sched resume: {exc} — check the study with "
              f"`python -m repro.tools fsck {args.study_dir}`",
              file=sys.stderr)
        return 2
    return _print_study_result(_run_scheduler(sched, resume=True),
                              args.json)


def _fmt_eta(eta_s) -> str:
    if eta_s is None:
        return "-"
    if eta_s >= 90:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.0f}s"


def _print_sched_status(status: dict) -> None:
    shard = (f" shard {status['shard'][0]}/{status['shard'][1]}"
             if status["shard"] else "")
    print(f"study {status['study_dir']}  spec {status['spec_hash']}{shard}")
    tally = status["tally"]
    print("  " + "  ".join(f"{k}={v}" for k, v in tally.items())
          + f"  injections_done={status['injections_done']}")
    prog = status["progress"]
    planned = prog["planned_injections"]
    line = (f"  rate {prog['injections_per_sec']:.1f}/s  "
            f"eta {_fmt_eta(prog['eta_s'])}  "
            f"converged {prog['converged_cells']}/{status['units']} cells")
    if planned:
        line += f"  planned {planned}"
    print(line)
    if status["stalled"]:
        print(f"  STALLED: {', '.join(status['stalled'])}")
    for cell in status["cells"]:
        conv = cell["convergence"]
        flag = "converged" if conv["converged"] else (
            "" if conv["n"] == 0 else f"±{100 * conv['margin']:.1f}%")
        extra = "  STALLED" if cell["stalled"] else ""
        print(f"  {cell['unit']:44s} {cell['state']:11s} "
              f"attempts={cell['attempts']} inj={cell['injections']:4d} "
              f"{flag}{extra}")


def _cmd_sched_status(args) -> int:
    from repro.obs.live import load_study_view
    try:
        view = load_study_view(args.study_dir,
                               stall_after_s=args.stall_after_s)
    except FileNotFoundError:
        print(f"repro.tools sched status: no journal under "
              f"{args.study_dir}", file=sys.stderr)
        return 2
    try:
        while True:
            status = view.snapshot()
            if args.json:
                print(json.dumps(status, indent=1), flush=True)
            else:
                _print_sched_status(status)
            if args.watch is None or status["complete"]:
                return 0
            time.sleep(args.watch)
            view.refresh()
            if not args.json:
                print()
    except KeyboardInterrupt:
        return 130


def _cmd_sched_merge(args) -> int:
    from repro.sched import merge_studies
    try:
        merged = merge_studies(args.study_dirs)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro.tools sched merge: {exc}", file=sys.stderr)
        return 2
    out = json.dumps(merged, indent=1)
    if args.out:
        # Atomic: a partially-written merge JSON would read as a
        # corrupt (or silently truncated) study result downstream.
        atomic_write_text(args.out, out)
    if args.json:
        print(out)
    else:
        print(f"merged {merged['sources']} shard journal(s), spec "
              f"{merged['spec_hash']}: "
              f"{'complete' if merged['complete'] else 'INCOMPLETE'}")
        print("  totals: " + "  ".join(f"{k}={v}" for k, v in
                                       merged["totals"].items()))
        if merged["missing"]:
            print(f"  missing: {', '.join(merged['missing'])}")
        if merged["conflicts"]:
            print(f"  conflicts: {', '.join(merged['conflicts'])}")
        if merged["quarantined"]:
            print(f"  quarantined: {', '.join(merged['quarantined'])}")
    return 0 if merged["complete"] else 3


def _svc_token(args) -> str | None:
    """--token wins; falls back to the SVC_TOKEN environment variable."""
    token = getattr(args, "token", None)
    if token is None:
        token = os.environ.get("SVC_TOKEN") or None
    return token


def _cmd_svc_serve(args) -> int:
    import signal

    from repro.svc import CampaignService
    from repro.svc.api import ServiceServer
    try:
        service = CampaignService(
            args.root, workers=args.workers,
            unit_timeout_s=args.unit_timeout_s,
            max_retries=args.retries, backoff_s=args.backoff_s,
            fsync=not args.no_fsync, heartbeat_s=args.heartbeat_s,
            lease_heartbeat_s=args.lease_heartbeat_s,
            miss_budget=args.miss_budget,
            attest=not args.no_attest, audit_fraction=args.audit_fraction,
            audit_seed=args.audit_seed, challenge=args.challenge,
            reject_limit=args.reject_limit)
    except ValueError as exc:
        print(f"repro.tools svc serve: {exc} — check the root with "
              f"`python -m repro.tools fsck {args.root}`", file=sys.stderr)
        return 2
    server = ServiceServer(service, host=args.host, port=args.port,
                           token=_svc_token(args))
    terminated = []

    def on_term(signum, frame):
        terminated.append(signum)
        server.stop()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, on_term)
    except ValueError:
        pass                        # not the main thread; no handler

    def ready(srv):
        print(f"campaign service over {args.root} — "
              f"http://{srv.host}:{srv.port}/status  "
              f"(POST /studies to submit)", flush=True)

    try:
        server.serve_forever(ready)
    except KeyboardInterrupt:
        terminated.append(signal.SIGINT)
    finally:
        service.close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 130 if terminated else 0


def _svc_http(url: str, method: str, path: str, payload=None,
              timeout_s: float = 30.0, token: str | None = None):
    """One JSON request against a service; returns (status, payload)."""
    import urllib.error
    import urllib.request
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    req = urllib.request.Request(
        url.rstrip("/") + path, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return resp.status, json.loads(resp.read() or b"null")
    except urllib.error.HTTPError as exc:
        try:
            return exc.code, json.loads(exc.read() or b"null")
        except json.JSONDecodeError:
            return exc.code, {"error": f"HTTP {exc.code}"}


_SVC_CONNECT_HINT = ("is `repro.tools svc serve` running there? "
                     "(--url must match its host:port)")


def _cmd_svc_submit(args) -> int:
    import urllib.error
    if args.spec_json is not None:
        raw = args.spec_json
    elif args.spec_file == "-":
        raw = sys.stdin.read()
    else:
        try:
            raw = Path(args.spec_file).read_text()
        except FileNotFoundError:
            print(f"repro.tools svc submit: no such spec file: "
                  f"{args.spec_file}", file=sys.stderr)
            return 2
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"repro.tools svc submit: spec is not JSON: {exc}",
              file=sys.stderr)
        return 2
    try:
        status, body = _svc_http(args.url, "POST", "/studies",
                                 {"tenant": args.tenant, "spec": spec},
                                 token=_svc_token(args))
    except urllib.error.URLError as exc:
        print(f"repro.tools svc submit: {exc.reason} — "
              f"{_SVC_CONNECT_HINT}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(body, indent=1))
    elif status == 202:
        print(f"accepted: {body['id']} (tenant {body['tenant']}) — "
              f"status at {args.url.rstrip('/')}{body['status_url']}")
    else:
        print(f"repro.tools svc submit: HTTP {status}: "
              f"{body.get('error', body)}", file=sys.stderr)
    return 0 if status == 202 else 2


def _cmd_svc_list(args) -> int:
    import urllib.error
    try:
        status, body = _svc_http(args.url, "GET", "/studies",
                                 token=_svc_token(args))
    except urllib.error.URLError as exc:
        print(f"repro.tools svc list: {exc.reason} — {_SVC_CONNECT_HINT}",
              file=sys.stderr)
        return 2
    if status != 200:
        print(f"repro.tools svc list: HTTP {status}: {body}",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(body, indent=1))
        return 0
    for row in body["studies"]:
        tally = row.get("tally") or {}
        done = tally.get("done", 0)
        units = row.get("units", tally.get("units", "?"))
        print(f"  {row['id']:<22s} {row['tenant']:12s} "
              f"{row['state']:9s} {done}/{units} units  "
              f"{row.get('injections_done', 0)} injections")
    if not body["studies"]:
        print("  (no studies submitted yet)")
    return 0


def _cmd_svc_status(args) -> int:
    import urllib.error
    path = f"/studies/{args.study_id}/status" if args.study_id \
        else "/status"
    try:
        status, body = _svc_http(args.url, "GET", path,
                                 token=_svc_token(args))
    except urllib.error.URLError as exc:
        print(f"repro.tools svc status: {exc.reason} — "
              f"{_SVC_CONNECT_HINT}", file=sys.stderr)
        return 2
    if status != 200:
        print(f"repro.tools svc status: HTTP {status}: "
              f"{body.get('error', body)}", file=sys.stderr)
        return 2
    print(json.dumps(body, indent=1))
    return 0


def _cmd_svc_cancel(args) -> int:
    import urllib.error
    try:
        status, body = _svc_http(args.url, "POST",
                                 f"/studies/{args.study_id}/cancel",
                                 token=_svc_token(args))
    except urllib.error.URLError as exc:
        print(f"repro.tools svc cancel: {exc.reason} — "
              f"{_SVC_CONNECT_HINT}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(body, indent=1))
    elif status == 200:
        print(f"cancelled {body['id']}: {body['dropped']} queued "
              f"dropped, {body['killed']} leases killed")
    else:
        print(f"repro.tools svc cancel: HTTP {status}: "
              f"{body.get('error', body)}", file=sys.stderr)
    if status == 200:
        return 0
    return 3 if status == 409 else 2


def _cmd_svc_worker(args) -> int:
    import signal

    from repro.svc.remote import WorkerAgent
    agent = WorkerAgent(args.connect, name=args.name,
                        token=_svc_token(args), workers=args.workers,
                        cache_dir=args.cache_dir,
                        scratch_dir=args.scratch_dir,
                        fsync=not args.no_fsync)
    terminated = []

    def on_term(signum, frame):
        terminated.append(signum)
        agent.stop()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, on_term)
    except ValueError:
        pass                        # not the main thread; no handler
    print(f"worker {agent.name} -> {agent.url} "
          f"({agent.pool.workers} slots)", flush=True)
    try:
        agent.run()
    except KeyboardInterrupt:
        terminated.append(signal.SIGINT)
    except RuntimeError as exc:     # bad token / rejected registration
        print(f"repro.tools svc worker: {exc}", file=sys.stderr)
        return 2
    finally:
        agent.pool.terminate_all()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    print(f"worker {agent.name}: {agent.completed} completed, "
          f"{agent.discarded} discarded, "
          f"{agent.registrations} registrations", flush=True)
    return 130 if terminated else 0


def _cmd_svc_gc(args) -> int:
    from repro.svc.service import collect_garbage
    try:
        report = collect_garbage(args.root, retention_s=args.retention_s,
                                 dry_run=args.dry_run)
    except ValueError as exc:
        print(f"repro.tools svc gc: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    verb = "would purge" if report["dry_run"] else "purged"
    rows = report["candidates"] if report["dry_run"] else report["purged"]
    for row in rows:
        print(f"  {verb} {row['id']:<22s} {row['tenant']:12s} "
              f"{row['state']:9s} age {row['age_s']:.0f}s "
              f"(retention {row['retention_s']:.0f}s)")
    for study_id in report["resweeps"]:
        print(f"  swept {study_id} (journaled by an earlier gc)")
    if not rows and not report["resweeps"]:
        print("  nothing past retention")
    return 0


def _cmd_svc_fleet(args) -> int:
    import urllib.error
    try:
        status, body = _svc_http(args.url, "GET", "/status",
                                 token=_svc_token(args))
    except urllib.error.URLError as exc:
        print(f"repro.tools svc fleet: {exc.reason} — "
              f"{_SVC_CONNECT_HINT}", file=sys.stderr)
        return 2
    if status != 200:
        print(f"repro.tools svc fleet: HTTP {status}: "
              f"{body.get('error', body)}", file=sys.stderr)
        return 2
    attest = body.get("attest")
    if args.json:
        print(json.dumps({"remote": body.get("remote"),
                          "attest": attest}, indent=1))
        return 0
    remote = body.get("remote") or {}
    print(f"remote workers: {remote.get('workers', 0)}  "
          f"active leases: {remote.get('leases', 0)}")
    if attest is None:
        print("  (attestation disabled — service runs with --no-attest)")
        return 0
    print(f"attestation: challenge={'on' if attest['challenge'] else 'off'}"
          f"  audit_fraction={attest['audit_fraction']:g}"
          f"  audit_queue={attest['audit_queue']}")
    print(f"  rejected {attest['rejected']}  "
          f"audits ok/diverged/inconclusive "
          f"{attest['audits_ok']}/{attest['audits_diverged']}/"
          f"{attest['audits_inconclusive']}  "
          f"voided {attest['voided']}  distrusted {attest['distrusted']}")
    workers = attest.get("workers") or {}
    if not workers:
        print("  (no workers have registered yet)")
        return 0
    print(f"  {'worker':<22s} {'state':<17s} {'completes':>9s} "
          f"{'rejects':>7s} {'diverge':>7s} {'misses':>6s}")
    for name, card in workers.items():
        line = (f"  {name:<22s} {card['state']:<17s} "
                f"{card['completes']:>9d} {card['rejects']:>7d} "
                f"{card['divergences']:>7d} {card['misses']:>6d}")
        if card.get("reason"):
            line += f"  ({card['reason']})"
        print(line)
    return 0


def _cmd_fsck(args) -> int:
    from repro.svc.fsck import fsck_path
    try:
        kind, findings = fsck_path(args.path, repair=args.repair)
    except ValueError as exc:
        print(f"repro.tools fsck: {exc}", file=sys.stderr)
        return 2
    unrepaired = [f for f in findings if not f["repaired"]]
    if args.json:
        print(json.dumps({"kind": kind, "findings": findings,
                          "clean": not unrepaired}, indent=1))
        return 0 if not unrepaired else 3
    for f in findings:
        mark = "repaired" if f["repaired"] else "FINDING"
        print(f"{mark}: {f['path']}: {f['check']} — {f['detail']}")
    if unrepaired:
        print(f"fsck({kind}): {len(unrepaired)} finding(s)"
              + ("" if args.repair else " — torn tails are repairable "
                                        "with --repair"))
        return 3
    print(f"fsck({kind}): clean"
          + (f" ({len(findings)} tail(s) repaired)" if findings else ""))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="MaFIN/GeFIN differential-study drivers")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_fig = sub.add_parser("figures", help="regenerate Figs. 2-6 content")
    p_fig.add_argument("--structures", nargs="*",
                       help="structures (default: the five paper figures)")
    p_fig.add_argument("--benchmarks", nargs="*",
                       help="benchmark subset (default: all ten)")
    p_fig.add_argument("--injections", type=int, default=None,
                       help="injections per cell (paper: 2000)")
    p_fig.add_argument("--seed", type=int, default=1)
    p_fig.add_argument("--out", default="results",
                       help="study directory (journal, events, logs, "
                            "masks) and figure outputs; a rerun resumes "
                            "it")
    p_fig.set_defaults(fn=_cmd_figures)

    p_st = sub.add_parser("stats", help="golden runtime statistics")
    p_st.add_argument("--benchmarks", nargs="*")
    p_st.add_argument("--out", default=None)
    p_st.add_argument("--json", action="store_true",
                      help="print machine-readable JSON instead of a table "
                           "(implied when stdout is not a tty)")
    p_st.set_defaults(fn=_cmd_stats)

    p_camp = sub.add_parser("campaign",
                            help="run one campaign cell with telemetry")
    p_camp.add_argument("setup", help="MaFIN-x86 | GeFIN-x86 | GeFIN-ARM")
    p_camp.add_argument("benchmark")
    p_camp.add_argument("structure")
    p_camp.add_argument("--injections", type=int, default=None)
    p_camp.add_argument("--seed", type=int, default=1,
                        help="mask-generation RNG seed — the same seed "
                             "replays the same fault list (default: 1)")
    p_camp.add_argument("--fault-type", default="transient",
                        choices=["transient", "intermittent", "permanent"])
    p_camp.add_argument("--workers", type=int, default=0,
                        help="process-pool size (0 = serial)")
    p_camp.add_argument("--timeout-s", type=float, default=None,
                        help="per-injection wall-clock budget in seconds; "
                             "runs past it classify as Timeout (default: "
                             "no limit)")
    p_camp.add_argument("--guard", choices=["off", "basic", "strict"],
                        default="off",
                        help="hardening policy: invariant checks, crash "
                             "containment, restore integrity "
                             "(docs/robustness.md)")
    p_camp.add_argument("--no-early-stop", action="store_true")
    p_camp.add_argument("--prune", choices=PRUNE_POLICIES, default="off",
                        help="golden-trace pre-classification: 'analyze' "
                             "marks provably-Masked masks without "
                             "simulation (docs/performance.md)")
    p_camp.add_argument("--trace-cache", default=None, metavar="DIR",
                        help="directory caching the golden access trace "
                             "per (setup, benchmark)")
    p_camp.add_argument("--audit", type=int, default=0, metavar="N",
                        help="really simulate N pruned masks and report "
                             "classification divergences (prune "
                             "soundness check)")
    p_camp.add_argument("--json", action="store_true",
                        help="machine-readable result (counts, prune "
                             "stats, telemetry) instead of text")
    p_camp.add_argument("--events", default=None,
                        help="capture the event stream to this JSONL file")
    p_camp.add_argument("--logs", default=None,
                        help="persist golden + records to this JSONL file")
    p_camp.set_defaults(fn=_cmd_campaign)

    p_obs = sub.add_parser("obs", help="telemetry utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_cmd", required=True)
    p_sum = obs_sub.add_parser(
        "summarize", help="render a JSONL event stream as a report")
    p_sum.add_argument("events", help="events file from a JSONL sink")
    p_sum.add_argument("--json", action="store_true",
                       help="machine-readable summary instead of text")
    p_sum.add_argument("--follow", action="store_true",
                       help="keep tailing the stream, re-rendering as "
                            "events arrive; exits after study_end")
    p_sum.add_argument("--interval", type=float, default=2.0,
                       help="--follow poll interval in seconds "
                            "(default: 2)")
    p_sum.set_defaults(fn=_cmd_obs_summarize)

    p_srv = obs_sub.add_parser(
        "serve", help="HTTP status server over a running study directory")
    p_srv.add_argument("--study-dir", required=True,
                       help="study directory (another process may still "
                            "be writing it)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8436,
                       help="TCP port (0 = pick a free one; default: 8436)")
    p_srv.add_argument("--stall-after-s", type=float, default=120.0,
                       help="flag a leased unit as stalled after this "
                            "many seconds without log growth")
    p_srv.set_defaults(fn=_cmd_obs_serve)

    p_rep = obs_sub.add_parser(
        "report", help="self-contained HTML report from a study directory")
    p_rep.add_argument("--study-dir", required=True)
    p_rep.add_argument("--out", default=None,
                       help="write the HTML here (default: print to "
                            "stdout)")
    p_rep.add_argument("--title", default=None,
                       help="report title (default: the study directory)")
    p_rep.set_defaults(fn=_cmd_obs_report)

    p_sched = sub.add_parser(
        "sched", help="durable study scheduler (journal, resume, shards)")
    sched_sub = p_sched.add_subparsers(dest="sched_cmd", required=True)

    def add_knobs(p):
        p.add_argument("--workers", type=int, default=2,
                       help="concurrent unit leases (default: 2)")
        p.add_argument("--unit-timeout-s", type=float, default=None,
                       help="kill a unit's worker after this many seconds "
                            "and count the attempt as failed")
        p.add_argument("--retries", type=int, default=2,
                       help="failed attempts before quarantine (default: 2)")
        p.add_argument("--backoff-s", type=float, default=0.5,
                       help="base retry delay, doubled per attempt")
        p.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on journal/log appends (faster, "
                            "loses crash durability)")
        p.add_argument("--heartbeat-s", type=float, default=None,
                       help="emit a scheduler heartbeat event at this "
                            "interval (needs event tracing; lets "
                            "observers tell a slow unit from a dead "
                            "scheduler)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable result instead of text")

    p_run = sched_sub.add_parser(
        "run", help="expand a study spec and run it to completion")
    p_run.add_argument("--out", required=True,
                       help="study directory (journal, events, logs, masks)")
    p_run.add_argument("--setups", nargs="+",
                       default=["MaFIN-x86", "GeFIN-x86"])
    p_run.add_argument("--benchmarks", nargs="+", required=True)
    p_run.add_argument("--structures", nargs="+", required=True)
    p_run.add_argument("--fault-types", nargs="+", default=["transient"],
                       choices=["transient", "intermittent", "permanent"])
    p_run.add_argument("--injections", type=int, default=None,
                       help="injections per cell (default: the §III.C "
                            "statistical sample size)")
    p_run.add_argument("--confidence", type=float, default=0.99)
    p_run.add_argument("--error-margin", type=float, default=0.03)
    p_run.add_argument("--seed", type=int, default=1,
                       help="study seed; each unit derives its own "
                            "mask-generation seed from it")
    p_run.add_argument("--timeout-s", type=float, default=None,
                       help="per-injection wall-clock budget (see "
                            "campaign --timeout-s)")
    p_run.add_argument("--guard", choices=["off", "basic", "strict"],
                       default="off",
                       help="hardening policy applied in every unit "
                            "worker (docs/robustness.md)")
    p_run.add_argument("--no-early-stop", action="store_true")
    p_run.add_argument("--prune", choices=PRUNE_POLICIES, default="off",
                       help="golden-trace pre-classification in every "
                            "unit worker (see campaign --prune)")
    p_run.add_argument("--shard", type=_parse_shard, default=None,
                       metavar="I/N",
                       help="run only this host's deterministic 1/N "
                            "slice of the unit grid")
    add_knobs(p_run)
    p_run.set_defaults(fn=_cmd_sched_run)

    p_res = sched_sub.add_parser(
        "resume", help="continue an interrupted study from its journal")
    p_res.add_argument("study_dir")
    add_knobs(p_res)
    p_res.set_defaults(fn=_cmd_sched_resume)

    p_stat = sched_sub.add_parser(
        "status", help="report per-unit progress from a study journal")
    p_stat.add_argument("study_dir")
    p_stat.add_argument("--json", action="store_true",
                        help="machine-readable status instead of text")
    p_stat.add_argument("--watch", type=float, default=None, metavar="N",
                        help="re-poll and re-print every N seconds; "
                             "exits when the study completes")
    p_stat.add_argument("--stall-after-s", type=float, default=120.0,
                        help="flag a leased unit as stalled after this "
                             "many seconds without log growth")
    p_stat.set_defaults(fn=_cmd_sched_status)

    p_mrg = sched_sub.add_parser(
        "merge", help="combine shard study dirs into one result")
    p_mrg.add_argument("study_dirs", nargs="+")
    p_mrg.add_argument("--out", default=None,
                       help="also write the merged JSON to this file")
    p_mrg.add_argument("--json", action="store_true",
                       help="print the merged JSON to stdout")
    p_mrg.set_defaults(fn=_cmd_sched_merge)

    p_svc = sub.add_parser(
        "svc", help="campaign service (HTTP submission, shared fleet)")
    svc_sub = p_svc.add_subparsers(dest="svc_cmd", required=True)

    p_serve = svc_sub.add_parser(
        "serve", help="run the campaign service over a root directory")
    p_serve.add_argument("--root", required=True,
                         help="service root (service journal + one "
                              "study directory per submission)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8437,
                         help="TCP port (0 = pick a free one; "
                              "default: 8437)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="shared worker-fleet size (default: 2)")
    p_serve.add_argument("--unit-timeout-s", type=float, default=None,
                         help="kill a unit's worker after this many "
                              "seconds and count the attempt as failed")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="failed attempts before quarantine "
                              "(default: 2)")
    p_serve.add_argument("--backoff-s", type=float, default=0.5,
                         help="base retry delay, doubled per attempt")
    p_serve.add_argument("--no-fsync", action="store_true",
                         help="skip fsync on journal appends (faster, "
                              "loses crash durability)")
    p_serve.add_argument("--heartbeat-s", type=float, default=5.0,
                         help="svc_heartbeat event interval in seconds "
                              "(default: 5)")
    p_serve.add_argument("--lease-heartbeat-s", type=float, default=5.0,
                         help="remote-worker heartbeat cadence "
                              "(default: 5)")
    p_serve.add_argument("--miss-budget", type=int, default=3,
                         help="missed heartbeats before a remote "
                              "worker's leases are revoked (default: 3)")
    p_serve.add_argument("--token", default=None,
                         help="require this bearer token on every "
                              "endpoint (default: $SVC_TOKEN, else "
                              "no auth)")
    p_serve.add_argument("--no-attest", action="store_true",
                         help="trust remote completes verbatim (skip "
                              "ingest validation, audits, challenges)")
    p_serve.add_argument("--audit-fraction", type=float, default=0.0,
                         help="re-execute this fraction of remote "
                              "completions locally and diff the records "
                              "byte-for-byte (default: 0)")
    p_serve.add_argument("--audit-seed", type=int, default=0,
                         help="seed for the audit sampling RNG "
                              "(default: 0)")
    p_serve.add_argument("--challenge", action="store_true",
                         help="require a determinism challenge (canned "
                              "unit, byte-identical records) before a "
                              "worker may hold leases")
    p_serve.add_argument("--reject-limit", type=int, default=3,
                         help="rejected completes before a worker is "
                              "distrusted outright (default: 3)")
    p_serve.set_defaults(fn=_cmd_svc_serve)

    def add_svc_client(p):
        p.add_argument("--url", default="http://127.0.0.1:8437",
                       help="service base URL (default: "
                            "http://127.0.0.1:8437)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable response instead of text")
        p.add_argument("--token", default=None,
                       help="bearer token for an authenticated service "
                            "(default: $SVC_TOKEN)")

    p_sub2 = svc_sub.add_parser(
        "submit", help="submit a study spec to a running service")
    p_sub2.add_argument("--tenant", default="default",
                        help="label recorded with the study "
                             "(default: default)")
    spec_src = p_sub2.add_mutually_exclusive_group(required=True)
    spec_src.add_argument("--spec-file", default=None,
                          help="JSON StudySpec file ('-' for stdin)")
    spec_src.add_argument("--spec-json", default=None,
                          help="inline JSON StudySpec")
    add_svc_client(p_sub2)
    p_sub2.set_defaults(fn=_cmd_svc_submit)

    p_list = svc_sub.add_parser("list", help="list submitted studies")
    add_svc_client(p_list)
    p_list.set_defaults(fn=_cmd_svc_list)

    p_sstat = svc_sub.add_parser(
        "status", help="service snapshot, or one study's status")
    p_sstat.add_argument("study_id", nargs="?", default=None)
    add_svc_client(p_sstat)
    p_sstat.set_defaults(fn=_cmd_svc_status)

    p_cxl = svc_sub.add_parser("cancel", help="cancel a study")
    p_cxl.add_argument("study_id")
    add_svc_client(p_cxl)
    p_cxl.set_defaults(fn=_cmd_svc_cancel)

    p_wkr = svc_sub.add_parser(
        "worker", help="join this machine to a campaign service as a "
                       "remote worker")
    p_wkr.add_argument("--connect", required=True, metavar="URL",
                       help="service base URL, e.g. "
                            "http://svc-host:8437")
    p_wkr.add_argument("--name", default=None,
                       help="worker name (default: <host>-<pid>)")
    p_wkr.add_argument("--workers", type=int, default=2,
                       help="local unit slots (default: 2)")
    p_wkr.add_argument("--cache-dir", default=None,
                       help="golden-blob cache directory (default: "
                            "under the scratch dir)")
    p_wkr.add_argument("--scratch-dir", default=None,
                       help="where unit files are staged before "
                            "shipping (default: .repro-worker-<name>)")
    p_wkr.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on scratch unit files")
    p_wkr.add_argument("--token", default=None,
                       help="bearer token for an authenticated service "
                            "(default: $SVC_TOKEN)")
    p_wkr.set_defaults(fn=_cmd_svc_worker)

    p_gc = svc_sub.add_parser(
        "gc", help="delete terminal study dirs past their retention")
    p_gc.add_argument("--root", required=True,
                      help="service root to sweep")
    p_gc.add_argument("--retention-s", type=float, default=None,
                      help="delete studies terminal for at least this "
                           "many seconds (default: keep every study)")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be purged, delete nothing")
    p_gc.add_argument("--json", action="store_true",
                      help="machine-readable report")
    p_gc.set_defaults(fn=_cmd_svc_gc)

    p_fleet = svc_sub.add_parser(
        "fleet", help="per-worker trust scorecards and audit state")
    add_svc_client(p_fleet)
    p_fleet.set_defaults(fn=_cmd_svc_fleet)

    p_fsck = sub.add_parser(
        "fsck", help="offline integrity check of a study directory or "
                     "service root")
    p_fsck.add_argument("path",
                        help="study directory (journal.jsonl) or "
                             "service root (service.jsonl)")
    p_fsck.add_argument("--repair", action="store_true",
                        help="truncate torn (crash-interrupted) final "
                             "lines — the only mutation fsck makes")
    p_fsck.add_argument("--json", action="store_true",
                        help="machine-readable findings")
    p_fsck.set_defaults(fn=_cmd_fsck)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
