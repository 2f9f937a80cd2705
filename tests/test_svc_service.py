"""The campaign service: admission, dispatch order, durability, HTTP.

Like the scheduler tests these run real (tiny) studies through worker
processes — the service-level guarantees under test (kill-and-restart
losslessness, cross-study golden caching, cancel) only mean something
against the real fleet.  Dispatch-order tests use the chaos hook so
no simulation runs at all.
"""

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.campaign import run_campaign
from repro.sched import (DONE, LEASED, CampaignPlan, Journal, StudySpec,
                         load_journal)
from repro.svc import (CANCELLED, STUDY_DONE, CampaignService,
                       ServiceJournal, fsck_service, load_service,
                       study_id_for)
from repro.svc.api import MAX_BODY, ServiceServer

SETUP = "MaFIN-x86"


def spec(**over):
    base = dict(setups=(SETUP,), benchmarks=("sha",),
                structures=("int_rf",), fault_types=("transient",),
                injections=2, seed=7)
    base.update(over)
    return StudySpec(**base)


def spec_dict(**over):
    """The same study as an untrusted wire-format dict."""
    base = dict(setups=[SETUP], benchmarks=["sha"],
                structures=["int_rf"], fault_types=["transient"],
                injections=2, seed=7)
    base.update(over)
    return base


def direct_counts(sp):
    """Ground truth for a spec: each unit run straight through core."""
    totals = {}
    for unit in CampaignPlan.from_spec(sp):
        counts = run_campaign(unit.setup, unit.benchmark, unit.structure,
                              injections=sp.injections,
                              seed=unit.seed(sp.seed)).classify()
        for cls, n in counts.items():
            totals[cls] = totals.get(cls, 0) + n
    return totals


def done_records(journal_path):
    """unit_id -> number of DONE journal records (losslessness probe)."""
    out = {}
    for line in journal_path.read_text().strip().splitlines():
        row = json.loads(line)
        if row.get("state") == DONE:
            out[row["unit"]] = out.get(row["unit"], 0) + 1
    return out


class TestServiceJournal:
    """The study ledger replays exactly, torn tail and all."""

    def test_replay_roundtrip(self, tmp_path):
        path = tmp_path / "service.jsonl"
        with ServiceJournal(path, fsync=False) as j:
            j.record_submit("s0001-abc123", "alice", {"seed": 7},
                            "abc123", ["u1", "u2"])
            j.record_submit("s0002-def456", "bob", {"seed": 8},
                            "def456", ["u1"])
            j.record_state("s0001-abc123", "running")
            j.record_state("s0001-abc123", "done")
        state = load_service(path)
        assert list(state.studies) == ["s0001-abc123", "s0002-def456"]
        assert state.studies["s0001-abc123"].state == STUDY_DONE
        assert state.studies["s0001-abc123"].terminal
        assert state.studies["s0002-def456"].state == "accepted"
        assert [r.study_id for r in state.active()] == ["s0002-def456"]
        assert state.tally()["done"] == 1
        assert state.next_serial() == 3

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "service.jsonl"
        with ServiceJournal(path, fsync=False) as j:
            j.record_submit("s0001-abc123", "alice", {}, "abc123", ["u1"])
        with open(path, "a") as fh:
            fh.write('{"kind": "state", "id": "s0001-ab')   # the crash
        state = load_service(path)
        assert state.studies["s0001-abc123"].state == "accepted"

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "service.jsonl"
        with ServiceJournal(path, fsync=False) as j:
            j.record_epoch(1)
            j.record_submit("s0001-abc123", "alice", {}, "abc123", ["u1"])
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0][:15] + "\n" + lines[1])
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:1: corrupt")):
            load_service(path)

    def test_restart_over_torn_ledger(self, tmp_path):
        # The crash tore the ledger's last row.  The next incarnation's
        # epoch row and the study it admits must both replay, and the
        # incarnation after it must mint a higher epoch again.
        ledger = tmp_path / "service.jsonl"
        with CampaignService(tmp_path, workers=1, fsync=False):
            pass
        with open(ledger, "a") as fh:
            fh.write('{"kind": "state", "id": "s0001-ab')   # the crash
        with CampaignService(tmp_path, workers=1, fsync=False) as svc:
            assert svc.state.epoch == 2
            sid = svc.submit(spec(), tenant="alice")
        state = load_service(ledger)
        assert list(state.studies) == [sid]
        assert state.epoch == 2
        with CampaignService(tmp_path, workers=1, fsync=False) as svc:
            assert svc.state.epoch == 3
        assert load_service(ledger).epoch == 3

    def test_serve_over_corrupt_ledger_points_at_fsck(self, tmp_path,
                                                      capsys):
        from repro import tools
        (tmp_path / "service.jsonl").write_text(
            '{"kind": "epoch", "ep\n{"kind": "epoch", "epoch": 2}\n')
        rc = tools.main(["svc", "serve", "--root", str(tmp_path),
                         "--port", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "service.jsonl:1: corrupt" in err
        assert "repro.tools fsck" in err

    def test_state_for_unknown_study_ignored(self, tmp_path):
        path = tmp_path / "service.jsonl"
        with ServiceJournal(path, fsync=False) as j:
            j.record_state("s9999-nobody", "done")
        assert load_service(path).studies == {}

    def test_missing_journal_is_empty_state(self, tmp_path):
        assert load_service(tmp_path / "absent.jsonl").studies == {}

    def test_study_id_shape(self):
        assert study_id_for(3, "deadbeef99") == "s0003-deadbe"


class TestServiceLifecycle:
    def test_two_tenants_to_completion_match_direct(self, tmp_path):
        sp_a, sp_b = spec(), spec(structures=("l1d",))
        with CampaignService(tmp_path, workers=2, fsync=False) as svc:
            sid_a = svc.submit(sp_a, tenant="alice")
            sid_b = svc.submit(spec_dict(structures=["l1d"]), tenant="bob")
            svc.run_until_idle(timeout_s=120)
            for sid, sp in ((sid_a, sp_a), (sid_b, sp_b)):
                row = svc.study_status(sid)
                assert row["state"] == STUDY_DONE
                assert row["tally"] == {"units": 1, "done": 1,
                                        "quarantined": 0, "pending": 0}
                # The service-run study equals a direct core campaign.
                assert row["totals"] == direct_counts(sp)
            assert svc.metrics.counter_value("svc.studies_submitted") == 2
            assert svc.metrics.counter_value("svc.studies_done") == 2
            assert svc.idle
        # Both layers of durable state agree after close.
        state = load_service(tmp_path / "service.jsonl")
        assert state.tally()["done"] == 2
        for sid in (sid_a, sid_b):
            journal = tmp_path / "studies" / sid / "journal.jsonl"
            assert all(n == 1 for n in done_records(journal).values())

    def test_service_events_feed_the_report(self, tmp_path):
        from pathlib import Path

        from repro.obs.summarize import load_events, summarize_events
        with CampaignService(tmp_path, workers=1, fsync=False) as svc:
            svc.submit(spec(), tenant="alice")
            svc.run_until_idle(timeout_s=120)
        summary = summarize_events(
            load_events(Path(tmp_path) / "service-events.jsonl"))
        assert summary["svc"]["submitted"] == 1
        assert summary["svc"]["done"] == 1
        # The tenant histogram counts submissions, not lifecycle events.
        assert summary["svc"]["tenants"] == {"alice": 1}

    def test_submit_rejects_bad_specs(self, tmp_path):
        with CampaignService(tmp_path, workers=1, fsync=False) as svc:
            with pytest.raises(ValueError, match="unknown .*field"):
                svc.submit(spec_dict(nope=1))
            with pytest.raises(ValueError, match="bare string"):
                svc.submit(spec_dict(setups=SETUP))
            assert svc.studies() == []

    def test_unknown_study_raises_keyerror(self, tmp_path):
        with CampaignService(tmp_path, workers=1, fsync=False) as svc:
            with pytest.raises(KeyError):
                svc.study_status("s9999-nobody")
            with pytest.raises(KeyError):
                svc.cancel("s9999-nobody")


class TestKillRestart:
    """Satellite check: kill-and-restart losslessness."""

    def test_restart_resumes_without_rerun_or_loss(self, tmp_path):
        sp = spec(structures=("int_rf", "l1d", "l1i"))
        svc1 = CampaignService(tmp_path, workers=2, fsync=False)
        sid = svc1.submit(sp, tenant="alice")
        run = svc1.runs[sid]
        # Drive ticks only until the first unit lands, then pull the
        # plug with work still queued and in flight.
        deadline = time.monotonic() + 120
        while run.done_count() < 1:
            svc1.tick()
            assert time.monotonic() < deadline, "no unit ever finished"
            time.sleep(0.01)
        done_before = {uid for uid, c in run.cells.items()
                       if c.state == DONE}
        svc1.close()                       # SIGKILL-equivalent shutdown

        svc2 = CampaignService(tmp_path, workers=2, fsync=False)
        rec = svc2.state.studies[sid]
        assert not rec.terminal            # still mid-flight on disk
        svc2.run_until_idle(timeout_s=120)
        assert svc2.study_status(sid)["state"] == STUDY_DONE
        assert svc2.study_status(sid)["totals"] == direct_counts(sp)
        journal = tmp_path / "studies" / sid / "journal.jsonl"
        per_unit = done_records(journal)
        # No unit lost, no unit completed twice.
        assert set(per_unit) == {u.unit_id for u in
                                 CampaignPlan.from_spec(sp)}
        assert all(n == 1 for n in per_unit.values())
        # Units finished before the kill were restored, not re-leased.
        state = load_journal(journal)
        for uid in done_before:
            assert state.attempts[uid] == 1
        svc2.close()

        # A third service over the same root has nothing to do.
        lines_before = journal.read_text().count("\n")
        with CampaignService(tmp_path, workers=2, fsync=False) as svc3:
            assert svc3.idle
            assert svc3.state.studies[sid].state == STUDY_DONE
        assert journal.read_text().count("\n") == lines_before


class TestOldRoot:
    """A root written before tenants became a bare label still loads."""

    def test_tenant_rows_resume_to_done(self, tmp_path, capsys):
        from repro import tools
        sp = spec()
        plan = CampaignPlan.from_spec(sp)
        done_id = study_id_for(1, "0123456789")
        live_id = study_id_for(2, sp.spec_hash)
        # The ledger as the multi-tenant service wrote it: tenant
        # labels on every study row, an epoch row, a gc row for a
        # finished study, and a quota rejection among the events.
        rows = [
            {"kind": "epoch", "epoch": 1, "ts": 1.0},
            {"kind": "study", "id": done_id, "tenant": "alice",
             "spec": sp.to_dict(), "spec_hash": "0123456789",
             "units": plan.unit_ids(), "ts": 2.0},
            {"kind": "state", "id": done_id, "state": "done", "ts": 3.0},
            {"kind": "gc", "id": done_id, "tenant": "alice", "age_s": 9.0,
             "ts": 4.0},
            {"kind": "study", "id": live_id, "tenant": "bob",
             "spec": sp.to_dict(), "spec_hash": sp.spec_hash,
             "units": plan.unit_ids(), "ts": 5.0},
            {"kind": "state", "id": live_id, "state": "running", "ts": 6.0},
        ]
        (tmp_path / "service.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in rows))
        (tmp_path / "service-events.jsonl").write_text("".join(
            json.dumps(ev) + "\n" for ev in (
                {"name": "study_submitted", "ts": 2.0, "study": done_id,
                 "tenant": "alice", "units": 1, "spec_hash": "0123456789"},
                {"name": "quota_rejected", "ts": 2.5, "tenant": "carol",
                 "reason": "queued", "units": 1},
                {"name": "study_submitted", "ts": 5.0, "study": live_id,
                 "tenant": "bob", "units": 1, "spec_hash": sp.spec_hash})))
        # The live study's unit was leased when the old service died.
        journal_path = tmp_path / "studies" / live_id / "journal.jsonl"
        with Journal(journal_path, fsync=False) as journal:
            journal.write_header(sp.to_dict(), plan.unit_ids())
            journal.record(plan.unit_ids()[0], LEASED, attempt=1)

        with CampaignService(tmp_path, workers=1, fsync=False) as svc:
            assert svc.state.epoch == 2
            assert [r["tenant"] for r in svc.studies()] == ["alice", "bob"]
            svc.run_until_idle(timeout_s=120)
            row = svc.study_status(live_id)
            assert row["state"] == STUDY_DONE
            assert row["totals"] == direct_counts(sp)
        assert load_journal(journal_path).attempts[plan.unit_ids()[0]] == 2
        assert fsck_service(tmp_path) == []
        assert tools.main(["obs", "summarize",
                           str(tmp_path / "service-events.jsonl")]) == 0
        assert "tenant bob" in capsys.readouterr().out


class TestCancel:
    def test_cancel_drops_queued_and_survives_restart(self, tmp_path):
        sp = spec(structures=("int_rf", "l1d"))
        with CampaignService(tmp_path, workers=1, fsync=False) as svc:
            sid = svc.submit(sp, tenant="alice")
            out = svc.cancel(sid)          # before any tick: all queued
            assert out == {"id": sid, "dropped": 2, "killed": 0}
            assert svc.study_status(sid)["state"] == CANCELLED
            assert svc.idle
            with pytest.raises(ValueError, match="already cancelled"):
                svc.cancel(sid)
        with CampaignService(tmp_path, workers=1, fsync=False) as svc2:
            assert svc2.state.studies[sid].state == CANCELLED
            assert svc2.idle               # cancelled units not re-queued


class TestGoldenCache:
    def test_second_study_reuses_golden_payload(self, tmp_path):
        with CampaignService(tmp_path, workers=1, fsync=False) as svc:
            svc.submit(spec(), tenant="alice")
            svc.submit(spec(structures=("l1d",)), tenant="bob")
            svc.run_until_idle(timeout_s=120)
            # Same (setup, benchmark): the second unit's golden run is
            # served from the cross-study cache.
            assert svc.fleet.cache.hits == 1
            assert svc.fleet.cache.misses == 1
            # ... and once no live study references the blob any more,
            # it is evicted rather than held forever.
            assert len(svc.fleet.cache) == 0
            assert svc.metrics.counter_value("svc.blobs.evicted") >= 1


class TestFairDispatch:
    def test_service_round_robins_studies(self, tmp_path, monkeypatch):
        # Chaos-fail every unit on attempt 1 with max_retries=0: no
        # simulation runs, units quarantine instantly, and the launch
        # order is purely the service's dispatch decision.  Both
        # studies carry the same tenant label: they alternate anyway.
        sp = spec(structures=("int_rf", "l1d", "l1i", "dtlb"))
        chaos = ";".join(f"{u.unit_id}=fail:99"
                         for u in CampaignPlan.from_spec(sp))
        monkeypatch.setenv("REPRO_SCHED_CHAOS", chaos)
        with CampaignService(tmp_path, workers=1, fsync=False,
                             max_retries=0) as svc:
            order = []
            launch = svc.fleet.launch
            monkeypatch.setattr(
                svc.fleet, "launch",
                lambda run, unit: (order.append(run.study_id),
                                   launch(run, unit))[1])
            sid_a = svc.submit(sp, tenant="alice")
            sid_b = svc.submit(sp, tenant="alice")
            svc.run_until_idle(timeout_s=120)
            assert order == [sid_a, sid_b] * 4
            for sid in (sid_a, sid_b):
                tally = svc.study_status(sid)["tally"]
                assert tally["quarantined"] == 4   # chaos, as planned

    def test_unit_in_backoff_waits_while_others_proceed(self, tmp_path,
                                                        monkeypatch):
        # Every unit fails twice and quarantines (max_retries=1): each
        # failure puts the unit at the back of its study's ready list,
        # ineligible for backoff_s seconds.
        backoff_s = 1.0
        sp = spec(structures=("int_rf", "l1d"))
        plan = CampaignPlan.from_spec(sp)
        monkeypatch.setenv("REPRO_SCHED_CHAOS",
                           ";".join(f"{u.unit_id}=fail:99" for u in plan))
        with CampaignService(tmp_path, workers=1, fsync=False,
                             max_retries=1, backoff_s=backoff_s) as svc:
            sid_a = svc.submit(sp, tenant="alice")
            sid_b = svc.submit(spec(structures=("int_rf", "l1d"), seed=8),
                               tenant="alice")
            svc.run_until_idle(timeout_s=120)
            rows = []
            for sid in (sid_a, sid_b):
                for line in (svc.study_dir(sid) / "journal.jsonl") \
                        .read_text().splitlines():
                    row = json.loads(line)
                    if row.get("kind") == "unit":
                        rows.append((row["ts"], sid, row))
        rows.sort(key=lambda r: r[0])
        leases = [(sid, row["unit"], row["attempt"])
                  for _, sid, row in rows if row["state"] == LEASED]
        first, second = plan.unit_ids()
        # First attempts alternate between the studies and go in plan
        # order within each; no retry jumps ahead of a waiting unit.
        assert leases[:4] == [(sid_a, first, 1), (sid_b, first, 1),
                              (sid_a, second, 1), (sid_b, second, 1)]
        assert sorted(leases[4:]) == sorted(
            (sid, uid, 2) for sid in (sid_a, sid_b) for uid in (first,
                                                                 second))
        # No retry was leased before its backoff ran out.
        failed = {(sid, row["unit"]): ts for ts, sid, row in rows
                  if row["state"] == "failed" and row["attempt"] == 1}
        for ts, sid, row in rows:
            if row["state"] == LEASED and row["attempt"] == 2:
                assert ts - failed[(sid, row["unit"])] >= backoff_s

    def test_first_leases_are_distinct_pairs(self, tmp_path, monkeypatch):
        # One tenant, 3 pairs x 2 structures, 2 local slots: the fair
        # queue hands out units in plan order, one unit of each pair
        # before any pair's second unit.
        sp = spec(setups=("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM"),
                  structures=("int_rf", "l1d"))
        monkeypatch.setenv("REPRO_SCHED_CHAOS",
                           ";".join(f"{u.unit_id}=fail:99"
                                    for u in CampaignPlan.from_spec(sp)))
        with CampaignService(tmp_path, workers=2, fsync=False,
                             max_retries=0) as svc:
            sid = svc.submit(sp, tenant="alice")
            svc.run_until_idle(timeout_s=120)
            assert svc.study_status(sid)["tally"]["quarantined"] == 6
            rows = [json.loads(line) for line in
                    (svc.study_dir(sid) / "journal.jsonl")
                    .read_text().splitlines()]
        leased = [row["unit"] for row in rows
                  if row.get("state") == "leased"]
        pairs = {tuple(uid.split("/")[:2]) for uid in leased[:3]}
        assert len(pairs) == 3


def _get(url, timeout=30.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


def _post(url, payload=None, headers=None, timeout=30.0):
    data = json.dumps(payload).encode() if payload is not None else b""
    req = urllib.request.Request(url, data=data, method="POST",
                                 headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


@pytest.fixture(scope="class")
def served(tmp_path_factory):
    """One live service over HTTP, shared by the endpoint tests."""
    root = tmp_path_factory.mktemp("svc")
    service = CampaignService(root, workers=2, fsync=False)
    server = ServiceServer(service, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"on_ready": lambda s: ready.set()}, daemon=True)
    thread.start()
    assert ready.wait(10.0), "service never bound"
    yield f"http://127.0.0.1:{server.port}", service
    server.stop()
    thread.join(10.0)
    service.close()


class TestHttpApi:
    def _wait_done(self, base, sid, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, body = _get(f"{base}/studies/{sid}/status")
            row = json.loads(body)
            if row["state"] in ("done", "cancelled"):
                return row
            time.sleep(0.1)
        pytest.fail(f"study {sid} never finished")

    def test_submit_track_stream_report(self, served):
        base, _ = served
        code, out = _post(f"{base}/studies",
                          {"tenant": "alice", "spec": spec_dict()})
        assert code == 202
        sid = out["id"]
        assert out["tenant"] == "alice"
        assert out["status_url"] == f"/studies/{sid}/status"
        row = self._wait_done(base, sid)
        assert row["state"] == "done"
        assert row["tally"]["done"] == 1
        assert sum(row["totals"].values()) == 2     # injections=2

        # The lifecycle row shows up in the study list.
        _, body = _get(f"{base}/studies")
        assert sid in {r["id"] for r in json.loads(body)["studies"]}

        # /events streams NDJSON to a deterministic terminator.
        _, body = _get(f"{base}/studies/{sid}/events")
        lines = [json.loads(line) for line in body.strip().splitlines()]
        final = lines[-1]
        assert final["name"] == "study_complete"
        assert final["complete"] and final["state"] == "done"
        assert final["tally"]["done"] == 1
        # ?since replays only the suffix.
        _, partial = _get(
            f"{base}/studies/{sid}/events?since={len(lines) - 1}")
        assert len(partial.strip().splitlines()) == 1

        # The plain-text report renders from the study's events.
        code, text = _get(f"{base}/studies/{sid}/report")
        assert code == 200 and "sha" in text

        # Service-level snapshot.
        _, body = _get(f"{base}/status")
        status = json.loads(body)
        assert status["studies"]["done"] >= 1
        assert {"queued", "fleet", "golden_cache"} <= status.keys()

    def test_cancel_over_http(self, served):
        base, _ = served
        _, out = _post(f"{base}/studies",
                       {"tenant": "bob",
                        "spec": spec_dict(structures=["int_rf", "l1d"],
                                          seed=11)})
        sid = out["id"]
        code, out = _post(f"{base}/studies/{sid}/cancel")
        assert code == 200
        assert out["dropped"] + out["killed"] >= 1
        assert self._wait_done(base, sid)["state"] == "cancelled"
        code, out = _post(f"{base}/studies/{sid}/cancel")
        assert code == 409 and "already cancelled" in out["error"]
        # The events stream still terminates, flagged non-complete.
        _, body = _get(f"{base}/studies/{sid}/events")
        final = json.loads(body.strip().splitlines()[-1])
        assert final["name"] == "study_complete"
        assert final["state"] == "cancelled"

    def test_bad_spec_is_400_with_the_fix(self, served):
        base, _ = served
        code, out = _post(f"{base}/studies", spec_dict(nope=1))
        assert code == 400 and "nope" in out["error"]
        code, out = _post(f"{base}/studies", spec_dict(setups=SETUP))
        assert code == 400 and "bare string" in out["error"]
        code, out = _post(f"{base}/studies",
                          {"tenant": "", "spec": spec_dict()})
        assert code == 400 and "tenant" in out["error"]

    def test_unknown_study_is_404(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{base}/studies/s9999-nobody/status")
        assert err.value.code == 404

    def test_body_over_limit_is_413(self, served):
        base, _ = served
        host, port = base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(f"POST /studies HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: {MAX_BODY + 1}\r\n\r\n".encode())
            reply = sock.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"body over" in reply
