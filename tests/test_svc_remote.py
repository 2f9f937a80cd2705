"""The distributed fleet's safety net: fences, heartbeats, GC, auth.

Everything the network can do wrong to a remote lease — duplicated
completes, zombies finishing revoked work, a server restart wiping the
registrations, a worker going silent — must resolve to the same
at-most-once journal an all-local run writes.  These tests drive the
service's remote protocol directly (no HTTP) so every race is staged
deterministically, then cover the HTTP-only layers (auth, keepalives,
blob serving) against a live server.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.sched import DONE, CampaignPlan, StudySpec
from repro.sched.plan import WorkUnit
from repro.sched.scheduler import EVENTS_NAME
from repro.svc import (CampaignService, ServiceServer, StaleFence,
                       UnknownWorker, collect_garbage, load_service)
from repro.svc.attest import RejectedComplete
from repro.svc.chaos import NULL_CHAOS, ChaosDrop, TransportChaos
from repro.svc.fleet import pack_blob, pack_text, unpack_text

SETUP = "MaFIN-x86"


def spec(**over):
    base = dict(setups=(SETUP,), benchmarks=("sha",),
                structures=("int_rf",), fault_types=("transient",),
                injections=2, seed=7)
    base.update(over)
    return StudySpec(**base)


def ok_result(counts=None):
    """A minimal successful unit result, shaped like the pool worker's."""
    return {"ok": True, "counts": counts or {"masked": 2},
            "injections": 2, "early_stops": 0, "resumed": False,
            "wall_s": 0.01, "events": [], "metrics": {}}


def done_rows(journal_path):
    out = {}
    for line in journal_path.read_text().splitlines():
        row = json.loads(line)
        if row.get("state") == DONE:
            out[row["unit"]] = out.get(row["unit"], 0) + 1
    return out


def wire_uid(wire):
    """The unit id carried by a lease's wire payload."""
    return WorkUnit.from_dict(wire["unit"]).unit_id


def remote_service(root, **over):
    """A service with no local slots: every unit must go remote.

    Zero retry backoff so a revoked unit is re-leasable immediately —
    these tests stage the races, they don't want to wait them out.
    """
    kw = dict(workers=0, fsync=False, backoff_s=0.0)
    kw.update(over)
    return CampaignService(root, **kw)


class TestChaosDirective:
    def test_unset_is_the_null_singleton(self):
        assert TransportChaos.from_env({}) is NULL_CHAOS
        assert TransportChaos.from_env({"REPRO_SVC_CHAOS": "  "}) \
            is NULL_CHAOS
        assert not NULL_CHAOS.enabled

    def test_full_directive_parses(self):
        chaos = TransportChaos.from_env(
            {"REPRO_SVC_CHAOS":
             "drop=0.2, dup=0.1,delay=0.05,disconnect=0.3,seed=7"})
        assert (chaos.drop, chaos.dup, chaos.delay, chaos.disconnect) \
            == (0.2, 0.1, 0.05, 0.3)
        assert chaos.enabled

    def test_bad_directives_name_the_problem(self):
        with pytest.raises(ValueError, match="keys:"):
            TransportChaos.from_env({"REPRO_SVC_CHAOS": "explode=1"})
        with pytest.raises(ValueError, match="wants a number"):
            TransportChaos.from_env({"REPRO_SVC_CHAOS": "drop=lots"})
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            TransportChaos(drop=1.5)
        with pytest.raises(ValueError, match="delay"):
            TransportChaos(delay=-1.0)

    def test_seeded_decisions_are_reproducible(self):
        a = TransportChaos(drop=0.5, seed=42)
        b = TransportChaos(drop=0.5, seed=42)
        def outcomes(c):
            seen = []
            for _ in range(20):
                try:
                    c.before_request()
                    seen.append(False)
                except ChaosDrop:
                    seen.append(True)
            return seen
        assert outcomes(a) == outcomes(b)
        assert any(outcomes(TransportChaos(drop=0.5, seed=1)))


class TestPackCodecs:
    def test_text_roundtrip_is_exact(self):
        text = '{"a": 1}\n{"b": 2}\n'
        assert unpack_text(pack_text(text)) == text


class TestFencing:
    """At-most-once completes, staged without any network."""

    def test_duplicate_complete_is_a_detected_noop(self, tmp_path):
        with remote_service(tmp_path) as svc:
            sid = svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            fence = wire["fence"]
            first = svc.complete_remote({"fence": fence,
                                         "result": ok_result()})
            assert first == {"accepted": True, "duplicate": False}
            # The retry of a complete whose response was lost.
            second = svc.complete_remote({"fence": fence,
                                          "result": ok_result()})
            assert second == {"accepted": False, "duplicate": True}
            svc.tick()
            assert svc.study_status(sid)["state"] == "done"
            journal = tmp_path / "studies" / sid / "journal.jsonl"
            assert done_rows(journal) == {wire_uid(wire): 1}
            assert svc.metrics.counter_value(
                "svc.remote.dup_completes") == 1

    def test_cancel_revokes_the_fence(self, tmp_path):
        with remote_service(tmp_path) as svc:
            sid = svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            svc.cancel(sid)
            # The zombie finishes anyway; its fence died with the study.
            with pytest.raises(StaleFence):
                svc.complete_remote({"fence": wire["fence"],
                                     "result": ok_result()})
            assert svc.metrics.counter_value(
                "svc.remote.stale_fences") == 1

    def test_reregistration_revokes_prior_leases(self, tmp_path):
        with remote_service(tmp_path) as svc:
            svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            svc.tick()
            # The agent restarted: same name, empty hands.
            svc.register_worker("w1")
            with pytest.raises(StaleFence):
                svc.complete_remote({"fence": wire["fence"],
                                     "result": ok_result()})
            svc.tick()
            # The revoked unit went back through the retry path.
            assert svc.lease_remote("w1")["attempt"] == 2

    def test_heartbeat_lists_fences_to_kill(self, tmp_path):
        with remote_service(tmp_path) as svc:
            svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            svc.register_worker("w1")      # revokes the lease
            out = svc.worker_heartbeat("w1", [wire["fence"]])
            assert out == {"revoked": [wire["fence"]]}
            with pytest.raises(UnknownWorker):
                svc.worker_heartbeat("ghost", [])

    def test_lost_lease_reclaimed_after_grace(self, tmp_path):
        with remote_service(tmp_path, lease_heartbeat_s=5.0) as svc:
            svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            lease = svc.fleet.remote_leases[wire["fence"]]
            # The lease response never reached the worker: it keeps
            # heartbeating empty-handed.  Within the grace window the
            # server waits...
            svc.fleet.heartbeat("w1", [], now=lease.started + 1.0)
            assert wire["fence"] in svc.fleet.remote_leases
            # ...past it, the orphan is reclaimed and re-queued.
            svc.fleet.heartbeat("w1", [], now=lease.started + 6.0)
            assert wire["fence"] not in svc.fleet.remote_leases
            with pytest.raises(StaleFence):
                svc.complete_remote({"fence": wire["fence"],
                                     "result": ok_result()})

    def test_silent_worker_loses_everything(self, tmp_path):
        with remote_service(tmp_path, lease_heartbeat_s=5.0,
                            miss_budget=3) as svc:
            svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            svc.tick()
            assert "w1" in svc.fleet.remote_workers
            svc.tick(now=time.monotonic() + 16.0)   # > 5s * 3 misses
            assert "w1" not in svc.fleet.remote_workers
            assert svc.fleet.remote_leases == {}
            assert svc.metrics.counter_value(
                "svc.remote.workers_lost") == 1
            # The unit is queued again for whoever shows up next.
            svc.register_worker("w2")
            redo = svc.lease_remote("w2", now=time.monotonic() + 17.0)
            assert redo["unit"] == wire["unit"]
            assert redo["attempt"] == 2


@pytest.fixture(scope="module")
def real_unit(tmp_path_factory):
    """spec()'s one unit, run for real: ``(result, logs, masks, blob)``
    as a remote worker ships them (the result through JSON)."""
    from repro.sched.worker import run_unit
    sp = spec()
    (unit,) = CampaignPlan.from_spec(sp)
    work = tmp_path_factory.mktemp("real-unit")
    res = run_unit(unit, sp, work / "logs.jsonl", work / "masks.jsonl",
                   want_blob=True)
    blob = res.pop("golden_blob")
    return (json.loads(json.dumps(res)), (work / "logs.jsonl").read_text(),
            (work / "masks.jsonl").read_text(), blob)


class TestResultChecks:
    """A remote result is checked whole before it settles its unit:
    the server reads no ``metrics``, and a result it cannot settle is
    refused before the ``done`` row, with or without attestation."""

    def _complete(self, svc, wire, res, real_unit):
        _, logs, masks, blob = real_unit
        return svc.complete_remote({
            "fence": wire["fence"], "worker": "w1", "result": res,
            "logs": pack_text(logs), "masks": pack_text(masks),
            "golden_blob": pack_blob(blob) if wire["want_blob"] else None})

    @pytest.mark.parametrize("metrics", ["missing", "malformed"])
    def test_metrics_are_not_read(self, tmp_path, real_unit, metrics):
        res = {k: v for k, v in real_unit[0].items() if k != "metrics"}
        if metrics == "malformed":     # an older worker's key, garbled
            res["metrics"] = {"histograms": {"time.inject_s": {"n": 1}}}
        with remote_service(tmp_path) as svc:
            sid = svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            assert self._complete(svc, wire, res, real_unit) \
                == {"accepted": True, "duplicate": False}
            svc.tick()
            assert svc.study_status(sid)["state"] == "done"

    @pytest.mark.parametrize("attest", [True, False])
    def test_unnamed_event_rejected_before_any_effect(self, tmp_path,
                                                      real_unit, attest):
        res = real_unit[0]
        bad = dict(res, events=res["events"] + [{"ts": 1.0}])
        with remote_service(tmp_path, attest=attest) as svc:
            sid = svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            with pytest.raises(RejectedComplete) as info:
                self._complete(svc, wire, bad, real_unit)
            assert info.value.code == "malformed-result"
            study_dir = tmp_path / "studies" / sid
            fid = WorkUnit.from_dict(wire["unit"]).file_id
            assert done_rows(study_dir / "journal.jsonl") == {}
            assert not (study_dir / "logs" / f"{fid}.jsonl").exists()
            # The unit retries like any rejected complete.
            svc.tick()
            redo = svc.lease_remote("w1")
            assert redo["attempt"] == 2
            assert self._complete(svc, redo, res, real_unit)["accepted"]
            svc.tick()
            assert svc.study_status(sid)["state"] == "done"
            assert done_rows(study_dir / "journal.jsonl") \
                == {wire_uid(wire): 1}


class TestRestart:
    """Server restart: epoch fencing + lossless resume, no double runs."""

    def test_old_epoch_fences_rejected_and_done_units_not_rerun(
            self, tmp_path):
        sp = spec(structures=("int_rf", "l1d"))
        svc1 = remote_service(tmp_path)
        sid = svc1.submit(sp, tenant="alice")
        svc1.register_worker("w1")
        wire_a = svc1.lease_remote("w1")
        assert svc1.complete_remote(
            {"fence": wire_a["fence"], "result": ok_result()})["accepted"]
        svc1.tick()
        wire_b = svc1.lease_remote("w1")   # in flight at the crash
        assert wire_a["fence"].startswith("1-")
        svc1.close()

        svc2 = remote_service(tmp_path)
        # The epoch outlived the crash; the registrations did not.
        assert svc2.fleet.fence_epoch == 2
        assert svc2.fleet.remote_workers == {}
        with pytest.raises(StaleFence):
            svc2.complete_remote({"fence": wire_b["fence"],
                                  "result": ok_result()})
        # Only the interrupted unit is pending; the DONE one survived.
        run = svc2.runs[sid]
        assert [u.unit_id for u in run.pending_units()] \
            == [wire_uid(wire_b)]
        svc2.register_worker("w1")
        redo = svc2.lease_remote("w1")
        assert wire_uid(redo) == wire_uid(wire_b)
        assert redo["attempt"] == 2        # the stale lease was spent
        assert redo["fence"].startswith("2-")
        assert svc2.complete_remote(
            {"fence": redo["fence"], "result": ok_result()})["accepted"]
        svc2.tick()
        assert svc2.study_status(sid)["state"] == "done"
        journal = tmp_path / "studies" / sid / "journal.jsonl"
        assert all(n == 1 for n in done_rows(journal).values())
        svc2.close()

        # The telemetry tells the same story end to end.
        from repro.obs.summarize import load_events, summarize_events
        summary = summarize_events(
            load_events(tmp_path / "service-events.jsonl"))
        assert summary["fleet"]["registrations"] == 2
        assert summary["fleet"]["rejected_fences"] == 1
        study_summary = summarize_events(
            load_events(tmp_path / "studies" / sid / EVENTS_NAME))
        assert study_summary["fleet"]["remote_leases"] == 3


class TestVerbatimRecords:
    def test_completed_files_land_byte_identical(self, tmp_path):
        logs_text = '{"inj": 0, "class": "masked"}\n{"inj": 1}\n'
        masks_text = '{"mask": "0x1"}\n'
        # Synthetic (non-record) payloads: only an unattested service
        # lands them verbatim — attestation would 422 them at ingest.
        with remote_service(tmp_path, attest=False) as svc:
            sid = svc.submit(spec(), tenant="alice")
            svc.register_worker("w1")
            wire = svc.lease_remote("w1")
            svc.complete_remote({"fence": wire["fence"],
                                 "result": ok_result(),
                                 "logs": pack_text(logs_text),
                                 "masks": pack_text(masks_text)})
            study_dir = tmp_path / "studies" / sid
            fid = WorkUnit.from_dict(wire["unit"]).file_id
            logs = study_dir / "logs" / f"{fid}.jsonl"
            masks = study_dir / "masks" / f"{fid}.jsonl"
            assert logs.read_text() == logs_text
            assert masks.read_text() == masks_text


class TestGarbageCollection:
    def _finished_study(self, root):
        with CampaignService(root, workers=1, fsync=False) as svc:
            sid = svc.submit(spec(), tenant="alice")
            svc.run_until_idle(timeout_s=120)
        return sid

    def test_dry_run_then_purge_then_resweep(self, tmp_path):
        sid = self._finished_study(tmp_path)
        study_dir = tmp_path / "studies" / sid

        # No retention, or inside it: nothing to do.
        for keep in (None, 3600.0):
            out = collect_garbage(tmp_path, retention_s=keep)
            assert out["candidates"] == [] and out["purged"] == []

        # Dry run names the victim but touches nothing.
        out = collect_garbage(tmp_path, retention_s=0.0, dry_run=True)
        assert [c["id"] for c in out["candidates"]] == [sid]
        assert out["dry_run"] and study_dir.exists()

        # The real sweep journals first, then deletes.
        out = collect_garbage(tmp_path, retention_s=0.0)
        assert [c["id"] for c in out["purged"]] == [sid]
        assert not study_dir.exists()
        state = load_service(tmp_path / "service.jsonl")
        assert state.studies[sid].purged

        # Idempotent: the journal remembers the purge.
        out = collect_garbage(tmp_path, retention_s=0.0)
        assert out["purged"] == [] and out["candidates"] == []

        # A sweep that died between journal row and rmtree leaves a
        # journaled-but-present dir; the next sweep finishes the job
        # without a second journal row.
        study_dir.mkdir(parents=True)
        (study_dir / "leftover.txt").write_text("crash debris")
        gc_rows_before = sum(
            1 for line in (tmp_path / "service.jsonl")
            .read_text().splitlines()
            if json.loads(line).get("kind") == "gc")
        out = collect_garbage(tmp_path, retention_s=0.0)
        assert out["resweeps"] == [sid] and not study_dir.exists()
        gc_rows_after = sum(
            1 for line in (tmp_path / "service.jsonl")
            .read_text().splitlines()
            if json.loads(line).get("kind") == "gc")
        assert gc_rows_after == gc_rows_before == 1

    def test_negative_retention_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="retention_s"):
            collect_garbage(tmp_path, retention_s=-1.0)


TOKEN = "shh-fleet-secret"


def _get(url, token=None, timeout=30.0):
    req = urllib.request.Request(url)
    if token is not None:
        req.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def _post(url, payload, token=None, timeout=30.0):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    if token is not None:
        req.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


@pytest.fixture(scope="class")
def served(tmp_path_factory):
    """A token-armed server with fast keepalives and zero local slots."""
    root = tmp_path_factory.mktemp("svc-remote")
    service = CampaignService(root, workers=0, fsync=False)
    server = ServiceServer(service, port=0, token=TOKEN, keepalive_s=0.2)
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


class TestHttpFleet:
    def test_every_endpoint_requires_the_token(self, served):
        base, _ = served
        for probe in (lambda: _get(f"{base}/status"),
                      lambda: _get(f"{base}/status", token="wrong"),
                      lambda: _post(f"{base}/fleet/register",
                                    {"worker": "w"}),
                      lambda: _post(f"{base}/studies", {})):
            code, body = probe()
            assert code == 401
            row = json.loads(body) if isinstance(body, bytes) else body
            assert row["reason"] == "unauthorized"
        code, _ = _get(f"{base}/status", token=TOKEN)
        assert code == 200

    def test_register_heartbeat_and_unregistered_409(self, served):
        base, _ = served
        code, out = _post(f"{base}/fleet/register", {"worker": "w1"},
                          token=TOKEN)
        assert code == 200
        assert out["epoch"] >= 1 and out["heartbeat_s"] > 0
        code, out = _post(f"{base}/fleet/heartbeat",
                          {"worker": "w1", "fences": []}, token=TOKEN)
        assert code == 200 and out == {"revoked": []}
        code, out = _post(f"{base}/fleet/heartbeat",
                          {"worker": "ghost", "fences": []}, token=TOKEN)
        assert code == 409 and out["reason"] == "unregistered"

    def test_idle_lease_poll_carries_keepalives(self, served):
        base, _ = served
        _post(f"{base}/fleet/register", {"worker": "kw"}, token=TOKEN)
        req = urllib.request.Request(
            f"{base}/fleet/lease",
            data=json.dumps({"worker": "kw", "wait_s": 0.7}).encode(),
            method="POST",
            headers={"Authorization": f"Bearer {TOKEN}"})
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            rows = [json.loads(line) for line in resp]
        # Quiet poll: at least one liveness line, then the verdict.
        assert any(r.get("keepalive") for r in rows[:-1])
        assert rows[-1] == {"lease": None}

    def test_lease_for_unknown_worker_is_unregistered(self, served):
        base, _ = served
        code, out = _post(f"{base}/fleet/lease", {"worker": "nobody"},
                          token=TOKEN)
        assert code == 409 and out["reason"] == "unregistered"

    def test_stale_fence_complete_is_409(self, served):
        base, _ = served
        code, out = _post(f"{base}/fleet/complete",
                          {"fence": "0-999", "worker": "w1",
                           "result": ok_result()}, token=TOKEN)
        assert code == 409 and out["reason"] == "stale-fence"

    def test_blob_store_is_content_addressed(self, served):
        base, service = served
        sp = spec()
        unit = next(iter(CampaignPlan.from_spec(sp)))
        blob = b"compressed golden payload"
        digest = service.fleet.cache.store(unit, sp, blob)
        code, data = _get(f"{base}/blobs/{digest}", token=TOKEN)
        assert code == 200 and data == blob
        code, _ = _get(f"{base}/blobs/{'0' * 64}", token=TOKEN)
        assert code == 404

    def test_events_stream_keepalive_on_idle_study(self, served):
        base, _ = served
        code, out = _post(f"{base}/studies",
                          {"tenant": "alice", "spec": {
                              "setups": [SETUP], "benchmarks": ["sha"],
                              "structures": ["int_rf"], "injections": 2,
                              "seed": 7}}, token=TOKEN)
        assert code == 202
        sid = out["id"]
        # No workers anywhere: the study idles, so the events stream's
        # only traffic is the keepalive heartbeat.
        req = urllib.request.Request(
            f"{base}/studies/{sid}/events",
            headers={"Authorization": f"Bearer {TOKEN}"})
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            row = json.loads(resp.readline())
        assert row == {"keepalive": True}
