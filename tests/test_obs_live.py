"""The live observability layer: tailers, convergence, view, server.

The StudyView/StatusServer tests run one real (tiny) study per module
and then watch its directory the way ``obs serve`` and ``sched status
--watch`` do; the streaming test races a second study against an
/events reader to prove the NDJSON stream is ordered and terminates.
"""

import json
import math
import os
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.sampling import required_injections, z_score
from repro.obs.convergence import (cell_convergence, proportion_ci,
                                   wilson_interval)
from repro.obs.live import JSONLTailer, StudyView, load_study_view
from repro.obs.server import StatusServer
from repro.sched import StudySpec, load_journal, run_study, study_status

TWO_SETUPS = ("MaFIN-x86", "GeFIN-x86")


def spec(**over):
    base = dict(setups=TWO_SETUPS, benchmarks=("sha",),
                structures=("int_rf",), fault_types=("transient",),
                injections=4, seed=7)
    base.update(over)
    return StudySpec(**base)


@pytest.fixture(scope="module")
def done_study(tmp_path_factory):
    """One completed two-unit study, shared by the read-only tests."""
    study_dir = tmp_path_factory.mktemp("study")
    result = run_study(spec(), study_dir, workers=2, fsync=False,
                       heartbeat_s=0.05)
    assert result.ok
    return study_dir, result


class TestJSONLTailer:
    def test_consumes_only_complete_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n{"a": 3, "tor')
        tail = JSONLTailer(path)
        assert tail.poll() == [{"a": 1}, {"a": 2}]
        assert tail.poll() == []              # torn tail stays buffered
        with open(path, "a") as fh:
            fh.write('n": true}\n{"a": 4}\n')
        assert tail.poll() == [{"a": 3, "torn": True}, {"a": 4}]

    def test_no_splice_across_a_tail_repair(self, tmp_path):
        # A writer reopening after a crash truncates the torn tail and
        # appends a fresh row: the tailer must read that row whole, not
        # glue the dead fragment onto the new row's suffix.
        path = tmp_path / "s.jsonl"
        good = '{"a": 1}\n'
        path.write_text(good + '{"unit": "u", "state": "do')
        tail = JSONLTailer(path)
        assert tail.poll() == [{"a": 1}]
        os.truncate(path, len(good))
        with open(path, "a") as fh:
            fh.write('{"unit": "u", "state": "leased", "attempt": 2}\n')
        assert tail.poll() == [{"unit": "u", "state": "leased",
                                "attempt": 2}]
        assert tail.bad_lines == 0

    def test_missing_file_is_empty_not_error(self, tmp_path):
        tail = JSONLTailer(tmp_path / "absent.jsonl")
        assert tail.poll() == []

    def test_truncation_resets_to_start(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\n{"a": 2}\n')
        tail = JSONLTailer(path)
        assert len(tail.poll()) == 2
        path.write_text('{"b": 1}\n')          # rotated underneath us
        assert tail.poll() == [{"b": 1}]

    def test_bad_complete_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"a": 1}\nnot json at all\n{"a": 2}\n')
        tail = JSONLTailer(path)
        assert tail.poll() == [{"a": 1}, {"a": 2}]
        assert tail.bad_lines == 1


class TestWilson:
    def test_closed_form_values(self):
        # Independent arithmetic: Wilson at k=50/n=100.
        z = z_score(0.99)
        n, p = 100, 0.5
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        spread = (z / denom) * math.sqrt(
            p * (1 - p) / n + z * z / (4 * n * n))
        lo, hi = wilson_interval(50, 100, confidence=0.99)
        assert lo == pytest.approx(center - spread, abs=1e-12)
        assert hi == pytest.approx(center + spread, abs=1e-12)

    def test_stays_inside_unit_interval_at_extremes(self):
        lo, hi = wilson_interval(0, 30)
        assert lo == 0.0 and 0.0 < hi < 0.35
        lo, hi = wilson_interval(30, 30)
        assert 0.65 < lo < 1.0 and hi == 1.0

    def test_vacuous_without_data(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    def test_proportion_ci_fields(self):
        ci = proportion_ci(10, 40)
        assert ci["count"] == 10
        assert ci["proportion"] == 0.25
        assert ci["lo"] < 0.25 < ci["hi"]
        assert ci["halfwidth"] == pytest.approx(
            (ci["hi"] - ci["lo"]) / 2)

    def test_narrows_with_more_injections(self):
        widths = [cell_convergence({"Masked": n // 2,
                                    "SDC": n - n // 2})["margin"]
                  for n in (50, 200, 800, 3200)]
        assert widths == sorted(widths, reverse=True)

    def test_paper_sample_size_converges_worst_case(self):
        # 1843 injections buy ±3% at 99% even at the conservative
        # p=0.5 worst case (§III.C / Leveugle et al.) — and Wilson is
        # slightly tighter than the Wald sizing, so the rule holds.
        n = required_injections(confidence=0.99, error_margin=0.03)
        assert n == 1843
        conv = cell_convergence({"Masked": n // 2, "SDC": n - n // 2})
        assert conv["converged"]
        assert conv["required_n"] == 1843
        # Far short of the sample size, a balanced cell is not there.
        early = cell_convergence({"Masked": 200, "SDC": 200})
        assert not early["converged"]
        assert early["margin"] > 0.03

    def test_lopsided_cell_converges_early(self):
        # A 99%-Masked cell is tight long before 1843 injections.
        conv = cell_convergence({"Masked": 990, "SDC": 10})
        assert conv["converged"]
        assert conv["n"] == 1000


class TestStudyView:
    def test_snapshot_of_completed_study(self, done_study):
        study_dir, result = done_study
        view = load_study_view(study_dir)
        snap = view.snapshot()
        assert snap["units"] == 2
        assert snap["complete"]
        assert snap["tally"]["done"] == 2
        assert snap["injections_done"] == 8
        assert snap["progress"]["planned_injections"] == 8
        assert snap["progress"]["eta_s"] == 0.0
        assert snap["heartbeat_age_s"] is not None
        for cell in snap["cells"]:
            assert sum(cell["counts"].values()) == 4
            assert cell["convergence"]["n"] == 4
            assert not cell["stalled"]
        # Live classification agrees with the journal's done records.
        by_unit = load_journal(study_dir / "journal.jsonl").counts_by_unit()
        for cell in snap["cells"]:
            assert cell["counts"] == by_unit[cell["unit"]]

    def test_snapshot_deterministic_for_fixed_now(self, done_study):
        study_dir, _ = done_study
        a = load_study_view(study_dir).snapshot(now=1.5e9)
        b = load_study_view(study_dir).snapshot(now=1.5e9)
        assert a == b

    def test_agrees_with_journal_only_status(self, done_study):
        study_dir, _ = done_study
        old = study_status(study_dir)
        snap = load_study_view(study_dir).snapshot()
        assert snap["tally"] == old["tally"]
        assert snap["spec_hash"] == old["spec_hash"]
        assert snap["injections_done"] >= old["injections_done"]

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_study_view(tmp_path / "nope")

    def test_prejournal_snapshot_is_wellformed_queued(self, tmp_path):
        # A study directory ahead of the scheduler's first journal
        # line (service-admitted, waiting for a worker slot) must
        # still yield a coherent snapshot rather than an error.
        view = StudyView(tmp_path)
        view.refresh(now=1000.0)
        assert view.state() == "queued"
        snap = view.snapshot(now=1000.0)
        assert snap["state"] == "queued"
        assert not snap["complete"]
        assert snap["injections_done"] == 0
        assert snap["cells"] == []

    def test_state_progression(self, tmp_path, done_study):
        journal = tmp_path / "journal.jsonl"
        rows = [
            {"kind": "study", "spec": {"injections": 4},
             "spec_hash": "cafe", "units": ["u/a/b/c"], "shard": None,
             "ts": 1000.0},
        ]
        journal.write_text("".join(json.dumps(r) + "\n" for r in rows))
        view = StudyView(tmp_path)
        assert view.refresh(now=1000.0).state() == "queued"
        with open(journal, "a") as fh:
            fh.write(json.dumps({"kind": "unit", "unit": "u/a/b/c",
                                 "state": "leased", "attempt": 1,
                                 "ts": 1001.0}) + "\n")
        assert view.refresh(now=1001.0).state() == "running"
        done_dir, _ = done_study
        assert load_study_view(done_dir).state() == "complete"

    def test_incremental_journal_tailing_with_torn_row(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        header = {"kind": "study", "spec": {"injections": 4},
                  "spec_hash": "cafe", "units": ["u/a/b/c"],
                  "shard": None, "ts": 1000.0}
        lease = {"kind": "unit", "unit": "u/a/b/c", "state": "leased",
                 "attempt": 1, "ts": 1001.0}
        done = {"kind": "unit", "unit": "u/a/b/c", "state": "done",
                "counts": {"Masked": 4}, "injections": 4,
                "resumed": 0, "wall_s": 1.0, "ts": 1002.0}
        done_line = json.dumps(done) + "\n"
        journal.write_text(json.dumps(header) + "\n"
                           + json.dumps(lease) + "\n"
                           + done_line[:25])      # crash mid-append
        view = StudyView(tmp_path)
        view.refresh(now=1001.0)
        assert view.units["u/a/b/c"].state == "leased"
        assert [t["seq"] for t in view.transitions] == [0]
        with open(journal, "a") as fh:            # the retry lands it
            fh.write(done_line[25:])
        view.refresh(now=1002.0)
        assert view.units["u/a/b/c"].state == "done"
        assert view.complete()
        assert view.injections_done() == 4
        assert [t["seq"] for t in view.transitions] == [0, 1]

    def test_audit_void_returns_unit_to_pending(self, tmp_path):
        # Two done units, then attestation voids one: the view must
        # agree with the journal's own replay.
        units = ["u/a/b/c", "u/a/b/d"]
        rows = [{"kind": "study", "spec": {"injections": 4},
                 "spec_hash": "cafe", "units": units, "shard": None,
                 "ts": 1000.0}]
        for uid in units:
            rows.append({"kind": "unit", "unit": uid, "state": "leased",
                         "attempt": 1, "ts": 1001.0})
            rows.append({"kind": "unit", "unit": uid, "state": "done",
                         "counts": {"Masked": 4}, "injections": 4,
                         "ts": 1002.0})
        rows.append({"kind": "unit", "unit": units[1],
                     "state": "audit_void", "worker": "w1",
                     "ts": 1003.0})
        journal = tmp_path / "journal.jsonl"
        journal.write_text("".join(json.dumps(r) + "\n" for r in rows))
        view = load_study_view(tmp_path)
        state = load_journal(journal)
        assert view.tally() == state.tally()
        assert view.tally()["pending"] == 1
        assert not view.complete()
        assert view.state() == "running"
        assert view.injections_done() == 4

    def test_stall_detection_from_lease_age(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        rows = [
            {"kind": "study", "spec": {"injections": 4},
             "spec_hash": "cafe", "units": ["u/a/b/c"], "shard": None,
             "ts": 1000.0},
            {"kind": "unit", "unit": "u/a/b/c", "state": "leased",
             "attempt": 1, "ts": 1000.0},
        ]
        journal.write_text("".join(json.dumps(r) + "\n" for r in rows))
        view = StudyView(tmp_path, stall_after_s=60.0)
        view.refresh(now=1000.0)
        assert view.stalled_units(now=1030.0) == []
        assert view.stalled_units(now=1100.0) == ["u/a/b/c"]
        snap = view.snapshot(now=1100.0)
        assert snap["stalled"] == ["u/a/b/c"]
        assert snap["cells"][0]["lease_age_s"] == pytest.approx(100.0)


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.getcode(), resp.read()


@pytest.fixture()
def served(done_study):
    study_dir, result = done_study
    server = StatusServer(study_dir, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs=dict(on_ready=lambda s: ready.set()), daemon=True)
    thread.start()
    assert ready.wait(10.0), "server never bound"
    yield f"http://127.0.0.1:{server.port}", study_dir, result
    server.stop()
    thread.join(10.0)


class TestStatusServer:
    def test_status_endpoint(self, served):
        base, study_dir, _ = served
        code, body = _get(base + "/status")
        assert code == 200
        snap = json.loads(body)
        assert snap["units"] == 2
        assert snap["complete"]
        assert snap["tally"]["done"] == 2

    def test_events_stream_ordered_and_terminated(self, served):
        base, study_dir, _ = served
        code, body = _get(base + "/events")
        assert code == 200
        rows = [json.loads(line) for line in body.decode().splitlines()]
        # Transition rows in journal order, then the terminator.
        assert rows[-1]["name"] == "study_complete"
        seqs = [r["seq"] for r in rows[:-1]]
        assert seqs == sorted(seqs) == list(range(len(seqs)))
        final = rows[-1]
        assert final["complete"]
        by_unit = load_journal(study_dir / "journal.jsonl").counts_by_unit()
        assert final["units"] == by_unit
        assert final["injections_done"] == 8

    def test_events_since_skips_replay(self, served):
        base, _, _ = served
        _, full = _get(base + "/events")
        n = len(full.decode().splitlines())
        _, partial = _get(base + f"/events?since={n - 1}")
        # Everything already seen is skipped; terminator still arrives.
        rows = [json.loads(line)
                for line in partial.decode().splitlines()]
        assert rows[-1]["name"] == "study_complete"
        assert len(rows) == 1

    def test_dashboard_is_self_contained(self, served):
        base, _, _ = served
        code, body = _get(base + "/")
        page = body.decode()
        assert code == 200
        assert "/status" in page
        assert "src=" not in page and "href=" not in page

    def test_unknown_path_404(self, served):
        base, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base + "/nope")
        assert err.value.code == 404

    def test_post_rejected(self, served):
        base, _, _ = served
        req = urllib.request.Request(base + "/status", data=b"x",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10.0)
        assert err.value.code == 405

    def test_status_before_first_journal_line(self, tmp_path):
        # obs serve started ahead of sched run (or on a queued service
        # study): /status answers a well-formed "queued" snapshot.
        server = StatusServer(tmp_path, port=0)
        ready = threading.Event()
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs=dict(on_ready=lambda s: ready.set()), daemon=True)
        thread.start()
        assert ready.wait(10.0)
        try:
            code, body = _get(f"http://127.0.0.1:{server.port}/status")
            snap = json.loads(body)
            assert code == 200
            assert snap["state"] == "queued"
            assert snap["units"] == 0 and not snap["complete"]
        finally:
            server.stop()
            thread.join(10.0)


class TestLiveStreaming:
    def test_events_follow_a_running_study(self, tmp_path):
        """Start the server first, run the study under it, read the
        NDJSON stream to EOF: ordered transitions, then the terminator
        whose totals match the finished journal."""
        study_dir = tmp_path / "live"
        server = StatusServer(study_dir, port=0)
        ready = threading.Event()
        srv_thread = threading.Thread(
            target=server.serve_forever,
            kwargs=dict(on_ready=lambda s: ready.set()), daemon=True)
        srv_thread.start()
        assert ready.wait(10.0)
        try:
            results = {}

            def run():
                results["study"] = run_study(
                    spec(injections=3), study_dir, workers=2, fsync=False)

            study_thread = threading.Thread(target=run)
            study_thread.start()
            url = f"http://127.0.0.1:{server.port}/events"
            code, body = _get(url, timeout=120.0)   # blocks until EOF
            study_thread.join(120.0)
            assert code == 200
            assert results["study"].ok
            rows = [json.loads(line)
                    for line in body.decode().splitlines()]
            assert rows[-1]["name"] == "study_complete"
            seqs = [r["seq"] for r in rows[:-1]]
            assert seqs == sorted(seqs)
            states = [r["state"] for r in rows[:-1]]
            assert states.count("done") == 2
            by_unit = load_journal(
                study_dir / "journal.jsonl").counts_by_unit()
            assert rows[-1]["units"] == by_unit
            assert rows[-1]["tally"]["done"] == 2
        finally:
            server.stop()
            srv_thread.join(10.0)
