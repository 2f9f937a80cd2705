"""The durable scheduler: losslessness, retries, shards, merge.

These tests run real (tiny) studies — a few units of a few injections
each — through worker processes, so they are the slowest in the suite
but exercise the machinery the paper's month-long studies depend on.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.campaign import run_campaign
from repro.sched import (DONE, QUARANTINED, CampaignPlan, Journal,
                         Scheduler, StudySpec, WorkUnit, load_journal,
                         merge_studies, run_study, run_unit, study_status)
from repro.obs.metrics import MetricsRegistry
from repro.sched.pool import CRASHED, RESULT, Lease, LeasePool
from repro.sched.study import StudyRun
from repro.sched.worker import _lock_logs, unit_entry
from repro.svc import fsck_study

TWO_SETUPS = ("MaFIN-x86", "GeFIN-x86")


def spec(**over):
    base = dict(setups=TWO_SETUPS, benchmarks=("sha",),
                structures=("int_rf",), fault_types=("transient",),
                injections=4, seed=7)
    base.update(over)
    return StudySpec(**base)


def truncate_logs(path, keep_injections):
    """Simulate a unit killed mid-campaign: keep golden + K records."""
    rows = [json.loads(line) for line in
            path.read_text().strip().splitlines()]
    kept, n = [], 0
    for row in rows:
        if row.get("kind") == "injection":
            if n >= keep_injections:
                continue
            n += 1
        kept.append(row)
    path.write_text("".join(json.dumps(r) + "\n" for r in kept))


class TestUnitLosslessness:
    """Kill-and-resume must lose nothing, on both setups."""

    @pytest.mark.parametrize("setup", TWO_SETUPS)
    def test_mid_unit_resume_matches_uninterrupted(self, tmp_path, setup):
        sp = spec(injections=5)
        unit = CampaignPlan.from_spec(sp).unit(
            f"{setup}/sha/int_rf/transient")
        full_logs = tmp_path / "full.jsonl"
        full = run_unit(unit, sp, full_logs)
        assert full["ok"] and full["injections"] == 5
        assert full["resumed"] == 0 and full["fresh"] == 5

        # Interrupted copy: the crash landed after two injections.
        cut_logs = tmp_path / "cut.jsonl"
        cut_logs.write_text(full_logs.read_text())
        truncate_logs(cut_logs, keep_injections=2)
        resumed = run_unit(unit, sp, cut_logs, attempt=2)
        assert resumed["resumed"] == 2 and resumed["fresh"] == 3
        assert resumed["counts"] == full["counts"]
        assert cut_logs.read_text() == full_logs.read_text()

    def test_unit_rejects_foreign_logs(self, tmp_path):
        sp = spec()
        plan = CampaignPlan.from_spec(sp)
        uid = f"{TWO_SETUPS[0]}/sha/int_rf/transient"
        logs = tmp_path / "logs.jsonl"
        run_unit(plan.unit(uid), sp, logs)
        # Same file, different spec seed -> different mask stream.
        with pytest.raises(ValueError, match="mask stream"):
            run_unit(plan.unit(uid), spec(seed=8), logs)

    def test_failed_unit_reports_its_unit_id(self, tmp_path, monkeypatch):
        uid = f"{TWO_SETUPS[1]}/sha/int_rf/transient"
        monkeypatch.setenv("REPRO_SCHED_CHAOS", f"{uid}=fail:1")
        payload = {"unit": WorkUnit.from_id(uid).to_dict(),
                   "spec": spec().to_dict(),
                   "logs_path": str(tmp_path / "logs.jsonl")}
        ours, theirs = multiprocessing.Pipe()
        unit_entry(theirs, payload)
        result = ours.recv()
        assert result["ok"] is False and result["unit"] == uid
        assert "ChaosFailure" in result["error"]


def _hold_lease(uid, logs, pid_path):
    """Stand-in scheduler: lease one unit, publish its pid, then idle."""
    pool = LeasePool(1)
    lease = pool.launch(WorkUnit.from_id(uid), spec(), logs_path=logs,
                        masks_path=None)
    pid_path.write_text(str(lease.proc.pid))
    time.sleep(600)


def _exited(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestOneWriterPerUnit:
    """A unit's logs have one writer, even when a scheduler is SIGKILLed
    and a resumed one leases the unit again."""

    UID = f"{TWO_SETUPS[0]}/sha/int_rf/transient"

    def test_worker_waits_for_the_units_other_writer(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_SCHED_CHAOS", f"{self.UID}=fail:1")
        logs = str(tmp_path / "logs" / "unit.jsonl")
        held = _lock_logs(logs)          # an orphan still writing
        ours, theirs = multiprocessing.Pipe()
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=unit_entry, args=(theirs, {
            "unit": WorkUnit.from_id(self.UID).to_dict(),
            "spec": spec().to_dict(), "logs_path": logs}))
        proc.start()
        try:
            assert not ours.poll(3)      # blocked on the logs lock
        finally:
            os.close(held)
        assert ours.poll(60) and ours.recv()["ok"] is False
        proc.join(timeout=30)
        assert not proc.is_alive()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_orphaned_worker_exits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCHED_CHAOS", f"{self.UID}=hang:1")
        pid_path = tmp_path / "worker.pid"
        sched = multiprocessing.get_context("fork").Process(
            target=_hold_lease,
            args=(self.UID, tmp_path / "logs.jsonl", pid_path))
        sched.start()
        worker = None
        try:
            deadline = time.monotonic() + 60
            while not pid_path.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            worker = int(pid_path.read_text())
            time.sleep(0.5)
            assert not _exited(worker)   # hanging in its chaos sleep
            os.kill(sched.pid, signal.SIGKILL)
            sched.join(timeout=30)
            deadline = time.monotonic() + 10
            while not _exited(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _exited(worker)
        finally:
            for pid in (sched.pid, worker):
                if pid is not None and not _exited(pid):
                    os.kill(pid, signal.SIGKILL)


#: Larger than a pipe buffer, so the worker is still writing its result
#: while the parent reads it.
BIG = bytes(range(256)) * 4096


def _send_small(conn, payload):
    conn.send({"ok": True, "unit": payload["unit"]["benchmark"]})
    conn.close()


def _send_big(conn, payload):
    conn.send({"ok": True, "blob": BIG})
    conn.close()


def _send_nothing(conn, payload):
    conn.close()


class TestPoolCompletionOrder:
    """``LeasePool.poll`` reads a worker's result before it asks whether
    the worker still lives: a worker that sent its result and exited is
    a RESULT, never a CRASHED."""

    def launch(self, tmp_path, monkeypatch, target):
        # A forked worker runs the patched target.
        monkeypatch.setattr("repro.sched.pool.unit_entry", target)
        pool = LeasePool(1)
        lease = pool.launch(WorkUnit.from_id(TestOneWriterPerUnit.UID),
                            spec(), logs_path=tmp_path / "logs.jsonl",
                            masks_path=None)
        return pool, lease

    def test_result_of_an_exited_worker(self, tmp_path, monkeypatch):
        pool, lease = self.launch(tmp_path, monkeypatch, _send_small)
        lease.proc.join(30)
        assert not lease.proc.is_alive()
        assert pool.poll() == [(lease, RESULT, {"ok": True, "unit": "sha"})]
        assert pool.running == []

    def test_result_larger_than_a_pipe_buffer(self, tmp_path, monkeypatch):
        pool, lease = self.launch(tmp_path, monkeypatch, _send_big)
        finished, deadline = [], time.monotonic() + 60
        while not finished and time.monotonic() < deadline:
            finished = pool.poll()
        [(got, kind, payload)] = finished
        assert got is lease and kind == RESULT
        assert payload["blob"] == BIG

    def test_exit_without_a_result_is_a_crash(self, tmp_path, monkeypatch):
        pool, lease = self.launch(tmp_path, monkeypatch, _send_nothing)
        lease.proc.join(30)
        assert not lease.proc.is_alive()
        assert pool.poll() == [(lease, CRASHED,
                                "worker exited with code 0")]


class TestScheduler:
    def test_study_matches_direct_campaigns(self, tmp_path):
        sp = spec()
        result = run_study(sp, tmp_path / "study", workers=2)
        assert result.ok and len(result.cells) == 2
        for unit in CampaignPlan.from_spec(sp):
            direct = run_campaign(unit.setup, unit.benchmark,
                                  unit.structure, injections=sp.injections,
                                  seed=unit.seed(sp.seed))
            assert result.cells[unit.unit_id].counts == direct.classify()

    def test_cancel_and_resume_lossless(self, tmp_path, monkeypatch):
        sp = spec(injections=6)
        baseline = run_study(sp, tmp_path / "baseline", workers=1)
        assert baseline.ok

        # Cancel as soon as the first unit lands.  The second unit
        # hangs on its first attempt, so the cancel always finds it in
        # flight and terminates it; the resume runs its attempt 2.
        study_dir = tmp_path / "study"
        plan = CampaignPlan.from_spec(sp)
        monkeypatch.setenv("REPRO_SCHED_CHAOS",
                           f"{plan.unit_ids()[1]}=hang:1")
        sched = Scheduler(plan, study_dir, workers=2)
        sched.progress = lambda uid, state, done, total: (
            sched.cancel() if state == DONE else None)
        first = sched.run()
        assert first.interrupted and not first.ok
        done_before = [uid for uid, c in first.cells.items()
                       if c.state == DONE]
        assert done_before == plan.unit_ids()[:1]

        resumed = Scheduler.resume(study_dir, workers=2).run(resume=True)
        assert resumed.ok and not resumed.interrupted
        assert resumed.totals() == baseline.totals()
        assert resumed.classifications() == baseline.classifications()
        # Completed units were restored from the journal, not re-leased.
        state = load_journal(study_dir / "journal.jsonl")
        for uid in done_before:
            assert state.attempts[uid] == 1

    def test_resume_accepts_setup_major_header(self, tmp_path):
        """Study directories written before units were interleaved by
        pair list them setup-major in the journal header; resume and
        fsck go by unit id, so the order does not matter to them."""
        sp = spec(structures=("int_rf", "l1d"), injections=2)
        old_units = sorted(CampaignPlan.from_spec(sp),
                           key=lambda u: (sp.setups.index(u.setup),
                                          sp.structures.index(u.structure)))
        study_dir = tmp_path / "study"
        sched = Scheduler(CampaignPlan(sp, units=old_units), study_dir,
                          workers=1)
        sched.progress = lambda uid, state, done, total: (
            sched.cancel() if state == DONE else None)
        assert sched.run().interrupted
        header = load_journal(study_dir / "journal.jsonl").unit_ids
        assert header == [u.unit_id for u in old_units]
        assert header != CampaignPlan.from_spec(sp).unit_ids()

        resumed = Scheduler.resume(study_dir, workers=2).run(resume=True)
        assert resumed.ok and len(resumed.cells) == 4
        assert fsck_study(study_dir) == []

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        sp = spec(setups=(TWO_SETUPS[0],))
        run_study(sp, tmp_path / "study", workers=1)
        with pytest.raises(FileExistsError):
            run_study(sp, tmp_path / "study", workers=1)

    def test_resume_refuses_other_spec(self, tmp_path):
        sp = spec(setups=(TWO_SETUPS[0],))
        run_study(sp, tmp_path / "study", workers=1)
        plan = CampaignPlan.from_spec(spec(setups=(TWO_SETUPS[0],),
                                           seed=99))
        with pytest.raises(ValueError, match="spec"):
            Scheduler(plan, tmp_path / "study").run(resume=True)

    def test_run_study_resume_checks_spec_and_shard(self, tmp_path):
        # A header-only journal: resume must refuse before running.
        sp = spec(structures=("int_rf", "l1i"))
        study = tmp_path / "study"
        with Journal(study / "journal.jsonl", fsync=False) as journal:
            journal.write_header(sp.to_dict(),
                                 CampaignPlan.from_spec(sp).unit_ids())
        with pytest.raises(ValueError, match="spec"):
            run_study(spec(structures=("int_rf", "l1i"), seed=99), study,
                      resume=True, workers=1)
        with pytest.raises(ValueError, match="shard"):
            run_study(sp, study, shard=(1, 2), resume=True, workers=1)
        with pytest.raises(FileNotFoundError):
            run_study(sp, tmp_path / "none", resume=True, workers=1)
        assert load_journal(study / "journal.jsonl").attempts == {}

    def test_resume_refuses_other_shard(self, tmp_path):
        sp = spec(structures=("int_rf", "l1i"))
        plan = CampaignPlan.from_spec(sp)
        shard0 = tmp_path / "shard0"
        with Journal(shard0 / "journal.jsonl", fsync=False) as journal:
            journal.write_header(sp.to_dict(), plan.shard(0, 2).unit_ids(),
                                 shard=(0, 2))
        with pytest.raises(ValueError, match="shard"):
            Scheduler(plan.shard(1, 2), shard0, workers=1).run(resume=True)
        assert fsck_study(shard0) == []

    def test_status_and_events(self, tmp_path):
        sp = spec(setups=(TWO_SETUPS[1],), structures=("int_rf", "l1d"))
        run_study(sp, tmp_path / "study", workers=2)
        status = study_status(tmp_path / "study")
        assert status["units"] == 2
        assert status["tally"][DONE] == 2
        assert status["injections_done"] == 8
        names = [json.loads(line)["name"] for line in
                 (tmp_path / "study" / "events.jsonl").read_text()
                 .strip().splitlines()]
        assert names[0] == "study_start" and names[-1] == "study_end"
        for expected in ("unit_leased", "inject_end", "unit_done"):
            assert expected in names


class TestTornTailResume:
    """A study killed mid-append resumes into a directory every reader
    agrees on: the writers truncate the torn tails before appending."""

    @pytest.mark.filterwarnings("ignore:.*torn trailing line")
    def test_resume_over_torn_journal_and_events(self, tmp_path):
        from repro.obs.live import load_study_view
        from repro.obs.summarize import load_events
        sp = spec(setups=(TWO_SETUPS[0],), structures=("int_rf", "l1d"),
                  injections=2)
        study_dir = tmp_path / "study"
        assert run_study(sp, study_dir, workers=1, fsync=False).ok
        journal = study_dir / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        last_done = max(i for i, line in enumerate(lines)
                        if json.loads(line).get("state") == DONE)
        del lines[last_done]
        journal.write_text("".join(lines)
                           + '{"kind": "unit", "unit": "x", "sta')
        with open(study_dir / "events.jsonl", "a") as fh:
            fh.write('{"name": "inject_end", "ts": 1')

        resumed = Scheduler.resume(study_dir, workers=1,
                                   fsync=False).run(resume=True)
        assert resumed.ok
        assert fsck_study(study_dir) == []
        assert merge_studies([study_dir])["complete"]
        assert load_study_view(study_dir).tally() == \
            study_status(study_dir)["tally"]
        attempts = load_journal(journal).attempts
        Scheduler.resume(study_dir, workers=1, fsync=False).run(resume=True)
        assert load_journal(journal).attempts == attempts
        assert load_events(study_dir / "events.jsonl")[-1]["name"] == \
            "study_end"


class TestFailurePolicy:
    def test_retry_then_success(self, tmp_path, monkeypatch):
        sp = spec(setups=(TWO_SETUPS[0],))
        uid = f"{TWO_SETUPS[0]}/sha/int_rf/transient"
        monkeypatch.setenv("REPRO_SCHED_CHAOS", f"{uid}=fail:2")
        plan = CampaignPlan.from_spec(sp)
        sched = Scheduler(plan, tmp_path / "study", workers=1,
                          max_retries=2, backoff_s=0.05)
        result = sched.run()
        assert result.ok
        assert result.cells[uid].attempts == 3
        assert sched.metrics.counter_value("sched.retries") == 2
        assert sched.metrics.counter_value("sched.units_failed") == 2

    def test_poison_unit_quarantined(self, tmp_path, monkeypatch):
        sp = spec(structures=("int_rf",))
        uid = f"{TWO_SETUPS[0]}/sha/int_rf/transient"
        monkeypatch.setenv("REPRO_SCHED_CHAOS", f"{uid}=fail:99")
        sched = Scheduler(CampaignPlan.from_spec(sp), tmp_path / "study",
                          workers=2, max_retries=1, backoff_s=0.05)
        result = sched.run()
        assert not result.ok and not result.interrupted
        assert result.quarantined() == [uid]
        other = f"{TWO_SETUPS[1]}/sha/int_rf/transient"
        assert result.cells[other].state == DONE
        state = load_journal(tmp_path / "study" / "journal.jsonl")
        assert state.state_of(uid) == QUARANTINED
        assert sched.metrics.counter_value("sched.quarantined") == 1

    def test_hung_unit_times_out_and_retries(self, tmp_path, monkeypatch):
        sp = spec(setups=(TWO_SETUPS[1],), injections=3)
        uid = f"{TWO_SETUPS[1]}/sha/int_rf/transient"
        monkeypatch.setenv("REPRO_SCHED_CHAOS", f"{uid}=hang:1")
        sched = Scheduler(CampaignPlan.from_spec(sp), tmp_path / "study",
                          workers=1, unit_timeout_s=2.0, max_retries=2,
                          backoff_s=0.05)
        result = sched.run()
        assert result.ok and result.cells[uid].attempts == 2
        assert sched.metrics.counter_value("sched.timeouts") == 1



def first_leased_pairs(journal_path, n):
    """(setup, benchmark) of the first *n* ``leased`` journal rows."""
    rows = [json.loads(line) for line in
            journal_path.read_text().splitlines()]
    units = [row["unit"] for row in rows if row.get("state") == "leased"]
    return [tuple(uid.split("/")[:2]) for uid in units[:n]]


class TestReadyList:
    """StudyRun's ready list: plan order, then retries behind backoff."""

    @pytest.fixture
    def plan(self):
        return CampaignPlan.from_spec(spec(setups=TWO_SETUPS[:1],
                                           structures=("int_rf", "l1d")))

    @pytest.fixture
    def run(self, tmp_path, plan):
        run = StudyRun(plan, tmp_path / "study", metrics=MetricsRegistry(),
                       fsync=False, backoff_s=30.0)
        yield run
        run.close()

    def test_plan_order_then_empty(self, plan, run):
        got = [run.next_unit() for _ in plan]
        assert [u.unit_id for u in got] == plan.unit_ids()
        assert run.ready == []
        assert run.next_unit() is None

    def test_failed_unit_waits_out_its_backoff(self, plan, run):
        unit = run.next_unit()
        lease = Lease(unit, run.lease(unit), None, None, 0.0)
        assert run.fail(lease, "error", "boom") == 30.0
        now = time.monotonic()
        # The rest of the study goes first; the retry is not eligible
        # until its delay has passed.
        assert run.next_unit(now) is plan.units[1]
        assert run.next_unit(now) is None
        assert run.next_unit(now + 30.0) is unit
        assert run.next_unit(now + 30.0) is None


class TestLeaseOrder:
    def test_first_leases_are_distinct_pairs(self, tmp_path, monkeypatch):
        # Chaos-fail every unit on its first attempt with no retries:
        # nothing is simulated and the leases follow the plan's order.
        sp = spec(setups=("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM"),
                  structures=("int_rf", "l1d"))
        plan = CampaignPlan.from_spec(sp)
        monkeypatch.setenv("REPRO_SCHED_CHAOS",
                           ";".join(f"{u.unit_id}=fail:99" for u in plan))
        result = Scheduler(plan, tmp_path / "study", workers=2,
                           max_retries=0, fsync=False).run()
        assert len(result.quarantined()) == 6
        pairs = first_leased_pairs(tmp_path / "study" / "journal.jsonl", 3)
        assert len(set(pairs)) == 3


class TestSharding:
    def test_two_shards_merge_to_unsharded_result(self, tmp_path):
        # int_rf/l1i chosen because the grid genuinely splits 2/2.
        sp = spec(structures=("int_rf", "l1i"))
        whole = run_study(sp, tmp_path / "whole", workers=2)
        assert whole.ok

        dirs = []
        for i in range(2):
            d = tmp_path / f"shard{i}"
            res = run_study(sp, d, shard=(i, 2), workers=2)
            assert res.ok and len(res.cells) == 2    # a real split
            dirs.append(d)
        merged = merge_studies(dirs)
        assert merged["complete"]
        assert not merged["missing"] and not merged["conflicts"]
        assert merged["units"] == whole.classifications()
        assert merged["totals"] == whole.totals()

    def test_merge_flags_missing_shard(self, tmp_path):
        sp = spec(structures=("int_rf", "l1i"))
        d = tmp_path / "shard0"
        run_study(sp, d, shard=(0, 2), workers=2)
        merged = merge_studies([d])
        assert not merged["complete"]
        assert merged["missing"]

    def test_merge_rejects_spec_mismatch(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_study(spec(setups=(TWO_SETUPS[0],)), a, workers=1)
        run_study(spec(setups=(TWO_SETUPS[0],), seed=9), b, workers=1)
        with pytest.raises(ValueError, match="spec mismatch"):
            merge_studies([a, b])


class TestKillResumeCli:
    """SIGTERM a running study process, resume it, lose nothing."""

    def test_sigterm_then_resume_matches_uninterrupted(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        common = ["--benchmarks", "sha", "--structures", "int_rf",
                  "--injections", "8", "--seed", "7", "--workers", "1"]
        study = tmp_path / "study"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "sched", "run",
             "--out", str(study), *common],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # Wait for the first unit to complete, then pull the plug while
        # the second is (or is about to be) in flight.
        journal = study / "journal.jsonl"
        deadline = time.time() + 60
        while time.time() < deadline:
            if journal.exists() and '"done"' in journal.read_text():
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("study never completed its first unit")
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        state = load_journal(journal)
        if rc == 0:                      # lost the race: study finished
            assert state.tally()[DONE] == 2
        else:
            assert rc == 130
            assert state.tally()[DONE] < 2
            rc2 = subprocess.run(
                [sys.executable, "-m", "repro.tools", "sched", "resume",
                 str(study), "--workers", "1"],
                env=env, stdout=subprocess.DEVNULL).returncode
            assert rc2 == 0

        baseline = run_study(StudySpec.from_dict(
            load_journal(journal).spec_dict),
            tmp_path / "baseline", workers=1)
        final = load_journal(journal)
        assert final.tally()[DONE] == 2
        assert final.counts_by_unit() == {
            uid: cell.counts for uid, cell in baseline.cells.items()}
