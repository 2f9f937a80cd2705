"""Offline integrity checking (``repro.tools fsck``).

A clean study produced by the real scheduler must pass with zero
findings; every class of damage — torn tails, duplicated set_ids,
swapped masks, cooked counts, a golden that disagrees with its family,
a blob that does not hash to its name — must come back as a named
finding.  ``--repair`` may only ever truncate torn tails.
"""

import json

import pytest

from repro import tools
from repro.sched import StudySpec
from repro.svc import CampaignService, fsck_path, fsck_service, fsck_study

SETUP = "MaFIN-x86"


def spec(**over):
    base = dict(setups=(SETUP,), benchmarks=("sha",),
                structures=("int_rf",), fault_types=("transient",),
                injections=2, seed=7)
    base.update(over)
    return StudySpec(**base)


@pytest.fixture(scope="module")
def service_root(tmp_path_factory):
    """A finished one-study service root, the clean baseline."""
    root = tmp_path_factory.mktemp("svc-fsck")
    with CampaignService(root, workers=1, fsync=False) as svc:
        sid = svc.submit(spec(), tenant="alice")
        svc.run_until_idle(timeout_s=120)
    return root, sid


@pytest.fixture()
def study_dir(service_root, tmp_path):
    """A disposable copy of the clean study directory."""
    import shutil
    root, sid = service_root
    dst = tmp_path / sid
    shutil.copytree(root / "studies" / sid, dst)
    return dst


def checks(findings):
    return sorted({f["check"] for f in findings})


class TestCleanDirectories:
    def test_clean_study_has_no_findings(self, study_dir):
        assert fsck_study(study_dir) == []

    def test_clean_service_has_no_findings(self, service_root):
        root, _ = service_root
        assert fsck_service(root) == []

    def test_fsck_path_autodetects(self, service_root, study_dir,
                                   tmp_path):
        root, _ = service_root
        assert fsck_path(root)[0] == "service"
        assert fsck_path(study_dir)[0] == "study"
        with pytest.raises(ValueError, match="neither"):
            fsck_path(tmp_path)


class TestStudyFindings:
    def logs_file(self, study_dir):
        return next((study_dir / "logs").glob("*.jsonl"))

    def masks_file(self, study_dir):
        return next((study_dir / "masks").glob("*.jsonl"))

    def test_torn_journal_tail_reported_and_repaired(self, study_dir):
        journal = study_dir / "journal.jsonl"
        good = journal.read_text()
        journal.write_text(good + '{"kind": "unit", "st')
        found = fsck_study(study_dir)
        assert checks(found) == ["journal-parse"]
        assert not found[0]["repaired"]
        found = fsck_study(study_dir, repair=True)
        assert found[0]["repaired"]
        assert journal.read_text() == good
        assert fsck_study(study_dir) == []

    def test_mid_file_corruption_is_not_repairable(self, study_dir):
        journal = study_dir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        lines[1] = lines[1][:10]
        journal.write_text("".join(line + "\n" for line in lines))
        found = fsck_study(study_dir, repair=True)
        assert checks(found) == ["journal-parse"]
        assert not found[0]["repaired"]

    def test_duplicate_set_id(self, study_dir):
        logs = self.logs_file(study_dir)
        lines = logs.read_text().splitlines()
        inj = next(line for line in lines
                   if json.loads(line)["kind"] == "injection")
        logs.write_text("".join(line + "\n" for line in lines)
                        + inj + "\n")
        assert "duplicate-set-id" in checks(fsck_study(study_dir))

    def test_record_masks_swapped(self, study_dir):
        logs = self.logs_file(study_dir)
        rows = [json.loads(line)
                for line in logs.read_text().splitlines()]
        injections = [r for r in rows if r["kind"] == "injection"]
        a, b = injections[0]["data"], injections[1]["data"]
        a["masks"], b["masks"] = b["masks"], a["masks"]
        logs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert "record-mask-mismatch" in checks(fsck_study(study_dir))

    def test_cooked_counts(self, study_dir):
        journal = study_dir / "journal.jsonl"
        rows = [json.loads(line)
                for line in journal.read_text().splitlines()]
        for row in rows:
            if row.get("state") == "done":
                row["counts"] = {"Masked": 999}
        journal.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert "counts-mismatch" in checks(fsck_study(study_dir))

    def test_missing_logs_file(self, study_dir):
        self.logs_file(study_dir).unlink()
        found = fsck_study(study_dir)
        assert checks(found) == ["logs-parse"]
        assert "missing" in found[0]["detail"]

    def test_unnamed_event_mid_stream(self, study_dir):
        # obs summarize refuses this stream, so fsck must report it —
        # and --repair, which only truncates torn tails, leaves it.
        events = study_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        lines.insert(2, json.dumps({"ts": 1.0}))
        events.write_text("".join(line + "\n" for line in lines))
        found = fsck_study(study_dir, repair=True)
        assert checks(found) == ["events-parse"]
        assert "events.jsonl:3: corrupt line" in found[0]["detail"]
        assert not found[0]["repaired"]

    def test_unknown_unit_and_bad_state(self, study_dir):
        journal = study_dir / "journal.jsonl"
        with open(journal, "a") as fh:
            fh.write(json.dumps({"kind": "unit", "unit": "not/in/plan",
                                 "state": "leased"}) + "\n")
            fh.write(json.dumps({"kind": "unit",
                                 "unit": "also/not/planned",
                                 "state": "meditating"}) + "\n")
        found = checks(fsck_study(study_dir))
        assert "journal-unknown-unit" in found
        assert "journal-bad-state" in found


class TestServiceFindings:
    def test_bad_blob_digest(self, service_root, tmp_path):
        import shutil
        root, sid = service_root
        dst = tmp_path / "root"
        shutil.copytree(root, dst)
        (dst / "blobs").mkdir(exist_ok=True)
        (dst / "blobs" / ("ab" * 32 + ".blob")).write_bytes(b"not that")
        assert "blob-digest" in checks(fsck_service(dst))

    def test_missing_study_dir(self, service_root, tmp_path):
        import shutil
        root, sid = service_root
        dst = tmp_path / "root"
        shutil.copytree(root, dst)
        shutil.rmtree(dst / "studies" / sid)
        assert "missing-study-dir" in checks(fsck_service(dst))

    def test_service_event_stream_checked(self, service_root, tmp_path):
        import shutil
        root, _ = service_root
        dst = tmp_path / "root"
        shutil.copytree(root, dst)
        events = dst / "service-events.jsonl"
        lines = events.read_text().splitlines()
        lines.insert(1, json.dumps({"ts": 1.0, "study": "x"}))
        events.write_text("".join(line + "\n" for line in lines))
        found = fsck_service(dst)
        assert checks(found) == ["events-parse"]
        assert found[0]["path"] == str(events)

    def test_epoch_regression(self, service_root, tmp_path):
        import shutil
        root, _ = service_root
        dst = tmp_path / "root"
        shutil.copytree(root, dst)
        with open(dst / "service.jsonl", "a") as fh:
            fh.write(json.dumps({"kind": "epoch", "epoch": 1}) + "\n")
            fh.write(json.dumps({"kind": "epoch", "epoch": 1}) + "\n")
        assert "epoch-regression" in checks(fsck_service(dst))


class TestFsckCli:
    def test_clean_exits_zero(self, study_dir, capsys):
        assert tools.main(["fsck", str(study_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_exits_three_with_named_findings(self, study_dir,
                                                     capsys):
        (study_dir / "journal.jsonl").write_text("")
        code = tools.main(["fsck", str(study_dir)])
        out = capsys.readouterr().out
        assert code == 3
        assert "journal-header" in out

    def test_repair_then_clean(self, study_dir, capsys):
        journal = study_dir / "journal.jsonl"
        journal.write_text(journal.read_text() + '{"torn')
        assert tools.main(["fsck", str(study_dir)]) == 3
        capsys.readouterr()
        assert tools.main(["fsck", "--repair", str(study_dir)]) == 0
        assert "repaired" in capsys.readouterr().out
        assert tools.main(["fsck", str(study_dir)]) == 0

    def test_json_output(self, study_dir, capsys):
        assert tools.main(["fsck", "--json", str(study_dir)]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body == {"kind": "study", "findings": [], "clean": True}

    def test_not_a_campaign_directory(self, tmp_path, capsys):
        assert tools.main(["fsck", str(tmp_path)]) == 2
        assert "neither" in capsys.readouterr().err
