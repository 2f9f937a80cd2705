"""Masks/logs repositories: reopen idempotence, dedup, durability."""

import json
import os

import pytest

from repro.core.fault import FaultMask, FaultSet
from repro.core.outcome import GoldenReference, InjectionRecord
from repro.core.repository import LogsRepository, MasksRepository
from repro.errors import CampaignError


def fault_set(set_id):
    return FaultSet(masks=(FaultMask("l1d", entry=set_id, bit=0,
                                     cycle=10 + set_id),),
                    set_id=set_id)


def record(set_id, reason="exit"):
    return InjectionRecord(set_id=set_id,
                           masks=[fault_set(set_id).masks[0].to_dict()],
                           reason=reason, exit_code=0, output_hex="ab")


GOLDEN = GoldenReference(cycles=100, exit_code=0, output_hex="ab")


class TestMasksRepository:
    def test_reopen_and_readd_appends_nothing(self, tmp_path):
        path = tmp_path / "masks.jsonl"
        sets = [fault_set(i) for i in range(3)]
        MasksRepository(path).add_all(sets)
        size = path.stat().st_size

        # A resumed process regenerates the same deterministic masks
        # and re-adds them: the file must not grow, contents must not
        # duplicate.
        repo = MasksRepository(path)
        assert len(repo) == 3
        repo.add_all(sets)
        assert len(repo) == 3
        assert path.stat().st_size == size

    def test_partial_overlap_appends_only_fresh(self, tmp_path):
        path = tmp_path / "masks.jsonl"
        MasksRepository(path).add_all([fault_set(0), fault_set(1)])
        repo = MasksRepository(path)
        repo.add_all([fault_set(1), fault_set(2)])
        assert sorted(fs.set_id for fs in repo) == [0, 1, 2]
        assert sorted(fs.set_id for fs in MasksRepository(path)) == [0, 1, 2]

    def test_contains(self, tmp_path):
        repo = MasksRepository()
        repo.add_all([fault_set(7)])
        assert 7 in repo and 8 not in repo

    def test_fsync_flag_writes_durably(self, tmp_path):
        path = tmp_path / "masks.jsonl"
        MasksRepository(path, fsync=True).add_all([fault_set(0)])
        assert len(MasksRepository(path)) == 1


class TestLogsRepository:
    def test_reopen_and_readd_appends_nothing(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        repo = LogsRepository(path)
        repo.set_golden(GOLDEN)
        repo.add(record(0))
        repo.add(record(1))
        size = path.stat().st_size

        # Crash-resume: reattach, re-set the identical golden, replay
        # the campaign loop over the same set_ids.
        repo2 = LogsRepository(path)
        assert repo2.golden == GOLDEN
        assert len(repo2) == 2
        repo2.set_golden(GOLDEN)
        repo2.add(record(0))
        repo2.add(record(1))
        assert len(repo2) == 2
        assert path.stat().st_size == size

    def test_resume_skip_list(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        repo = LogsRepository(path)
        repo.set_golden(GOLDEN)
        repo.add(record(0))
        repo2 = LogsRepository(path)
        assert repo2.set_ids == {0}
        assert 0 in repo2 and 1 not in repo2
        repo2.add(record(1))               # only the missing injection
        assert LogsRepository(path).set_ids == {0, 1}

    def test_duplicate_add_keeps_first_record(self, tmp_path):
        repo = LogsRepository(tmp_path / "logs.jsonl")
        repo.add(record(0, reason="exit"))
        repo.add(record(0, reason="panic"))
        assert len(repo) == 1
        assert repo.records[0].reason == "exit"

    def test_changed_golden_appends_and_last_wins(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        repo = LogsRepository(path)
        repo.set_golden(GOLDEN)
        other = GoldenReference(cycles=200, exit_code=0, output_hex="cd")
        repo.set_golden(other)
        assert LogsRepository(path).golden == other
        # Two golden rows on disk: the file stayed append-only.
        rows = path.read_text().strip().splitlines()
        assert sum('"golden"' in r for r in rows) == 2

    def test_fsync_flag_writes_durably(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        repo = LogsRepository(path, fsync=True)
        repo.set_golden(GOLDEN)
        repo.add(record(0))
        loaded = LogsRepository(path)
        assert loaded.golden == GOLDEN and len(loaded) == 1


class TestTornTailReopen:
    """Crash-interrupted appends: reopen repairs, then life goes on."""

    def make_torn_logs(self, path):
        repo = LogsRepository(path)
        repo.set_golden(GOLDEN)
        repo.add(record(0))
        good = path.read_text()
        with open(path, "a") as fh:
            fh.write('{"kind": "injection", "data": {"set_')
        return good

    def test_repair_then_duplicate_set_id_append(self, tmp_path):
        # The torn row *was* record 1's append; after repair the resume
        # loop re-adds record 0 (a duplicate, skipped) and record 1
        # (genuinely missing) — the file must end up exactly as if the
        # crash never happened.
        path = tmp_path / "logs.jsonl"
        good = self.make_torn_logs(path)
        with pytest.warns(RuntimeWarning, match="torn"):
            repo = LogsRepository(path)
        assert path.read_text() == good
        assert repo.set_ids == {0}
        repo.add(record(0))                # duplicate: skipped
        repo.add(record(1))
        assert path.read_text().startswith(good)
        reloaded = LogsRepository(path)
        assert reloaded.set_ids == {0, 1}
        assert len(reloaded) == 2

    def test_masks_repair_then_duplicate_append(self, tmp_path):
        path = tmp_path / "masks.jsonl"
        MasksRepository(path).add_all([fault_set(0)])
        with open(path, "a") as fh:
            fh.write('{"set_id": 1, "mas')
        with pytest.warns(RuntimeWarning, match="torn"):
            repo = MasksRepository(path)
        assert len(repo) == 1
        repo.add_all([fault_set(0), fault_set(1)])
        assert sorted(fs.set_id for fs in MasksRepository(path)) == [0, 1]

    def test_reopen_while_tailer_holds_the_file(self, tmp_path):
        # An `obs`-style tailer holds a read handle while the writer
        # reattaches, repairs the tail, and appends: the reopen must
        # not be blocked by the reader, and the reader sees a
        # well-formed stream of complete lines afterwards.
        path = tmp_path / "logs.jsonl"
        good = self.make_torn_logs(path)
        with open(path) as tailer:
            consumed = tailer.read(len(good))   # complete lines only
            with pytest.warns(RuntimeWarning, match="torn"):
                repo = LogsRepository(path)
            repo.add(record(1))
            fresh = tailer.read()
            assert consumed == good
            assert fresh.endswith("\n")
            assert json.loads(fresh)["data"]["set_id"] == 1
        assert LogsRepository(path).set_ids == {0, 1}

    def test_corruption_before_complete_lines_raises(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        repo = LogsRepository(path)
        repo.set_golden(GOLDEN)
        repo.add(record(0))
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:12]
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match="corrupt"):
            LogsRepository(path)


class TestAppendFailure:
    """ENOSPC (and friends) surface as actionable CampaignError."""

    def test_logs_append_oserror(self, tmp_path, monkeypatch):
        path = tmp_path / "logs.jsonl"
        repo = LogsRepository(path, fsync=True)
        repo.set_golden(GOLDEN)

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(CampaignError) as err:
            repo.add(record(0))
        message = str(err.value)
        assert str(path) in message
        assert "fsck --repair" in message

    def test_fsync_set_after_attach_applies(self, tmp_path, monkeypatch):
        # The sched worker turns fsync on after the campaign has built
        # its repositories: the next append must still be fsync'd.
        repo = LogsRepository(tmp_path / "logs.jsonl")
        repo.fsync = True
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        repo.add(record(0))
        assert synced

    def test_masks_append_oserror(self, tmp_path, monkeypatch):
        path = tmp_path / "masks.jsonl"
        repo = MasksRepository(path, fsync=True)

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(CampaignError, match="masks.jsonl"):
            repo.add_all([fault_set(0)])

    def test_unwritable_parent_oserror(self, tmp_path):
        # The parent path is a *file*: mkdir fails with an OSError the
        # repository must turn into the same actionable error.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        repo = LogsRepository(blocker / "logs.jsonl")
        with pytest.raises(CampaignError, match="not-a-dir"):
            repo.add(record(0))
