"""Write-ahead journal: append, replay, crash tolerance."""

import json
import re

import pytest

from repro.sched import (DONE, FAILED, LEASED, PENDING, QUARANTINED,
                         Journal, load_journal)

SPEC = {"setups": ["MaFIN-x86"], "benchmarks": ["sha"],
        "structures": ["l1d"], "fault_types": ["transient"],
        "injections": 4, "seed": 1}
UNITS = ["MaFIN-x86/sha/l1d/transient"]


def write_study(path, transitions):
    with Journal(path) as j:
        j.write_header(SPEC, UNITS)
        for unit, state, fields in transitions:
            j.record(unit, state, **fields)


class TestJournalReplay:
    def test_header_and_transitions(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        uid = UNITS[0]
        write_study(path, [
            (uid, LEASED, {"attempt": 1}),
            (uid, FAILED, {"attempt": 1, "reason": "error"}),
            (uid, LEASED, {"attempt": 2}),
            (uid, DONE, {"attempt": 2, "counts": {"Masked": 4},
                         "injections": 4}),
        ])
        state = load_journal(path)
        assert state.spec_dict == SPEC
        assert state.unit_ids == UNITS
        assert state.state_of(uid) == DONE
        assert state.is_done(uid)
        assert state.attempts[uid] == 2
        assert state.results[uid]["counts"] == {"Masked": 4}
        assert state.counts_by_unit() == {uid: {"Masked": 4}}
        assert state.tally()[DONE] == 1

    def test_unjournaled_unit_is_pending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_study(path, [])
        state = load_journal(path)
        assert state.state_of(UNITS[0]) == PENDING
        assert state.tally() == {PENDING: 1, LEASED: 0, DONE: 0,
                                 FAILED: 0, QUARANTINED: 0}

    def test_stale_lease_counts_as_attempt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        uid = UNITS[0]
        write_study(path, [(uid, LEASED, {"attempt": 1})])
        state = load_journal(path)
        assert state.state_of(uid) == LEASED
        assert state.attempts[uid] == 1

    def test_spec_hash_matches_studyspec(self, tmp_path):
        from repro.sched import StudySpec
        path = tmp_path / "journal.jsonl"
        spec = StudySpec.from_dict(SPEC)
        with Journal(path) as j:
            j.write_header(spec.to_dict(), UNITS, shard=(1, 2))
        state = load_journal(path)
        assert state.spec_hash == spec.spec_hash
        assert state.shard == (1, 2)


class TestCrashTolerance:
    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        uid = UNITS[0]
        write_study(path, [(uid, LEASED, {"attempt": 1}),
                           (uid, DONE, {"counts": {"Masked": 4}})])
        with open(path, "a") as fh:
            fh.write('{"kind": "unit", "unit": "x", "sta')   # the crash
        state = load_journal(path)
        assert state.state_of(uid) == DONE

    def test_mid_file_corruption_raises(self, tmp_path):
        # A bad line with complete lines after it is damage, not a torn
        # tail: replay must refuse rather than stop short silently.
        path = tmp_path / "journal.jsonl"
        uid = UNITS[0]
        write_study(path, [(uid, LEASED, {"attempt": 1}),
                           (uid, DONE, {"counts": {"Masked": 4}})])
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:20] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:2: corrupt")):
            load_journal(path)

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        uid = UNITS[0]
        write_study(path, [(uid, LEASED, {"attempt": 1})])
        good = path.read_text()
        with open(path, "a") as fh:
            fh.write('{"kind": "unit", "unit": "x", "sta')   # the crash
        with Journal(path) as j:           # a resumed scheduler
            assert path.read_text() == good
            j.record(uid, DONE, counts={"Masked": 4})
        assert load_journal(path).state_of(uid) == DONE

    def test_no_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"kind": "unit", "unit": "u",
                                    "state": LEASED}) + "\n")
        with pytest.raises(ValueError, match="no header"):
            load_journal(path)

    def test_append_is_immediately_durable(self, tmp_path):
        # Write-ahead contract: the record is on disk (visible to a
        # second reader) before Journal.record returns, file still open.
        path = tmp_path / "journal.jsonl"
        j = Journal(path, fsync=True)
        j.write_header(SPEC, UNITS)
        j.record(UNITS[0], LEASED, attempt=1)
        state = load_journal(path)         # journal NOT closed yet
        assert state.state_of(UNITS[0]) == LEASED
        j.close()

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        uid = UNITS[0]
        write_study(path, [(uid, LEASED, {"attempt": 1})])
        with Journal(path) as j:           # a resumed scheduler
            j.record(uid, DONE, counts={"Masked": 4})
        state = load_journal(path)
        assert state.state_of(uid) == DONE
        assert state.attempts[uid] == 1
