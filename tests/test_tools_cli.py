"""Tests for the command-line drivers (`python -m repro.tools`)."""

import json
import os

import pytest

from repro import tools


class TestFiguresCommand:
    def test_small_figure_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INJECTIONS", "3")
        rc = tools.main(["figures", "--structures", "int_rf",
                         "--benchmarks", "sha",
                         "--injections", "3",
                         "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "fig2_int_rf.txt").read_text()
        assert "int_rf" in text and "AVG" in text
        rows = json.loads((tmp_path / "fig2_int_rf.json").read_text())
        assert any(r["benchmark"] == "AVG" for r in rows)
        out = capsys.readouterr().out
        assert "sha" in out

    def test_nonfigure_structure_name(self, tmp_path):
        rc = tools.main(["figures", "--structures", "ras",
                         "--benchmarks", "sha", "--injections", "2",
                         "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "ras_ras.txt").exists()


class TestCampaignCommand:
    def test_serial_campaign_with_events_and_logs(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        logs = tmp_path / "logs.jsonl"
        rc = tools.main(["campaign", "GeFIN-x86", "sha", "l1d",
                         "--injections", "4", "--seed", "3",
                         "--events", str(events), "--logs", str(logs)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign telemetry" in out
        assert "vulnerability" in out
        assert events.exists() and logs.exists()
        names = [json.loads(line)["name"]
                 for line in events.read_text().splitlines()]
        assert "golden_end" in names and names.count("inject_end") == 4
        assert "classify" in names  # classified before the sink closed

    def test_parallel_campaign(self, capsys):
        rc = tools.main(["campaign", "GeFIN-x86", "sha", "int_rf",
                         "--injections", "4", "--workers", "2"])
        assert rc == 0
        assert "injections/sec" in capsys.readouterr().out


class TestObsSummarizeCommand:
    def test_summarize_report(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        tools.main(["campaign", "GeFIN-x86", "sha", "l1d",
                    "--injections", "3", "--events", str(events)])
        capsys.readouterr()
        rc = tools.main(["obs", "summarize", str(events)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign telemetry report" in out
        assert "phase timing" in out
        assert "GeFIN-x86 / sha / l1d" in out

    def test_summarize_json(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        tools.main(["campaign", "GeFIN-x86", "sha", "l1d",
                    "--injections", "3", "--events", str(events)])
        capsys.readouterr()
        rc = tools.main(["obs", "summarize", str(events), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["injections"] == 3
        assert "checkpoint" in summary

    def test_summarize_tolerates_torn_trailing_line(self, tmp_path,
                                                    capsys):
        events = tmp_path / "events.jsonl"
        tools.main(["campaign", "GeFIN-x86", "sha", "l1d",
                    "--injections", "3", "--events", str(events)])
        capsys.readouterr()
        # Simulate a kill mid-append: chop the last line in half.
        text = events.read_text()
        events.write_text(text[:len(text) - 20])
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            rc = tools.main(["obs", "summarize", str(events)])
        assert rc == 0
        assert "campaign telemetry report" in capsys.readouterr().out

    def test_summarize_rejects_mid_file_corruption(self, tmp_path,
                                                   capsys):
        events = tmp_path / "events.jsonl"
        lines = ['{"name": "campaign_start", "ts": 1.0}',
                 "definitely not json",
                 '{"name": "campaign_end", "ts": 2.0}']
        events.write_text("\n".join(lines) + "\n")
        rc = tools.main(["obs", "summarize", str(events)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_summarize_follow_drains_completed_study_stream(
            self, tmp_path, capsys):
        # A stream ending in study_end: --follow renders what is
        # there and exits instead of tailing forever.
        events = tmp_path / "events.jsonl"
        rows = [{"name": "study_start", "ts": 1.0, "units": 1},
                {"name": "unit_leased", "ts": 1.1, "unit": "u",
                 "attempt": 1},
                {"name": "unit_done", "ts": 1.9, "unit": "u",
                 "injections": 2, "wall_s": 0.8},
                {"name": "study_end", "ts": 2.0, "done": 1,
                 "quarantined": 0, "wall_s": 1.0}]
        events.write_text("".join(json.dumps(r) + "\n" for r in rows))
        rc = tools.main(["obs", "summarize", str(events), "--follow",
                         "--interval", "0.05", "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        summary = json.loads(out[:out.index("\n{") + 1]
                             if "\n{" in out else out)
        assert summary["sched"]["done"] == 1

    def test_requires_obs_subcommand(self):
        with pytest.raises(SystemExit):
            tools.main(["obs"])


class TestFiguresEventsCapture:
    def test_figures_events_flag(self, tmp_path):
        rc = tools.main(["figures", "--structures", "int_rf",
                         "--benchmarks", "sha", "--injections", "2",
                         "--out", str(tmp_path), "--events"])
        assert rc == 0
        events = tmp_path / "fig2_int_rf.events.jsonl"
        assert events.exists()
        names = [json.loads(line)["name"]
                 for line in events.read_text().splitlines()]
        # Three setups' campaigns share the figure's event stream.
        assert names.count("campaign_end") == 3


class TestStatsCommand:
    def test_stats_output(self, tmp_path, capsys):
        out_file = tmp_path / "stats.json"
        rc = tools.main(["stats", "--benchmarks", "sha",
                         "--out", str(out_file)])
        assert rc == 0
        rows = json.loads(out_file.read_text())
        assert "sha/MaFIN-x86" in rows
        assert rows["sha/MaFIN-x86"]["committed_instrs"] > 0

    def test_stats_json_flag(self, capsys):
        rc = tools.main(["stats", "--benchmarks", "sha", "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert "sha/GeFIN-x86" in rows

    def test_stats_json_carries_distributions(self, capsys):
        rc = tools.main(["stats", "--benchmarks", "sha", "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        dists = rows["_distributions"]
        cells = [v for k, v in rows.items() if k != "_distributions"]
        cyc = dists["cycles"]
        assert cyc["count"] == len(cells)
        assert cyc["min"] == min(c["cycles"] for c in cells)
        assert cyc["max"] == max(c["cycles"] for c in cells)
        assert cyc["min"] <= cyc["p50"] <= cyc["p99"] <= cyc["max"]

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            tools.main([])


class TestCampaignTimeoutFlag:
    def test_zero_budget_classifies_everything_timeout(self, capsys):
        rc = tools.main(["campaign", "GeFIN-x86", "sha", "int_rf",
                         "--injections", "3", "--timeout-s", "0.0",
                         "--no-early-stop"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Timeout=3" in out

    def test_generous_budget_changes_nothing(self, capsys):
        tools.main(["campaign", "GeFIN-x86", "sha", "int_rf",
                    "--injections", "3", "--seed", "5"])
        plain = capsys.readouterr().out.splitlines()[1]
        tools.main(["campaign", "GeFIN-x86", "sha", "int_rf",
                    "--injections", "3", "--seed", "5",
                    "--timeout-s", "600"])
        budgeted = capsys.readouterr().out.splitlines()[1]
        assert budgeted == plain


class TestSchedCommands:
    ARGS = ["--benchmarks", "sha", "--structures", "int_rf",
            "--injections", "3", "--seed", "7", "--workers", "2"]

    def test_run_then_status_and_json(self, tmp_path, capsys):
        study = tmp_path / "study"
        rc = tools.main(["sched", "run", "--out", str(study), *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "done" in out and "totals:" in out

        rc = tools.main(["sched", "status", str(study)])
        assert rc == 0
        assert "done=2" in capsys.readouterr().out

        rc = tools.main(["sched", "status", str(study), "--json"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["units"] == 2
        assert status["tally"]["done"] == 2

    def test_run_json_output(self, tmp_path, capsys):
        study = tmp_path / "study"
        rc = tools.main(["sched", "run", "--out", str(study), "--json",
                         *self.ARGS])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] and len(result["units"]) == 2

    def test_shard_run_and_merge(self, tmp_path, capsys):
        args = ["--benchmarks", "sha", "--structures", "int_rf", "l1i",
                "--injections", "3", "--seed", "7"]
        dirs = []
        for i in range(2):
            d = tmp_path / f"shard{i}"
            rc = tools.main(["sched", "run", "--out", str(d),
                             "--shard", f"{i}/2", *args])
            assert rc == 0
            dirs.append(str(d))
        capsys.readouterr()
        merged_file = tmp_path / "merged.json"
        rc = tools.main(["sched", "merge", *dirs,
                         "--out", str(merged_file)])
        assert rc == 0
        assert "complete" in capsys.readouterr().out
        merged = json.loads(merged_file.read_text())
        assert merged["complete"] and len(merged["units"]) == 4

    def test_status_missing_journal(self, tmp_path, capsys):
        rc = tools.main(["sched", "status", str(tmp_path / "nope")])
        assert rc == 2
        assert "no journal" in capsys.readouterr().err

    def test_resume_of_corrupt_journal_points_at_fsck(self, tmp_path,
                                                      capsys):
        from repro.sched import Journal
        study = tmp_path / "study"
        with Journal(study / "journal.jsonl", fsync=False) as journal:
            journal.write_header({"seed": 7}, ["u"])
            journal.record("u", "leased", attempt=1)
        lines = (study / "journal.jsonl").read_text().splitlines()
        (study / "journal.jsonl").write_text(
            lines[0][:30] + "\n" + lines[1] + "\n")
        rc = tools.main(["sched", "resume", str(study)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "journal.jsonl:1: corrupt" in err
        assert "repro.tools fsck" in err

    def test_bad_shard_syntax(self, tmp_path):
        with pytest.raises(SystemExit):
            tools.main(["sched", "run", "--out", str(tmp_path / "s"),
                        "--shard", "zero-of-two", *self.ARGS])
