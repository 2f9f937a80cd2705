"""Campaign-level telemetry: event order, metric parity, determinism."""

import json

import pytest

from repro.core.campaign import run_campaign
from repro.core.parallel import run_campaign_parallel
from repro.core.repository import LogsRepository
from repro.obs import (CampaignTelemetry, MetricsRegistry, RingBufferSink,
                       Tracer)
from repro.obs.summarize import (load_events, render_report,
                                 summarize_events)
from repro.sched import CampaignPlan, Scheduler, StudySpec

CELL = dict(setup="GeFIN-x86", benchmark="sha", structure="l1d")
N = 6
SEED = 21


@pytest.fixture(scope="module")
def instrumented():
    """One serial campaign observed by a ring buffer + registry."""
    sink = RingBufferSink()
    metrics = MetricsRegistry()
    result = run_campaign(**CELL, injections=N, seed=SEED,
                          tracer=Tracer(sink), metrics=metrics)
    return result, sink, metrics


@pytest.fixture(scope="module")
def baseline():
    """The same campaign with the default null sink."""
    return run_campaign(**CELL, injections=N, seed=SEED)


class TestEventStream:
    def test_documented_event_order(self, instrumented):
        _, sink, _ = instrumented
        names = sink.names()
        # Phases appear in order: golden, maskgen, campaign, injections.
        for a, b in [("golden_start", "golden_end"),
                     ("golden_end", "maskgen_start"),
                     ("maskgen_start", "maskgen_end"),
                     ("maskgen_end", "campaign_start"),
                     ("campaign_start", "inject_start"),
                     ("inject_start", "inject_end"),
                     ("inject_end", "campaign_end")]:
            assert names.index(a) < names.index(b), (a, b, names)
        # Checkpoints are taken during the golden run only.
        golden_span = names[:names.index("golden_end")]
        assert "checkpoint_taken" in golden_span
        # Every injection is bracketed by start/end, in mask order.
        assert names.count("inject_start") == N
        assert names.count("inject_end") == N
        starts = [e.fields["set_id"] for e in sink.events
                  if e.name == "inject_start"]
        assert starts == list(range(N))

    def test_inject_events_carry_profile_fields(self, instrumented):
        _, sink, _ = instrumented
        ends = [e for e in sink.events if e.name == "inject_end"]
        for ev in ends:
            assert ev.fields["reason"]
            assert ev.fields["sim_cycles"] >= 0
            assert ev.fields["saved_cycles"] >= 0
            assert ev.fields["wall_s"] > 0
        # Early-stop events precede their inject_end and match records.
        stops = [e for e in sink.events if e.name == "early_stop"]
        result = instrumented[0]
        assert len(stops) == result.early_stops

    def test_classify_emits_event(self, instrumented):
        result, sink, _ = instrumented
        counts = result.classify()
        ev = [e for e in sink.events if e.name == "classify"][-1]
        assert ev.fields["Masked"] == counts["Masked"]
        assert ev.fields["wall_s"] >= 0


class TestZeroImpact:
    def test_null_sink_classification_identical(self, instrumented,
                                                baseline):
        result, _, _ = instrumented
        assert result.classify() == baseline.classify()

    def test_records_byte_identical(self, instrumented, baseline):
        result, _, _ = instrumented
        a = json.dumps([r.to_dict() for r in result.records])
        b = json.dumps([r.to_dict() for r in baseline.records])
        assert a == b

    def test_baseline_still_carries_telemetry(self, baseline):
        # The null sink disables tracing, not the metrics summary.
        t = baseline.telemetry
        assert t is not None and t.injections == N
        assert t.golden_s > 0 and t.inject_s > 0


class TestTelemetrySummary:
    def test_summary_fields(self, instrumented):
        result, _, _ = instrumented
        t = result.telemetry
        assert t.injections == N
        assert t.injections_per_sec > 0
        assert 0.0 <= t.checkpoint_speedup <= 1.0
        assert t.checkpoint_restores + t.cold_starts == N
        assert sum(t.outcomes.values()) == N
        assert t.early_stop_rate == result.early_stops / N
        assert t.golden_cycles == result.golden.cycles
        text = t.summary()
        assert "injections/sec" in text and "checkpoint speedup" in text

    def test_round_trip_and_merge(self, instrumented):
        result, _, metrics = instrumented
        t = result.telemetry
        clone = CampaignTelemetry.from_dict(
            json.loads(json.dumps(t.to_dict())))
        assert clone.to_dict() == t.to_dict()
        # Totals over cells merge the cells' metrics, as a study does.
        merged = CampaignTelemetry.from_metrics(
            MetricsRegistry().merge(metrics).merge(metrics))
        assert merged.injections == 2 * N
        assert merged.cycles_saved == 2 * t.cycles_saved
        assert merged.outcomes["exit"] == 2 * t.outcomes["exit"]


class TestParallelParity:
    def test_worker_metrics_merge_equals_serial(self, instrumented):
        _, _, serial_metrics = instrumented
        par_metrics = MetricsRegistry()
        par = run_campaign_parallel(**CELL, injections=N, seed=SEED,
                                    workers=2, metrics=par_metrics)
        assert par.injections == N
        s, p = serial_metrics.to_dict(), par_metrics.to_dict()
        # Deterministic metrics are exactly equal; wall times are not.
        assert s["counters"] == p["counters"]
        assert s["gauges"] == p["gauges"]
        assert par.telemetry.cycles_saved == \
            instrumented[0].telemetry.cycles_saved

    def test_parallel_fault_type_threaded(self):
        par = run_campaign_parallel(**CELL, injections=3, seed=5,
                                    workers=2, fault_type="permanent")
        for record in par.records:
            assert all(m["fault_type"] == "permanent"
                       for m in record.masks)

    def test_parallel_progress_callback(self):
        calls = []
        run_campaign_parallel(**CELL, injections=4, seed=7, workers=2,
                              progress=lambda i, n, rec:
                              calls.append((i, n, rec.set_id)))
        assert [c[:2] for c in calls] == [(1, 4), (2, 4), (3, 4), (4, 4)]
        assert [c[2] for c in calls] == [0, 1, 2, 3]  # mask order

    def test_parallel_logs_path(self, tmp_path):
        path = tmp_path / "logs.jsonl"
        par = run_campaign_parallel(**CELL, injections=4, seed=9,
                                    workers=2, logs_path=path)
        logs = LogsRepository(path)
        assert logs.golden is not None
        assert logs.golden.cycles == par.golden.cycles
        assert len(logs) == 4
        assert [r.set_id for r in logs.records] == [0, 1, 2, 3]


class TestSummarize:
    def test_events_file_summary_matches_telemetry(self, tmp_path):
        path = tmp_path / "events.jsonl"
        result = run_campaign(**CELL, injections=N, seed=SEED,
                              events_path=path)
        summary = summarize_events(load_events(path))
        t = result.telemetry
        assert summary["injections"] == N
        assert summary["outcomes"] == t.outcomes
        assert summary["early_stops"] == t.early_stops
        assert summary["early_stop_rate"] == pytest.approx(
            t.early_stop_rate)
        cp = summary["checkpoint"]
        assert cp["cycles_saved"] == t.cycles_saved
        assert cp["cycles_simulated"] == t.cycles_simulated
        assert cp["speedup_fraction"] == pytest.approx(
            t.checkpoint_speedup)
        assert summary["phases"]["golden_s"] == pytest.approx(t.golden_s)
        assert summary["campaigns"][0]["benchmark"] == "sha"

    @staticmethod
    def _counts(summary, t):
        """The figures a summary and a telemetry both report, side by
        side: ``(from the summary, from the telemetry)``."""
        cp = summary["checkpoint"]
        return ({"injections": summary["injections"],
                 "outcomes": summary["outcomes"],
                 "early_stops": summary["early_stops"],
                 "cycles_simulated": cp["cycles_simulated"],
                 "cycles_saved": cp["cycles_saved"],
                 "restores": cp["restores"],
                 "cold_starts": cp["cold_starts"],
                 "checkpoint_bytes": cp["bytes"],
                 "pruned": summary["prune"]["masked"]},
                {"injections": t.injections,
                 "outcomes": t.outcomes,
                 "early_stops": t.early_stops,
                 "cycles_simulated": t.cycles_simulated,
                 "cycles_saved": t.cycles_saved,
                 "restores": t.checkpoint_restores,
                 "cold_starts": t.cold_starts,
                 "checkpoint_bytes": t.checkpoint_bytes,
                 "pruned": t.prunes.get("masked", 0)})

    @pytest.mark.parametrize("audit", [0, 4])
    def test_pruned_campaign_summary_equals_telemetry(self, tmp_path,
                                                      audit):
        # Pruned masks count as classified injections; the audit's
        # re-simulations of pruned masks count as none.
        path = tmp_path / "events.jsonl"
        result = run_campaign("GeFIN-ARM", "sha", "l1d", injections=12,
                              seed=5, prune="analyze", audit=audit,
                              events_path=path)
        assert result.prune["masked"] > 0
        summary = summarize_events(load_events(path))
        if audit:
            assert summary["prune"]["audit_checked"] == audit
        ours, theirs = self._counts(summary, result.telemetry)
        assert ours == theirs
        assert ours["injections"] == 12

    def test_study_summary_equals_study_metrics(self, tmp_path):
        spec = StudySpec(setups=("MaFIN-x86",), benchmarks=("sha", "qsort"),
                         structures=("l1d",), injections=6, seed=3,
                         prune="analyze")
        study_dir = tmp_path / "study"
        sched = Scheduler(CampaignPlan.from_spec(spec), study_dir,
                          workers=2, fsync=False)
        assert sched.run().ok
        summary = summarize_events(load_events(study_dir / "events.jsonl"))
        ours, theirs = self._counts(
            summary, CampaignTelemetry.from_metrics(sched.metrics))
        assert ours == theirs
        assert ours["injections"] == 12
        # Checkpoint bytes sum over the study's golden runs.
        assert ours["checkpoint_bytes"] > 0
        assert summary["golden"]["runs"] == 2

    def test_render_report_contents(self, tmp_path):
        path = tmp_path / "events.jsonl"
        run_campaign(**CELL, injections=4, seed=3, events_path=path)
        report = render_report(summarize_events(load_events(path)))
        for needle in ("campaign telemetry report", "phase timing",
                       "golden", "inject", "injections",
                       "checkpointing", "early stops",
                       "golden     1 run(s) for 1 (setup, benchmark) "
                       "pair(s)"):
            assert needle in report

        # A study's stream: three units over two pairs, and one unit
        # leased before its pair's blob arrived ran a duplicate golden.
        def unit(setup, structure):
            return [{"name": "golden_end", "ts": 1.0, "cycles": 100,
                     "wall_s": 0.5, "checkpoints": 2},
                    {"name": "campaign_start", "ts": 1.1, "setup": setup,
                     "benchmark": "sha", "structure": structure,
                     "masks": 4}]
        events = (unit("MaFIN-x86", "l1d") + unit("GeFIN-ARM", "l1d")
                  + unit("MaFIN-x86", "l2"))
        summary = summarize_events(events)
        assert summary["golden"]["runs"] == 3
        assert summary["golden"]["pairs"] == 2
        assert "golden     3 run(s) for 2 (setup, benchmark) pair(s)" \
            in render_report(summary)

    def test_report_shows_adopted_blobs(self):
        # One unit ran its pair's golden; two adopted the shipped blob.
        events = [{"name": "golden_end", "ts": 1.0, "cycles": 100,
                   "wall_s": 0.5, "checkpoints": 2}]
        events += [{"name": "golden_adopted", "ts": 2.0, "wall_s": 0.125,
                    "bytes": 1000, "trace_bytes": 400}] * 2
        summary = summarize_events(events)
        assert (summary["golden"]["runs"], summary["golden"]["adopted"],
                summary["golden"]["adopt_s"]) == (1, 2, 0.25)
        report = render_report(summary)
        assert "2 shipped blob(s) adopted in 0.250s" in report
        assert "adopted" not in render_report(summarize_events(events[:1]))

    def test_report_shows_packed_blobs(self):
        # Two units ran their pair's golden and packed it to ship.
        events = [{"name": "golden_end", "ts": 1.0, "cycles": 100,
                   "wall_s": 0.5, "checkpoints": 2},
                  {"name": "golden_packed", "ts": 1.5, "wall_s": 0.0625,
                   "bytes": 1000}] * 2
        summary = summarize_events(events)
        assert (summary["golden"]["runs"], summary["golden"]["packed"],
                summary["golden"]["pack_s"]) == (2, 2, 0.125)
        report = render_report(summary)
        assert ("golden     2 run(s) for 0 (setup, benchmark) pair(s), "
                "100 cycles, 2 checkpoints, 2 blob(s) packed in 0.125s"
                ) in report
        assert "packed" not in render_report(summarize_events(events[:1]))

    def test_load_events_rejects_mid_file_garbage(self, tmp_path):
        # Corruption with complete lines after it is real corruption...
        bad = tmp_path / "bad.jsonl"
        bad.write_text('not json\n{"name": "classify", "ts": 2.0}\n')
        with pytest.raises(ValueError):
            load_events(bad)
        unnamed = tmp_path / "unnamed.jsonl"
        unnamed.write_text('{"ts": 1.0}\n{"name": "classify", "ts": 2.0}\n')
        with pytest.raises(ValueError):
            load_events(unnamed)

    def test_load_events_drops_torn_trailing_line(self, tmp_path):
        # ...but a bad *final* line is the write a killed campaign
        # never finished: dropped with a warning, not an error.
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"name": "campaign_start", "ts": 1.0}\n'
                        '{"name": "campaign_end", "ts": 2.0, "wal')
        with pytest.warns(RuntimeWarning, match="torn trailing line"):
            events = load_events(torn)
        assert [e["name"] for e in events] == ["campaign_start"]
