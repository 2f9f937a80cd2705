"""Unit tests for the repro.obs building blocks: sinks and metrics."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (METRIC_NAMES, Counter, Gauge, Histogram,
                               MetricsRegistry, fold_event)
from repro.obs.trace import (EVENT_NAMES, JSONLSink, NULL_TRACER,
                             MetricsSink, NullSink, RingBufferSink, TeeSink,
                             TraceEvent, Tracer, load_events)


class TestTracerAndSinks:
    def test_null_tracer_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("inject_start", set_id=1)  # must not raise

    def test_ring_buffer_records_in_order(self):
        sink = RingBufferSink(capacity=8)
        tracer = Tracer(sink)
        assert tracer.enabled
        tracer.emit("golden_start", label="GeFIN-x86")
        tracer.emit("golden_end", cycles=100, wall_s=0.5)
        assert sink.names() == ["golden_start", "golden_end"]
        assert sink.events[1].fields["cycles"] == 100
        assert sink.events[0].ts <= sink.events[1].ts

    def test_ring_buffer_caps_capacity(self):
        sink = RingBufferSink(capacity=3)
        tracer = Tracer(sink)
        for i in range(10):
            tracer.emit("inject_end", set_id=i)
        assert len(sink) == 3
        assert [e.fields["set_id"] for e in sink.events] == [7, 8, 9]

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tracer = Tracer(JSONLSink(path))
        tracer.emit("campaign_start", setup="MaFIN-x86", masks=4)
        tracer.emit("campaign_end", injections=4)
        tracer.close()
        events = load_events(path)
        assert [e.name for e in events] == ["campaign_start",
                                            "campaign_end"]
        assert events[0].fields == {"setup": "MaFIN-x86", "masks": 4}

    def test_jsonl_sink_drops_writes_after_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tracer = Tracer(JSONLSink(path))
        tracer.emit("classify", wall_s=0.1)
        tracer.close()
        tracer.emit("classify", wall_s=0.2)  # late emit: dropped, no error
        assert len(load_events(path)) == 1

    def test_tee_sink_fans_out(self, tmp_path):
        ring = RingBufferSink()
        path = tmp_path / "events.jsonl"
        tracer = Tracer(TeeSink(ring, JSONLSink(path)))
        tracer.emit("early_stop", reason="overwritten")
        tracer.close()
        assert ring.names() == ["early_stop"]
        assert load_events(path)[0].fields["reason"] == "overwritten"

    def test_event_dict_round_trip(self):
        ev = TraceEvent("inject_end", ts=12.5,
                        fields={"set_id": 3, "reason": "exit"})
        assert TraceEvent.from_dict(ev.to_dict()) == ev

    def test_null_sink_interface(self):
        sink = NullSink()
        sink.write(TraceEvent("x", 0.0))
        sink.close()


class TestMetricsPrimitives:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge()
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram_observe_and_mean(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3 and h.total == 6.0
        assert h.min == 1.0 and h.max == 3.0 and h.mean == 2.0

    def test_histogram_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(5.0)
        b.observe(0.5)
        a.merge(b)
        assert a.count == 3 and a.min == 0.5 and a.max == 5.0
        empty = Histogram()
        empty.merge(a)
        assert empty.to_dict() == a.to_dict()

    def test_histogram_percentiles_bounded_by_buckets(self):
        # The log-bucketed estimate lands within the true value's
        # bucket: one bucket is a 10^(1/8) ≈ 1.33x ratio, so every
        # estimate is within 33% of the exact order statistic.
        h = Histogram()
        for v in range(1, 1001):
            h.observe(float(v))
        for q, exact in ((50, 500), (90, 900), (99, 990)):
            est = h.percentile(q)
            assert exact / 1.34 <= est <= exact * 1.34, (q, est)

    def test_histogram_percentile_edges(self):
        h = Histogram()
        assert h.percentile(50) == 0.0           # no data
        h.observe(2.0)
        # A single observation: every percentile is that value,
        # exactly (estimates clamp to the observed min/max).
        assert h.percentile(0) == 2.0
        assert h.percentile(50) == 2.0
        assert h.percentile(100) == 2.0
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_histogram_percentile_counts_zeros(self):
        h = Histogram()
        for _ in range(9):
            h.observe(0.0)
        h.observe(10.0)
        assert h.percentile(50) == 0.0
        assert h.percentile(99) == 10.0

    def test_histogram_summary_fields(self):
        h = Histogram()
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["mean"] == pytest.approx(7.0 / 3)
        assert 1.0 <= s["p50"] <= 4.0
        assert s["p50"] <= s["p90"] <= s["p99"] <= 4.0

    def test_histogram_percentiles_survive_merge_and_round_trip(self):
        # Percentile state (buckets) must merge associatively and
        # survive to_dict/from_dict — workers ship histograms home.
        shards = [Histogram() for _ in range(4)]
        for i in range(1, 401):
            shards[i % 4].observe(float(i))
        merged = Histogram()
        for s in shards:
            merged.merge(Histogram.from_dict(
                json.loads(json.dumps(s.to_dict()))))
        whole = Histogram()
        for i in range(1, 401):
            whole.observe(float(i))
        assert merged.to_dict() == whole.to_dict()
        assert merged.percentile(90) == whole.percentile(90)


class TestMetricsRegistry:
    def test_get_or_create_and_families(self):
        reg = MetricsRegistry()
        reg.counter("outcomes.exit").inc(3)
        reg.counter("outcomes.panic").inc()
        reg.counter("injections_total").inc(4)
        assert reg.family("outcomes.") == {"exit": 3, "panic": 1}
        assert reg.counter_value("injections_total") == 4
        assert reg.counter_value("missing") == 0

    def test_serialisation_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("injections_total").inc(7)
        reg.gauge("golden.cycles").set(1234)
        reg.histogram("time.inject_s").observe(0.25)
        clone = MetricsRegistry.from_dict(
            json.loads(json.dumps(reg.to_dict())))
        assert clone.to_dict() == reg.to_dict()

    def test_merge_is_additive_for_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("injections_total").inc(2)
        b.counter("injections_total").inc(3)
        a.histogram("time.inject_s").observe(1.0)
        b.histogram("time.inject_s").observe(2.0)
        b.gauge("golden.cycles").set(99)
        a.merge(b)
        assert a.counter_value("injections_total") == 5
        assert a.histogram("time.inject_s").count == 2
        assert a.gauge("golden.cycles").value == 99

    def test_merge_order_independence(self):
        def build(values):
            reg = MetricsRegistry()
            for v in values:
                reg.counter("cycles.simulated").inc(v)
                reg.histogram("time.inject_s").observe(v / 10)
            return reg

        ab = build([1, 2]).merge(build([3]))
        ba = build([3]).merge(build([1, 2]))
        assert ab.to_dict() == ba.to_dict()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


class TestFold:
    def test_inject_end_folds_like_a_measurement(self):
        reg = MetricsRegistry()
        fold_event(reg, "inject_end", {
            "reason": "exit", "early_stop": "overwritten", "invariant": None,
            "sim_cycles": 40, "saved_cycles": 60, "wall_s": 0.5,
            "restore_s": 0.1, "integrity_checks": 2})
        fold_event(reg, "pruned", {"structure": "l1d"})
        fold_event(reg, "golden_end", {"checkpoint_bytes": 10})
        fold_event(reg, "golden_end", {"checkpoint_bytes": 5})
        fold_event(reg, "campaign_start", {"masks": 9})     # not folded
        assert reg.to_dict()["counters"] == {
            "checkpoint.bytes": 15, "checkpoint.restores": 1,
            "cycles.saved": 60, "cycles.simulated": 40,
            "early_stops.overwritten": 1, "guard.integrity_checks": 2,
            "injections_total": 2, "outcomes.exit": 2, "prune.masked": 1,
            "prune.structure.l1d": 1}
        assert reg.histogram("time.golden_s").count == 2

    def test_golden_adopted_folds_into_adopt_time(self):
        reg = MetricsRegistry()
        fold_event(reg, "golden_adopted",
                   {"wall_s": 0.25, "bytes": 1000, "trace_bytes": 400})
        hist = reg.histogram("time.golden_adopt_s")
        assert (hist.count, hist.total) == (1, 0.25)
        assert reg.histogram("time.golden_s").count == 0

    def test_golden_packed_folds_into_pack_time(self):
        reg = MetricsRegistry()
        fold_event(reg, "golden_packed", {"wall_s": 0.125, "bytes": 1000})
        hist = reg.histogram("time.golden_pack_s")
        assert (hist.count, hist.total) == (1, 0.125)
        assert reg.histogram("time.golden_adopt_s").count == 0
        assert reg.histogram("time.golden_s").count == 0

    def test_metrics_sink_folds_what_it_is_written(self):
        reg = MetricsRegistry()
        tracer = Tracer(TeeSink(NullSink(), MetricsSink(reg)))
        assert tracer.enabled
        tracer.emit("maskgen_end", masks=7, wall_s=0.25)
        assert reg.counter_value("masks_generated") == 7
        assert reg.histogram("time.maskgen_s").total == 0.25

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["golden_end", "golden_packed",
                                 "maskgen_end", "inject_end",
                                 "pruned", "classify",
                                 "guard.contamination", "unit_done"]),
           fields=st.dictionaries(
               st.sampled_from(["wall_s", "snapshot_s", "cycles",
                                "checkpoints", "checkpoint_bytes", "masks",
                                "reason", "early_stop", "sim_cycles",
                                "saved_cycles", "restore_s",
                                "integrity_checks", "invariant",
                                "structure"]), _JSON))
    def test_fold_never_raises_on_a_named_row(self, name, fields):
        # A study checks only that a unit's events are objects with a
        # string name before it journals the unit done: the fold must
        # then take any such row without raising.
        reg = MetricsRegistry()
        fold_event(reg, name, fields)
        json.dumps(reg.to_dict())


class TestVocabulary:
    """EVENT_NAMES and METRIC_NAMES list everything the stack emits."""

    def test_every_emitted_name_is_documented(self, tmp_path):
        from repro.core.campaign import run_campaign
        from repro.obs.summarize import load_events as load_rows
        from repro.sched import CampaignPlan, Scheduler, StudySpec
        from repro.svc import CampaignService

        def study_spec(**over):
            return StudySpec(**{**dict(
                setups=("MaFIN-x86",), benchmarks=("sha",),
                structures=("int_rf",), injections=2, seed=7), **over})

        sink = RingBufferSink()
        campaign_metrics = MetricsRegistry()
        result = run_campaign("GeFIN-ARM", "sha", "l1d", injections=8,
                              seed=5, prune="analyze", audit=2,
                              guard="basic", tracer=Tracer(sink),
                              metrics=campaign_metrics)
        result.classify()
        names = set(sink.names())
        sched = Scheduler(CampaignPlan.from_spec(study_spec(
            prune="analyze")), tmp_path / "study", workers=1, fsync=False)
        assert sched.run().ok
        names |= {row["name"]
                  for row in load_rows(tmp_path / "study/events.jsonl")}
        with CampaignService(tmp_path / "svc", workers=1,
                             fsync=False) as svc:
            sid = svc.submit(study_spec(), tenant="alice")
            svc.run_until_idle(timeout_s=120)
        for path in (tmp_path / "svc/service-events.jsonl",
                     tmp_path / f"svc/studies/{sid}/events.jsonl"):
            names |= {row["name"] for row in load_rows(path)}
        assert {"pruned", "prune_plan", "trace_recorded",
                "study_submitted"} <= names
        assert names - set(EVENT_NAMES) == set()

        families = tuple(n for n in METRIC_NAMES if n.endswith("."))
        metric_names = {*campaign_metrics.names(), *sched.metrics.names(),
                        *svc.metrics.names()}
        assert "checkpoint.bytes" in metric_names
        assert {n for n in metric_names if n not in METRIC_NAMES
                and not n.startswith(families)} == set()
