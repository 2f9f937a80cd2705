"""repro.obs — campaign observability: tracing, metrics, profiling.

The paper's analysis (Remarks 1-11) depends on explaining outcome
differences with runtime statistics; this package makes the campaign
stack itself observable.  Three layers, composable and all
zero-cost-by-default:

* :mod:`repro.obs.trace` — typed, timestamped events
  (``golden_start`` … ``campaign_end``) to pluggable sinks: null
  (default), in-memory ring buffer, JSONL file, and the
  :class:`MetricsSink` every campaign tees its stream into.
* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  :class:`MetricsRegistry`, and :func:`fold_event`, the one place
  campaign events become metrics.  Pool workers and study units ship
  their events home and the parent folds them, so parallel campaigns
  and studies report the same numbers as serial.
* :mod:`repro.obs.profile` — the :class:`CampaignTelemetry` summary of
  a registry, attached to every ``CampaignResult``.

``repro.tools obs summarize events.jsonl`` renders a captured event
stream as a report through the same fold (see
:mod:`repro.obs.summarize`), and the live
layer watches a *running* study directory: :mod:`repro.obs.live` tails
journal/event/log streams into a rolling :class:`StudyView` with
Wilson-interval convergence tracking (:mod:`repro.obs.convergence`),
:mod:`repro.obs.server` serves it over HTTP (``obs serve``, on the
:mod:`repro.obs.http` server that ``svc serve`` also runs on), and
:mod:`repro.obs.report` renders it as a self-contained HTML report
(``obs report``).

Telemetry never alters campaign behaviour: the instrumented code paths
are bit-identical with any sink attached (tested).
"""

from repro.obs.convergence import (cell_convergence, proportion_ci,
                                   wilson_interval)
from repro.obs.live import (JSONLTailer, StudyView, UnitView,
                            load_study_view)
from repro.obs.metrics import (Counter, Gauge, Histogram, METRIC_NAMES,
                               MetricsRegistry, fold_event)
from repro.obs.profile import CampaignTelemetry
from repro.obs.report import render_html, report_study
from repro.obs.server import StatusServer, serve_study
from repro.obs.summarize import (SummaryAccumulator,
                                 load_events as load_event_dicts,
                                 render_report, summarize_events,
                                 summarize_file)
from repro.obs.trace import (EVENT_NAMES, JSONLSink, MetricsSink,
                             NULL_TRACER, NullSink, RingBufferSink, TeeSink,
                             TraceEvent, Tracer, load_events)

__all__ = [
    "Tracer", "TraceEvent", "NullSink", "RingBufferSink", "JSONLSink",
    "TeeSink", "MetricsSink", "NULL_TRACER", "EVENT_NAMES", "load_events",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "METRIC_NAMES",
    "fold_event", "CampaignTelemetry",
    "summarize_events", "render_report", "summarize_file",
    "load_event_dicts", "SummaryAccumulator",
    "wilson_interval", "proportion_ci", "cell_convergence",
    "JSONLTailer", "StudyView", "UnitView", "load_study_view",
    "render_html", "report_study",
    "StatusServer", "serve_study",
]
