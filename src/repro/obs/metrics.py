"""Campaign metrics: counters, gauges and histograms that merge.

A :class:`MetricsRegistry` aggregates one campaign's statistics —
injection counts, outcome distribution, early-stop hits by reason,
cycles simulated vs cycles skipped by checkpoint restores, per-phase
wall times.  Registries serialise to plain dicts and merge
associatively, which is what lets ``run_campaign_parallel`` report the
same numbers as the serial path: each worker's per-run deltas are
shipped back with the record and folded into the parent registry.

Metric names are dotted strings; the campaign stack uses the fixed
vocabulary in :data:`METRIC_NAMES` (see docs/observability.md).
"""

from __future__ import annotations

import math

# The metric vocabulary the campaign stack emits.  Families ending in a
# dot are label-suffixed at runtime (e.g. ``outcomes.exit``).
METRIC_NAMES = {
    "injections_total": "counter — injection runs completed",
    "masks_generated": "counter — fault sets produced by the generator",
    "outcomes.": "counter family — runs by raw reason (exit, killed, "
                 "panic, deadlock, cycle-limit, assert, sim-crash)",
    "early_stops.": "counter family — §III.B early stops by reason "
                    "(invalid-entry, overwritten)",
    "prune.masked": "counter — masks pre-classified Masked by the "
                    "golden-trace analyzer (no simulation)",
    "prune.structure.": "counter family — pruned masks by target "
                        "structure (rate denominator is the campaign's "
                        "mask count)",
    "guard.integrity_checks": "counter — restore digests verified by "
                              "the integrity guard",
    "guard.contamination": "counter — contaminated-state incidents "
                           "(machine condemned and rebuilt)",
    "guard.invariant_violations": "counter — faulty runs stopped by a "
                                  "guard invariant (Assert class)",
    "guard.invariant.": "counter family — invariant violations by "
                        "invariant name",
    "cycles.simulated": "counter — faulty cycles actually stepped",
    "cycles.saved": "counter — cycles skipped by checkpoint restores",
    "checkpoint.restores": "counter — injection runs started from a "
                           "snapshot",
    "checkpoint.cold_starts": "counter — injection runs started from "
                              "reset",
    "golden.cycles": "gauge — golden run length in cycles",
    "golden.checkpoints": "gauge — snapshots captured by the golden run",
    "time.golden_s": "histogram — golden run wall time",
    "time.maskgen_s": "histogram — mask generation wall time",
    "time.inject_s": "histogram — per-injection wall time",
    "time.classify_s": "histogram — classification wall time",
    "time.unit_s": "histogram — per-unit wall time (scheduler)",
    "sched.units_done": "counter — study units completed",
    "sched.units_failed": "counter — unit attempts that failed",
    "sched.retries": "counter — failed units re-queued for another try",
    "sched.timeouts": "counter — unit leases killed by the wall-clock "
                      "timeout",
    "sched.quarantined": "counter — poison units retired after exhausting "
                         "their retries",
    "sched.queue_depth": "gauge — units waiting or running right now",
    "svc.studies_submitted": "counter — studies admitted by the service",
    "svc.studies_done": "counter — service studies run to completion",
    "svc.studies_cancelled": "counter — service studies cancelled",
    "svc.quota_rejections": "counter — submissions refused by a tenant "
                            "quota (HTTP 429)",
    "svc.queue_depth": "gauge — service units queued or in flight",
    "svc.busy_workers": "gauge — fleet workers currently leasing a unit",
    "svc.tenant_queued.": "gauge family — queued units by tenant "
                          "(fairness observability)",
    "svc.tenant_inflight.": "gauge family — in-flight units by tenant",
    "svc.golden_cache_entries": "gauge — cross-study golden payloads "
                                "held by the fleet cache",
}


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Mergeable summary of a distribution, with percentile estimates.

    Deliberately keeps no raw samples — instead of a sample list it
    bins positive observations into logarithmic buckets (8 per decade),
    so summaries still merge associatively across worker processes and
    serialise to a handful of numbers.  :meth:`percentile` answers from
    the buckets with a bounded relative error (one bucket is a ×1.33
    span; the estimate is the bucket's geometric midpoint clamped to
    the observed min/max), which is plenty for wall-time reporting.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "zeros")

    #: Log-bucket resolution: buckets per decade of value.
    BUCKETS_PER_DECADE = 8

    def __init__(self, count: int = 0, total: float = 0.0,
                 min: float | None = None, max: float | None = None,
                 buckets: dict | None = None, zeros: int = 0):
        self.count = count
        self.total = total
        self.min = min
        self.max = max
        # bucket index -> observation count; keys may arrive as str
        # (JSON round trip) and are normalised to int.
        self.buckets = {int(k): v for k, v in (buckets or {}).items()}
        self.zeros = zeros                 # observations <= 0

    @classmethod
    def _bucket_of(cls, value: float) -> int:
        return math.floor(math.log10(value) * cls.BUCKETS_PER_DECADE)

    @classmethod
    def _bucket_mid(cls, index: int) -> float:
        # Geometric midpoint of [10^(i/8), 10^((i+1)/8)).
        return 10.0 ** ((index + 0.5) / cls.BUCKETS_PER_DECADE)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value > 0.0:
            idx = self._bucket_of(value)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
        else:
            self.zeros += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated *q*-th percentile (q in [0, 100]) of observations.

        Zero/negative observations count as 0.0; the estimate is
        clamped to the observed [min, max], so single-valued
        distributions report exactly.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile wants q in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q / 100.0 * self.count))
        cum = self.zeros
        estimate = 0.0
        if target > cum:
            for idx in sorted(self.buckets):
                cum += self.buckets[idx]
                if cum >= target:
                    estimate = self._bucket_mid(idx)
                    break
        lo = self.min if self.min is not None else estimate
        hi = self.max if self.max is not None else estimate
        return min(max(estimate, lo), hi)

    def summary(self) -> dict:
        """Condensed distribution: count/mean/min/max + p50/p90/p99."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for attr, pick in (("min", min), ("max", max)):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if theirs is not None:
                setattr(self, attr,
                        theirs if mine is None else pick(mine, theirs))
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.zeros += other.zeros

    def to_dict(self) -> dict:
        d = {"count": self.count, "total": self.total,
             "min": self.min, "max": self.max}
        if self.buckets:
            d["buckets"] = {str(k): v
                            for k, v in sorted(self.buckets.items())}
        if self.zeros:
            d["zeros"] = self.zeros
        return d

    @staticmethod
    def from_dict(d: dict) -> "Histogram":
        return Histogram(**d)


class MetricsRegistry:
    """Named counters/gauges/histograms for one campaign (or worker)."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create accessors ------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # -- read side --------------------------------------------------------

    def counter_value(self, name: str, default: int = 0) -> int:
        c = self._counters.get(name)
        return c.value if c is not None else default

    def family(self, prefix: str) -> dict:
        """All counters under a dotted prefix, suffix-keyed."""
        return {name[len(prefix):]: c.value
                for name, c in sorted(self._counters.items())
                if name.startswith(prefix)}

    def names(self) -> list:
        return sorted([*self._counters, *self._gauges, *self._histograms])

    # -- serialisation / merging ------------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": {k: c.value
                         for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value
                       for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self._histograms.items())},
        }

    @staticmethod
    def from_dict(d: dict) -> "MetricsRegistry":
        reg = MetricsRegistry()
        for k, v in d.get("counters", {}).items():
            reg.counter(k).inc(v)
        for k, v in d.get("gauges", {}).items():
            reg.gauge(k).set(v)
        for k, v in d.get("histograms", {}).items():
            reg._histograms[k] = Histogram.from_dict(v)
        return reg

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry (gauges: last write wins)."""
        for k, c in other._counters.items():
            self.counter(k).inc(c.value)
        for k, g in other._gauges.items():
            self.gauge(k).set(g.value)
        for k, h in other._histograms.items():
            self.histogram(k).merge(h)
        return self
