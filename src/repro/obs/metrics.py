"""Campaign metrics: counters, gauges and histograms that merge.

A :class:`MetricsRegistry` aggregates one campaign's statistics —
injection counts, outcome distribution, early-stop hits by reason,
cycles simulated vs cycles skipped by checkpoint restores, per-phase
wall times.  Registries serialise to plain dicts and merge
associatively.  A campaign's events are the one record of what it
measured, and :func:`fold_event` is the only place that turns them
into metrics: for the campaign itself, for the events pool workers and
study units ship home, and for ``obs summarize``.

Metric names are dotted strings; the stack uses the fixed vocabulary in
:data:`METRIC_NAMES` (see docs/observability.md).
"""

from __future__ import annotations

import math

# The metric vocabulary the stack emits.  Families ending in a dot are
# label-suffixed at runtime (e.g. ``outcomes.exit``).
METRIC_NAMES = {
    "injections_total": "counter — classified injections, simulated or "
                        "pruned (audit re-simulations excluded)",
    "masks_generated": "counter — fault sets produced by the generator",
    "outcomes.": "counter family — injections by raw reason (exit, "
                 "killed, panic, deadlock, cycle-limit, wall-clock, "
                 "op-budget, assert, sim-crash); pruned ones are exit",
    "early_stops.": "counter family — §III.B early stops by reason "
                    "(invalid-entry, overwritten)",
    "prune.masked": "counter — masks pre-classified Masked by the "
                    "golden-trace analyzer (no simulation)",
    "prune.structure.": "counter family — pruned masks by structure",
    "guard.integrity_checks": "counter — restore digests verified",
    "guard.contamination": "counter — machines condemned and rebuilt",
    "guard.invariant_violations": "counter — runs stopped by an invariant",
    "guard.invariant.": "counter family — violations by invariant name",
    "cycles.simulated": "counter — faulty cycles actually stepped",
    "cycles.saved": "counter — cycles skipped by checkpoint restores",
    "checkpoint.restores": "counter — injections started from a snapshot",
    "checkpoint.cold_starts": "counter — injections started from reset",
    "checkpoint.bytes": "counter — pickled pristine state plus snapshots, "
                        "each shared memory page once, summed over "
                        "golden runs",
    "golden.cycles": "gauge — golden run length in cycles",
    "golden.checkpoints": "gauge — snapshots captured by the golden run",
    "time.golden_s": "histogram — golden run wall time",
    "time.golden_adopt_s": "histogram — adopting a shipped golden blob "
                           "(unpickle, trace bytes, checkpoint store)",
    "time.golden_pack_s": "histogram — packing a golden run into a blob "
                          "to ship (pickle, compress)",
    "time.maskgen_s": "histogram — mask generation wall time",
    "time.inject_s": "histogram — per-injection wall time",
    "time.classify_s": "histogram — classification wall time",
    "time.snapshot_s": "histogram — snapshot taking per golden run",
    "time.restore_s": "histogram — snapshot restore per injection",
    "time.unit_s": "histogram — per-unit wall time (scheduler)",
    "sched.units_done": "counter — study units completed",
    "sched.units_failed": "counter — unit attempts that failed",
    "sched.retries": "counter — failed units re-queued for another try",
    "sched.timeouts": "counter — leases killed by the wall-clock timeout",
    "sched.quarantined": "counter — units retired after their retries",
    "sched.queue_depth": "gauge — units waiting or running right now",
    "svc.studies_submitted": "counter — studies admitted by the service",
    "svc.studies_done": "counter — service studies run to completion",
    "svc.studies_cancelled": "counter — service studies cancelled",
    "svc.queue_depth": "gauge — service units queued or in flight",
    "svc.busy_workers": "gauge — fleet workers currently leasing a unit",
    "svc.golden_cache_entries": "gauge — golden payloads in the cache",
    "svc.blobs.evicted": "counter — golden payloads released",
    "svc.remote.registrations": "counter — remote worker registrations",
    "svc.remote.workers_seen": "counter — registrations accepted",
    "svc.remote.workers_lost": "counter — workers past their miss budget",
    "svc.remote.leases": "counter — units leased to remote workers",
    "svc.remote.completes": "counter — remote completes settled",
    "svc.remote.dup_completes": "counter — duplicate completes detected",
    "svc.remote.stale_fences": "counter — completes with a revoked fence",
    "svc.remote.revoked": "counter — remote leases revoked",
    "svc.attest.rejected": "counter — completes refused by attestation",
    "svc.attest.distrusted": "counter — workers distrusted",
    "svc.attest.challenges_passed": "counter — challenges passed",
    "svc.attest.challenges_failed": "counter — challenges failed",
    "svc.attest.audits_sampled": "counter — units picked for audit",
    "svc.attest.audits_ok": "counter — audits matching the worker",
    "svc.attest.audits_diverged": "counter — audits that diverged",
    "svc.attest.audits_inconclusive": "counter — audits that failed",
    "svc.attest.voided": "counter — completed units voided",
}


def _count(value) -> int:
    """A count field of an event row: a positive int, or 0."""
    return value if type(value) is int and value > 0 else 0


def _seconds(value) -> float:
    """A wall-time field of an event row: a finite number, or 0.0."""
    ok = type(value) in (int, float) and abs(value) < 1e18
    return float(value) if ok else 0.0


def fold_event(m: MetricsRegistry, name, ev: dict) -> None:
    """Apply one campaign event, *name* with fields *ev*, to *m*.

    The only place campaign events become metrics: the campaign, the
    pool and study parents and ``obs summarize`` all count through it.
    *ev* may be the whole event row; events of other names are ignored.
    It never raises: a field of the wrong type counts as zero, so any
    row with a string ``name`` is safe to fold.
    """
    if name == "inject_end":
        m.counter("injections_total").inc()
        m.counter(f"outcomes.{ev.get('reason', 'unknown')}").inc()
        if ev.get("early_stop"):
            m.counter(f"early_stops.{ev['early_stop']}").inc()
        saved = _count(ev.get("saved_cycles"))
        m.counter("cycles.simulated").inc(_count(ev.get("sim_cycles")))
        m.counter("cycles.saved").inc(saved)
        m.counter("checkpoint.restores" if saved
                  else "checkpoint.cold_starts").inc()
        m.histogram("time.inject_s").observe(_seconds(ev.get("wall_s")))
        m.histogram("time.restore_s").observe(_seconds(ev.get("restore_s")))
        # Guard metrics appear only when nonzero, so guard-off campaigns
        # keep the pre-guard vocabulary.
        if _count(ev.get("integrity_checks")):
            m.counter("guard.integrity_checks").inc(ev["integrity_checks"])
        if ev.get("invariant"):
            m.counter("guard.invariant_violations").inc()
            m.counter(f"guard.invariant.{ev['invariant']}").inc()
    elif name == "pruned":
        # A classified injection whose synthetic record exits like
        # golden; nothing was simulated, so no cycles and no times.
        m.counter("injections_total").inc()
        m.counter("outcomes.exit").inc()
        m.counter("prune.masked").inc()
        m.counter(f"prune.structure.{ev.get('structure', '?')}").inc()
    elif name == "golden_end":
        m.histogram("time.golden_s").observe(_seconds(ev.get("wall_s")))
        m.histogram("time.snapshot_s").observe(
            _seconds(ev.get("snapshot_s")))
        m.gauge("golden.cycles").set(_count(ev.get("cycles")))
        m.gauge("golden.checkpoints").set(_count(ev.get("checkpoints")))
        m.counter("checkpoint.bytes").inc(_count(ev.get("checkpoint_bytes")))
    elif name == "golden_adopted":
        m.histogram("time.golden_adopt_s").observe(_seconds(ev.get("wall_s")))
    elif name == "golden_packed":
        m.histogram("time.golden_pack_s").observe(_seconds(ev.get("wall_s")))
    elif name == "maskgen_end":
        m.histogram("time.maskgen_s").observe(_seconds(ev.get("wall_s")))
        m.counter("masks_generated").inc(_count(ev.get("masks")))
    elif name == "classify":
        m.histogram("time.classify_s").observe(_seconds(ev.get("wall_s")))
    elif name == "guard.contamination":
        m.counter("guard.contamination").inc()


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
