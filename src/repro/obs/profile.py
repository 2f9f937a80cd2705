"""Profiling hooks and the per-campaign telemetry summary.

The dispatcher cheaply measures each phase it owns — the golden run and
every injection run — into plain sample records
(:class:`GoldenSample`, :class:`InjectionSample`).  The campaign layer
folds samples into a :class:`~repro.obs.metrics.MetricsRegistry` via the
``record_*`` helpers and finally condenses the registry into a
:class:`CampaignTelemetry`, which hangs off ``CampaignResult.telemetry``.

Both the serial and the parallel campaign paths go through the same
helpers, which is what makes their deterministic metrics identical: a
worker process ships each run's sample home with the record, and the
parent records it exactly as the serial loop would have.

Paper hook: §III.B claims 30-70 % per-run savings from checkpointing and
early-stop; :attr:`CampaignTelemetry.checkpoint_speedup` is the measured
fraction of golden-path cycles the restores actually skipped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.obs.metrics import MetricsRegistry


@dataclass
class GoldenSample:
    """Measurements of one golden (fault-free) reference run."""

    wall_s: float = 0.0
    cycles: int = 0
    checkpoints: int = 0
    snapshot_s: float = 0.0       # wall time spent taking snapshots
    checkpoint_bytes: int = 0     # serialized size of pristine+checkpoints

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "GoldenSample":
        return GoldenSample(**d)


@dataclass
class InjectionSample:
    """Measurements of one injection run (alongside its record)."""

    set_id: int = 0
    wall_s: float = 0.0
    restore_cycle: int = 0        # snapshot cycle the run resumed from
    end_cycle: int = 0            # sim.cycle when the run finished
    restore_s: float = 0.0        # wall time of the snapshot restore
    integrity_checks: int = 0     # guard digests verified for this run
    contaminations: int = 0       # guard condemn/rebuild incidents

    @property
    def sim_cycles(self) -> int:
        """Cycles actually stepped (the restore skipped the rest)."""
        return max(self.end_cycle - self.restore_cycle, 0)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "InjectionSample":
        return InjectionSample(**d)


# -- registry recording (shared by the serial and parallel paths) ---------

def record_golden(metrics: MetricsRegistry, sample: GoldenSample) -> None:
    metrics.histogram("time.golden_s").observe(sample.wall_s)
    metrics.histogram("time.snapshot_s").observe(sample.snapshot_s)
    metrics.gauge("golden.cycles").set(sample.cycles)
    metrics.gauge("golden.checkpoints").set(sample.checkpoints)
    metrics.gauge("checkpoint.bytes").set(sample.checkpoint_bytes)


def record_maskgen(metrics: MetricsRegistry, wall_s: float,
                   masks: int) -> None:
    metrics.histogram("time.maskgen_s").observe(wall_s)
    metrics.counter("masks_generated").inc(masks)


def record_injection(metrics: MetricsRegistry, record,
                     sample: InjectionSample) -> None:
    """Fold one finished injection run into the campaign registry."""
    metrics.counter("injections_total").inc()
    metrics.counter(f"outcomes.{record.reason}").inc()
    if record.early_stop is not None:
        metrics.counter(f"early_stops.{record.early_stop}").inc()
    metrics.counter("cycles.simulated").inc(sample.sim_cycles)
    metrics.counter("cycles.saved").inc(sample.restore_cycle)
    if sample.restore_cycle > 0:
        metrics.counter("checkpoint.restores").inc()
    else:
        metrics.counter("checkpoint.cold_starts").inc()
    metrics.histogram("time.inject_s").observe(sample.wall_s)
    metrics.histogram("time.restore_s").observe(sample.restore_s)
    # Guard telemetry rides on the sample/record so the parallel path
    # (workers ship both home) folds in exactly like the serial loop.
    if sample.integrity_checks:
        metrics.counter("guard.integrity_checks").inc(
            sample.integrity_checks)
    if sample.contaminations:
        metrics.counter("guard.contamination").inc(sample.contaminations)
    invariant = getattr(record, "invariant", None)
    if invariant:
        metrics.counter("guard.invariant_violations").inc()
        metrics.counter(f"guard.invariant.{invariant}").inc()


def record_pruned(metrics: MetricsRegistry, record) -> None:
    """Fold one analysis-pruned record into the registry.

    Pruned records count as classified injections with an outcome, but
    carry no checkpoint/cycle/wall-time telemetry — nothing was
    simulated for them.
    """
    metrics.counter("injections_total").inc()
    metrics.counter(f"outcomes.{record.reason}").inc()
    metrics.counter("prune.masked").inc()
    structure = record.masks[0]["structure"] if record.masks else "?"
    metrics.counter(f"prune.structure.{structure}").inc()


def record_classify(metrics: MetricsRegistry, wall_s: float) -> None:
    metrics.histogram("time.classify_s").observe(wall_s)


# -- the summary ----------------------------------------------------------

@dataclass
class CampaignTelemetry:
    """Condensed per-campaign observability report.

    Attached to ``CampaignResult.telemetry`` by both campaign runners;
    merge across cells with :meth:`merge` for figure-level totals.
    """

    golden_s: float = 0.0
    maskgen_s: float = 0.0
    inject_s: float = 0.0
    classify_s: float = 0.0
    wall_s: float = 0.0
    snapshot_s: float = 0.0
    restore_s: float = 0.0
    injections: int = 0
    golden_cycles: int = 0
    golden_checkpoints: int = 0
    checkpoint_bytes: int = 0
    cycles_simulated: int = 0
    cycles_saved: int = 0
    checkpoint_restores: int = 0
    cold_starts: int = 0
    outcomes: dict = field(default_factory=dict)
    early_stops: dict = field(default_factory=dict)
    #: ``repro.prune`` counters, suffix-keyed ("masked",
    #: "structure.<name>"); empty when pruning was off.
    prunes: dict = field(default_factory=dict)

    # -- derived ----------------------------------------------------------

    @property
    def injections_per_sec(self) -> float:
        return self.injections / self.inject_s if self.inject_s else 0.0

    @property
    def early_stop_rate(self) -> float:
        total = sum(self.early_stops.values())
        return total / self.injections if self.injections else 0.0

    @property
    def checkpoint_speedup(self) -> float:
        """Fraction of faulty-run cycles skipped by snapshot restores."""
        denom = self.cycles_simulated + self.cycles_saved
        return self.cycles_saved / denom if denom else 0.0

    @property
    def prune_rate(self) -> float:
        """Fraction of injections resolved without simulation."""
        pruned = self.prunes.get("masked", 0)
        return pruned / self.injections if self.injections else 0.0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_metrics(cls, metrics: MetricsRegistry,
                     wall_s: float = 0.0) -> "CampaignTelemetry":
        return cls(
            golden_s=metrics.histogram("time.golden_s").total,
            maskgen_s=metrics.histogram("time.maskgen_s").total,
            inject_s=metrics.histogram("time.inject_s").total,
            classify_s=metrics.histogram("time.classify_s").total,
            wall_s=wall_s,
            snapshot_s=metrics.histogram("time.snapshot_s").total,
            restore_s=metrics.histogram("time.restore_s").total,
            injections=metrics.counter_value("injections_total"),
            golden_cycles=int(metrics.gauge("golden.cycles").value),
            golden_checkpoints=int(
                metrics.gauge("golden.checkpoints").value),
            checkpoint_bytes=int(metrics.gauge("checkpoint.bytes").value),
            cycles_simulated=metrics.counter_value("cycles.simulated"),
            cycles_saved=metrics.counter_value("cycles.saved"),
            checkpoint_restores=metrics.counter_value(
                "checkpoint.restores"),
            cold_starts=metrics.counter_value("checkpoint.cold_starts"),
            outcomes=metrics.family("outcomes."),
            early_stops=metrics.family("early_stops."),
            prunes=metrics.family("prune."),
        )

    def merge(self, other: "CampaignTelemetry") -> "CampaignTelemetry":
        """Accumulate another campaign's telemetry into this one."""
        for attr in ("golden_s", "maskgen_s", "inject_s", "classify_s",
                     "wall_s", "snapshot_s", "restore_s", "injections",
                     "golden_cycles", "checkpoint_bytes",
                     "cycles_simulated", "cycles_saved",
                     "checkpoint_restores", "cold_starts"):
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
        self.golden_checkpoints = max(self.golden_checkpoints,
                                      other.golden_checkpoints)
        for src, dst in ((other.outcomes, self.outcomes),
                         (other.early_stops, self.early_stops),
                         (other.prunes, self.prunes)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["injections_per_sec"] = self.injections_per_sec
        d["early_stop_rate"] = self.early_stop_rate
        d["checkpoint_speedup"] = self.checkpoint_speedup
        d["prune_rate"] = self.prune_rate
        return d

    @staticmethod
    def from_dict(d: dict) -> "CampaignTelemetry":
        d = {k: v for k, v in d.items()
             if k not in ("injections_per_sec", "early_stop_rate",
                          "checkpoint_speedup", "prune_rate")}
        return CampaignTelemetry(**d)

    def summary(self) -> str:
        """Multi-line human-readable rendering."""
        lines = [
            "campaign telemetry",
            f"  injections          {self.injections}",
            f"  injections/sec      {self.injections_per_sec:,.1f}",
            "  phase timing        "
            f"golden {self.golden_s:.3f}s | maskgen {self.maskgen_s:.3f}s"
            f" | inject {self.inject_s:.3f}s"
            f" | classify {self.classify_s:.3f}s",
            f"  golden run          {self.golden_cycles} cycles, "
            f"{self.golden_checkpoints} checkpoints",
            "  snapshot engine     "
            f"take {self.snapshot_s:.3f}s | restore {self.restore_s:.3f}s"
            f" | {self.checkpoint_bytes:,} checkpoint bytes",
            f"  checkpoint speedup  {100 * self.checkpoint_speedup:.1f}% "
            f"of cycles skipped ({self.checkpoint_restores} restores, "
            f"{self.cold_starts} cold starts)",
            f"  early-stop rate     {100 * self.early_stop_rate:.1f}%"
            + ("".join(f"  [{k}: {v}]"
                       for k, v in sorted(self.early_stops.items()))
               if self.early_stops else ""),
            *([
                f"  prune rate          {100 * self.prune_rate:.1f}% "
                f"({self.prunes.get('masked', 0)} masked by analysis)"
            ] if self.prunes else []),
            "  outcomes            "
            + (" ".join(f"{k}={v}" for k, v in sorted(self.outcomes.items()))
               or "(none)"),
        ]
        return "\n".join(lines)
