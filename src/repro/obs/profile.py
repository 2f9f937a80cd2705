"""The per-campaign telemetry summary.

A campaign measures each phase it runs — the golden run, mask
generation, every injection run, classification — once, as an event
(``golden_end``, ``maskgen_end``, ``inject_end``, ``classify``; a
pruned mask is a ``pruned`` event).  :func:`repro.obs.metrics.fold_event`
folds the events into a :class:`~repro.obs.metrics.MetricsRegistry`,
and :meth:`CampaignTelemetry.from_metrics` condenses the registry into
the summary that hangs off ``CampaignResult.telemetry``.

Serial, pool and study campaigns all count through that one fold — a
pool worker or a study unit ships its events home and the parent folds
them — so their deterministic numbers agree, and ``obs summarize``
condenses an events file through the same two steps.

Paper hook: §III.B claims 30-70 % per-run savings from checkpointing and
early-stop; :attr:`CampaignTelemetry.checkpoint_speedup` is the measured
fraction of golden-path cycles the restores actually skipped.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.obs.metrics import MetricsRegistry


@dataclass
class CampaignTelemetry:
    """Condensed per-campaign observability report.

    Attached to ``CampaignResult.telemetry`` by every campaign; totals
    over many cells come from one registry of all their events, as a
    study folds them (or from merged registries).
    """

    golden_s: float = 0.0
    maskgen_s: float = 0.0
    inject_s: float = 0.0
    classify_s: float = 0.0
    wall_s: float = 0.0
    snapshot_s: float = 0.0
    restore_s: float = 0.0
    injections: int = 0           # classified: simulated or pruned
    golden_cycles: int = 0
    golden_checkpoints: int = 0
    checkpoint_bytes: int = 0     # summed over golden runs
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
            checkpoint_bytes=metrics.counter_value("checkpoint.bytes"),
            cycles_simulated=metrics.counter_value("cycles.simulated"),
            cycles_saved=metrics.counter_value("cycles.saved"),
            checkpoint_restores=metrics.counter_value(
                "checkpoint.restores"),
            cold_starts=metrics.counter_value("checkpoint.cold_starts"),
            outcomes=metrics.family("outcomes."),
            early_stops=metrics.family("early_stops."),
            prunes=metrics.family("prune."),
        )

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
