"""Injection Campaign Controller — the second module of Fig. 1.

Reads fault masks from the masks repository, sends injection requests to
the per-simulator Injector Dispatcher, and stores the raw results in the
logs repository for the Parser.  :class:`InjectionCampaign` is the one
cell pipeline: ``run_campaign``, ``run_campaign_parallel`` and the
scheduler's ``run_unit`` each build one and run it.  ``run_campaign`` is
the one-call user entry point for a (setup, benchmark, structure) cell
of the study.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import TRANSIENT, FaultSet
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.core.outcome import GoldenReference
from repro.core.parser import DEFAULT_POLICY, ParserPolicy, classify_all, \
    vulnerability
from repro.core.repository import LogsRepository, MasksRepository
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (CampaignTelemetry, record_classify,
                               record_golden, record_injection,
                               record_maskgen, record_pruned)
from repro.obs.trace import JSONLSink, NULL_TRACER, Tracer
from repro.prune import (PRUNE_OFF, PRUNE_POLICIES, TraceCache, audit_plan,
                         build_prune_plan, synthetic_masked_record)
from repro.sim.config import SimConfig, setup_config


@dataclass
class CampaignResult:
    """Everything a campaign produced, ready for the Parser/reports.

    ``telemetry`` carries the campaign's observability summary
    (:class:`repro.obs.profile.CampaignTelemetry`); it is excluded from
    equality so instrumented and uninstrumented results compare equal.
    """

    setup: str
    benchmark: str
    structure: str
    golden: GoldenReference
    records: list = field(default_factory=list)
    early_stops: int = 0
    #: ``repro.prune`` plan statistics + audit verdict (None = prune off).
    #: Deterministic, so serial and parallel pruned campaigns compare
    #: equal — including the trace digest.
    prune: dict | None = None
    telemetry: CampaignTelemetry | None = field(default=None,
                                                compare=False, repr=False)
    _tracer: object = field(default=None, compare=False, repr=False)
    _metrics: object = field(default=None, compare=False, repr=False)

    def classify(self, policy: ParserPolicy = DEFAULT_POLICY) -> dict:
        t0 = time.perf_counter()
        counts = classify_all(self.records, self.golden, policy)
        wall_s = time.perf_counter() - t0
        if self._metrics is not None:
            record_classify(self._metrics, wall_s)
        if self.telemetry is not None:
            self.telemetry.classify_s += wall_s
        if self._tracer is not None:
            self._tracer.emit("classify", wall_s=wall_s, **counts)
        return counts

    def vulnerability(self) -> float:
        return vulnerability(self.classify())

    @property
    def injections(self) -> int:
        return len(self.records)


def golden_with_trace(dispatcher: InjectorDispatcher, benchmark: str,
                      prune: str, trace_cache=None, tracer=NULL_TRACER):
    """The golden run, plus the pruner's access trace when pruning.

    Returns ``(golden, trace, source)``.  A golden run already adopted
    into *dispatcher* (a shipped golden blob, see
    ``repro.core.parallel.adopt_golden_payload``) is kept unless pruning
    needs a trace the blob lacks; otherwise the golden run is simulated
    here, its trace loaded from *trace_cache* or recorded.  *source* is
    ``"adopted"``, ``"cache"`` or ``"recorded"`` (trace and source are
    None when *prune* is off).  A cached trace whose cycle count
    disagrees with the fresh golden run is stale — the simulator or
    workload changed — and is silently re-recorded, never trusted.
    """
    adopted = dispatcher.golden
    if prune == PRUNE_OFF:
        golden = adopted if adopted is not None else dispatcher.run_golden()
        return golden, None, None
    if adopted is not None and dispatcher.access_trace is not None:
        return adopted, dispatcher.access_trace, "adopted"
    if trace_cache is not None and not isinstance(trace_cache, TraceCache):
        trace_cache = TraceCache(trace_cache)
    label = dispatcher.config.label
    cached = (trace_cache.load(label, benchmark)
              if trace_cache is not None else None)
    dispatcher.record_trace = cached is None
    golden = dispatcher.run_golden()
    if cached is not None and cached.cycles != golden.cycles:
        cached = None
        dispatcher.record_trace = True
        golden = dispatcher.run_golden()
    if cached is not None:
        tracer.emit("trace_cache_hit", setup=label, benchmark=benchmark,
                    events=cached.n_events)
        return golden, cached, "cache"
    trace = dispatcher.access_trace
    trace.benchmark = benchmark
    if trace_cache is not None:
        trace_cache.store(trace)
    tracer.emit("trace_recorded", setup=label, benchmark=benchmark,
                events=trace.n_events)
    return golden, trace, "recorded"


def draw_masks(info: StructureInfo, total_cycles: int, seed: int,
               fault_type: str = TRANSIENT, count: int | None = None,
               confidence: float = 0.99,
               error_margin: float = 0.03) -> list[FaultSet]:
    """A cell's mask stream, deterministic in *seed*.

    The one draw behind every campaign: :meth:`InjectionCampaign.prepare`
    calls it, and so does ``WorkUnit.masks``, against which attestation
    checks a remote unit's masks file.
    """
    return FaultMaskGenerator(seed).generate(
        info, total_cycles, count=count, fault_type=fault_type,
        confidence=confidence, error_margin=error_margin)


def _refuse_foreign(path, rows, stream: dict) -> None:
    """Raise unless every ``(set_id, masks)`` row of a reused file is in
    *stream*: resuming over another seed's or cell's file would mix two
    campaigns silently, since the repositories skip known ``set_id``s."""
    for set_id, masks in rows:
        if stream.get(set_id) != masks:
            raise ValueError(
                f"{path} holds set {set_id} with masks this campaign does "
                f"not draw — the file does not belong to this campaign's "
                f"mask stream")


class InjectionCampaign:
    """One campaign: a fault model × structure × benchmark × setup.

    The one cell pipeline.  :meth:`prepare` takes the golden run (see
    :func:`golden_with_trace`), draws the mask stream and plans pruning;
    :meth:`run` skips every ``set_id`` the logs repository already
    holds, synthesizes the pruned records and simulates the rest —
    inline, or on a pool of *workers* processes
    (:func:`repro.core.parallel.pool_inject`).  A reused masks or logs
    file must hold this campaign's own stream: it then resumes, and
    anything else is refused before either file is written.
    """

    def __init__(self, config: SimConfig, program, benchmark_name: str,
                 structure: str, seed: int = 1,
                 fault_type: str = TRANSIENT,
                 early_stop: bool = True, n_checkpoints: int = 10,
                 masks_path=None, logs_path=None,
                 tracer=None, metrics=None, timeout_s: float | None = None,
                 guard=None, prune: str = PRUNE_OFF, trace_cache=None,
                 audit: int = 0, workers: int = 0):
        if prune not in PRUNE_POLICIES:
            raise ValueError(f"unknown prune policy {prune!r}; "
                             f"choose from {PRUNE_POLICIES}")
        self.config = config
        self.program = program
        self.benchmark_name = benchmark_name
        self.structure = structure
        self.seed = seed
        self.fault_type = fault_type
        self.early_stop = early_stop
        self.prune = prune
        self.audit = audit
        self.workers = workers
        if trace_cache is not None and not isinstance(trace_cache,
                                                      TraceCache):
            trace_cache = TraceCache(trace_cache)
        self.trace_cache = trace_cache
        self._plan = None
        self._prune_stats = None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.dispatcher = InjectorDispatcher(config, program,
                                             n_checkpoints=n_checkpoints,
                                             tracer=self.tracer,
                                             timeout_s=timeout_s,
                                             guard=guard)
        self.masks = MasksRepository(masks_path)
        self.logs = LogsRepository(logs_path)

    def prepare(self, injections: int | None = None,
                confidence: float = 0.99,
                error_margin: float = 0.03) -> int:
        """Golden run, mask stream and prune plan; returns the mask count."""
        golden, trace, trace_source = golden_with_trace(
            self.dispatcher, self.benchmark_name, self.prune,
            self.trace_cache, self.tracer)
        if self.dispatcher.golden_sample is not None:    # not adopted
            record_golden(self.metrics, self.dispatcher.golden_sample)
        # The dispatcher's machine already exists; no throwaway simulator.
        sites = self.dispatcher.fault_sites()
        if self.structure not in sites:
            raise KeyError(
                f"{self.config.label} has no structure "
                f"{self.structure!r}; available: {sorted(sites)}")
        info = StructureInfo.of_site(sites[self.structure])
        self.tracer.emit("maskgen_start", structure=self.structure,
                         seed=self.seed)
        t0 = time.perf_counter()
        sets = draw_masks(info, golden.cycles, self.seed, self.fault_type,
                          injections, confidence, error_margin)
        wall_s = time.perf_counter() - t0
        record_maskgen(self.metrics, wall_s, len(sets))
        self.tracer.emit("maskgen_end", structure=self.structure,
                         masks=len(sets), wall_s=wall_s)
        stream = {fs.set_id: fs.to_dict()["masks"] for fs in sets}
        _refuse_foreign(self.masks.path, [(fs.set_id, fs.to_dict()["masks"])
                                          for fs in self.masks], stream)
        _refuse_foreign(self.logs.path, [(rec.set_id, rec.masks)
                                         for rec in self.logs.records],
                        stream)
        self.masks.add_all(sets)
        self.logs.set_golden(golden)
        if self.prune != PRUNE_OFF:
            self._plan = build_prune_plan(sets, trace, self.prune)
            stats = self._prune_stats = self._plan.stats()
            stats["trace_source"] = trace_source
            self.tracer.emit("prune_plan", structure=self.structure,
                             policy=self.prune, masks=stats["masks"],
                             masked=stats["masked"],
                             simulated=stats["simulated"])
        return len(sets)

    def run(self, progress=None) -> CampaignResult:
        """Dispatch every mask set not yet logged; returns the whole cell.

        Records already in the logs repository are taken as they are
        (a resumed campaign); *progress* fires for every set, in mask
        order, as ``progress(done, total, record)``.
        """
        golden = self.dispatcher.golden
        if golden is None:
            raise RuntimeError("call prepare() before run()")
        t0 = time.perf_counter()
        sets = list(self.masks)
        logged = {rec.set_id: rec for rec in self.logs.records}
        plan = self._plan
        self.tracer.emit("campaign_start", setup=self.config.label,
                         benchmark=self.benchmark_name,
                         structure=self.structure, masks=len(sets),
                         resumed=len(logged), workers=self.workers)
        result = CampaignResult(setup=self.config.label,
                                benchmark=self.benchmark_name,
                                structure=self.structure,
                                golden=golden,
                                _tracer=self.tracer,
                                _metrics=self.metrics)
        decide = plan.decision if plan is not None else lambda set_id: None
        simulated = self._simulate(
            [fs for fs in sets if fs.set_id not in logged
             and decide(fs.set_id) is None])
        try:
            for i, fault_set in enumerate(sets):
                record = logged.get(fault_set.set_id)
                if record is None:
                    decision = decide(fault_set.set_id)
                    if decision is None:
                        record, sample = next(simulated)
                        record_injection(self.metrics, record, sample)
                        if record.early_stop is not None:
                            result.early_stops += 1
                    else:
                        record = synthetic_masked_record(fault_set, golden,
                                                         decision[1])
                        record_pruned(self.metrics, record)
                        self.tracer.emit("pruned", set_id=fault_set.set_id,
                                         rule=decision[1])
                    self.logs.add(record)
                result.records.append(record)
                if progress is not None:
                    progress(i + 1, len(sets), record)
        finally:
            simulated.close()
            self.masks.close()
            self.logs.close()
        if plan is not None:
            result.prune = dict(self._prune_stats)
            if self.audit:
                verdict = audit_plan(
                    self.dispatcher, {fs.set_id: fs for fs in sets},
                    {rec.set_id: rec for rec in result.records}, plan,
                    golden, self.audit, self.seed,
                    early_stop=self.early_stop)
                result.prune["audit"] = verdict
                self.tracer.emit("prune_audit",
                                 checked=verdict["checked"],
                                 divergences=len(verdict["divergences"]),
                                 digest_ok=verdict["pristine_digest_ok"])
        wall_s = time.perf_counter() - t0
        result.telemetry = CampaignTelemetry.from_metrics(self.metrics,
                                                          wall_s=wall_s)
        self.tracer.emit("campaign_end", setup=self.config.label,
                         benchmark=self.benchmark_name,
                         structure=self.structure,
                         injections=result.injections,
                         early_stops=result.early_stops, wall_s=wall_s,
                         workers=self.workers)
        return result

    def _simulate(self, sets):
        """``(record, sample)`` per fault set, in order: inline, or from
        the process pool when *workers* > 0."""
        if self.workers > 0 and sets:
            from repro.core.parallel import pool_inject
            return pool_inject(self.dispatcher, sets, self.workers,
                               self.early_stop)
        dispatcher = self.dispatcher
        return ((dispatcher.inject(fs, early_stop=self.early_stop),
                 dispatcher.last_sample) for fs in sets)


def default_injections() -> int:
    """Per-cell injection count; overridable via ``REPRO_INJECTIONS``."""
    return int(os.environ.get("REPRO_INJECTIONS", "40"))


def run_campaign(setup: str, benchmark: str, structure: str,
                 injections: int | None = None, seed: int = 1,
                 fault_type: str = TRANSIENT, early_stop: bool = True,
                 scaled: bool = True, scale: int = 1,
                 logs_path=None, progress=None, tracer=None,
                 metrics=None, events_path=None,
                 timeout_s: float | None = None,
                 guard=None, prune: str = PRUNE_OFF, trace_cache=None,
                 audit: int = 0) -> CampaignResult:
    """One-call campaign for a (setup, benchmark, structure) cell.

    *setup* is a paper label: ``MaFIN-x86``, ``GeFIN-x86``, ``GeFIN-ARM``.
    *injections* defaults to ``REPRO_INJECTIONS`` (40) — the paper used
    2000 per cell; pass ``injections=2000`` (or set the env var) to match.

    *timeout_s* bounds each injection run's wall-clock time; runs that
    exceed it are recorded with reason ``"wall-clock"`` and classified
    as Timeouts (CLI: ``repro.tools campaign --timeout-s``).

    *guard* selects the hardening policy — ``"off"``/``"basic"``/
    ``"strict"`` or a :class:`repro.guard.GuardPolicy` — covering
    invariant checks on faulty runs, crash containment and restore
    integrity verification (CLI: ``repro.tools campaign --guard``); see
    docs/robustness.md.

    *prune* selects the campaign pruner (``repro.prune``):
    ``"analyze"`` pre-classifies provably-Masked masks from the golden
    access trace.  *trace_cache* (a directory or
    :class:`~repro.prune.TraceCache`) persists the access trace per
    (setup, benchmark).  *audit* > 0 really simulates that many pruned
    masks and reports classification divergences in
    ``result.prune["audit"]`` — see docs/performance.md.

    *logs_path* persists the golden reference and every record.  An
    existing file of the same cell and seed resumes: its records are
    kept, not re-simulated.  A file of another mask stream raises
    ValueError.

    Observability: pass a :class:`repro.obs.Tracer` via *tracer*, or just
    *events_path* to capture the event stream as JSONL for
    ``repro.tools obs summarize``; the returned result carries a
    :class:`~repro.obs.profile.CampaignTelemetry` either way.
    """
    return _run_cell(setup, benchmark, structure, injections, scaled, scale,
                     progress, tracer, events_path, seed=seed,
                     fault_type=fault_type, early_stop=early_stop,
                     logs_path=logs_path, metrics=metrics,
                     timeout_s=timeout_s, guard=guard, prune=prune,
                     trace_cache=trace_cache, audit=audit)


def _run_cell(setup: str, benchmark: str, structure: str,
              injections: int | None, scaled: bool, scale: int, progress,
              tracer, events_path, **campaign_kwargs) -> CampaignResult:
    """Build the campaign of one benchmark-suite cell and run it; the
    shared body of ``run_campaign`` and ``run_campaign_parallel``."""
    from repro.bench import suite
    own_tracer = None
    if tracer is None and events_path is not None:
        tracer = own_tracer = Tracer(JSONLSink(events_path))
    try:
        config = setup_config(setup, scaled=scaled)
        program = suite.program(benchmark, config.isa, scale)
        campaign = InjectionCampaign(config, program, benchmark, structure,
                                     tracer=tracer, **campaign_kwargs)
        campaign.prepare(injections=injections if injections is not None
                         else default_injections())
        return campaign.run(progress=progress)
    finally:
        if own_tracer is not None:
            own_tracer.close()
