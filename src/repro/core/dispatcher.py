"""Injector Dispatcher — the module that talks to the simulator (Fig. 1).

One dispatcher owns one (simulator configuration, program) pair.  It
runs the golden (fault-free) execution once — collecting the reference
behaviour, runtime statistics and checkpoints — and then services
injection requests from the campaign controller: restore a checkpoint,
run to the injection cycle, apply the fault masks, observe the outcome.

The dispatcher builds exactly one machine and reuses it for every run:
checkpoints are structured state blobs (``OoOCore.snapshot()``) restored
*in place*, so the per-injection setup cost is a few flat-container
copies rather than a whole-machine ``deepcopy``.  Parallel workers skip
even the golden run: :meth:`InjectorDispatcher.adopt_golden` installs a
parent's golden reference, pristine state and checkpoints directly.

The dispatcher also implements the two §III.B early-stop optimizations
for transient faults: (i) faults landing in invalid/unused entries are
masked immediately, and (ii) a run stops as soon as the faulty entry is
overwritten before ever being read: the dispatcher holds a
:class:`~repro.uarch.array.Watch`, which detaches at its first event.
"""

from __future__ import annotations

import time

from repro.errors import CampaignError, SimAssertError, SimCrashError
from repro.core.checkpoint import CheckpointStore, state_nbytes
from repro.core.fault import INTERMITTENT, PERMANENT, TRANSIENT, FaultSet
from repro.core.outcome import GoldenReference, InjectionRecord
from repro.guard import GuardPolicy
from repro.guard.containment import (OpBudgetExceeded, WatchdogTimeout,
                                     contained)
from repro.guard.integrity import (IntegrityVerifier, chaos_leak,
                                   chaos_leak_due)
from repro.guard.invariants import InvariantViolation, check_invariants
from repro.obs.trace import NULL_TRACER
from repro.sim.base import RunOutcome
from repro.sim.gem5 import build_sim
from repro.sim.kernel import KernelPanic, ProcessExit, ProcessKilled


class InjectorDispatcher:
    """Drives one simulated machine for a fault-injection campaign."""

    def __init__(self, config, program, n_checkpoints: int = 8,
                 timeout_factor: int = 3, deadlock_window: int = 20_000,
                 max_golden_cycles: int = 5_000_000, tracer=None,
                 timeout_s: float | None = None, guard=None,
                 record_trace: bool = False):
        self.config = config
        self.program = program
        self.n_checkpoints = n_checkpoints
        self.timeout_factor = timeout_factor
        self.deadlock_window = deadlock_window
        self.max_golden_cycles = max_golden_cycles
        #: Per-injection wall-clock budget in seconds (None = unlimited).
        #: Runs that exceed it finish with reason ``"wall-clock"``, which
        #: the Parser classifies as a Timeout (livelock) — the knob that
        #: polices hung faulty runs in long unattended campaigns.
        self.timeout_s = timeout_s
        #: Hardening policy (``repro.guard``): preset name, policy
        #: object or None.  Controls invariant checking on faulty runs,
        #: crash containment around the drive loop and integrity
        #: verification of restores.
        self.guard = GuardPolicy.of(guard)
        self._integrity = (IntegrityVerifier(self.guard.integrity_every)
                           if self.guard.integrity_every else None)
        self._restores_seen = 0
        self._checks_base = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: When set before :meth:`run_golden`, the golden run records the
        #: per-entry access trace of the paper structures for the
        #: campaign pruner (``repro.prune``); the result lands in
        #: :attr:`access_trace`.  Adds nothing to injection runs — the
        #: recorder observes the arrays only while golden executes.
        self.record_trace = record_trace
        self.access_trace = None
        self.golden: GoldenReference | None = None
        #: Set by :meth:`run_golden` only: None after :meth:`adopt_golden`.
        self.golden_outcome: RunOutcome | None = None
        self.checkpoints: CheckpointStore | None = None
        self.checkpoint_bytes = 0
        self._golden_blob: bytes | None = None
        self._sim = None          # the one reusable machine
        self._pristine = None     # cycle-0 snapshot state of that machine
        self._restore_cycle = 0
        self._restore_s = 0.0
        self._inject_t0 = 0.0

    # -- golden run -----------------------------------------------------------

    def run_golden(self) -> GoldenReference:
        """Fault-free reference run; collects checkpoints along the way."""
        t0 = time.perf_counter()
        tracer = self.tracer
        tracer.emit("golden_start", label=self.config.label)
        self._golden_blob = None
        sim = self._sim = build_sim(self.program, self.config)
        t_snap = time.perf_counter()
        self._pristine = sim.snapshot()
        pristine_s = time.perf_counter() - t_snap
        store = CheckpointStore(max_snaps=max(self.n_checkpoints, 2))
        recorder = None
        if self.record_trace:
            from repro.prune.trace import TraceRecorder
            recorder = TraceRecorder(sim)
        outcome = None
        try:
            while sim.cycle < self.max_golden_cycles:
                sim.step()
                if store.maybe_take(sim):
                    tracer.emit("checkpoint_taken", cycle=sim.cycle,
                                snapshots=store.count)
                if sim.cycle - sim.last_commit_cycle > self.deadlock_window:
                    raise CampaignError("golden run deadlocked")
        except ProcessExit as ex:
            outcome = sim._outcome("exit", exit_code=ex.code)
        finally:
            if recorder is not None:
                recorder.detach()
        if outcome is None:
            raise CampaignError("golden run exceeded the cycle limit")
        if recorder is not None:
            self.access_trace = recorder.finish(
                self.config.label, getattr(self.program, "name", ""),
                outcome.cycles)
        self.golden_outcome = outcome
        self.golden = GoldenReference(
            cycles=outcome.cycles, exit_code=outcome.exit_code,
            output_hex=outcome.output.hex(), events=list(outcome.events),
            stats=dict(outcome.stats))
        self.checkpoints = store
        self.checkpoint_bytes = state_nbytes(self._pristine, *store.states)
        wall_s = time.perf_counter() - t0
        snapshot_s = pristine_s + store.snapshot_s
        tracer.emit("golden_end", cycles=outcome.cycles, wall_s=wall_s,
                    checkpoints=store.count, snapshot_s=snapshot_s,
                    checkpoint_bytes=self.checkpoint_bytes)
        if self._integrity is not None:
            self._integrity.seal(self.golden_blob())
        return self.golden

    def adopt_golden(self, golden: GoldenReference, pristine_state,
                     checkpoints: CheckpointStore,
                     blob: bytes | None = None) -> None:
        """Install a golden run performed elsewhere (parallel workers).

        The worker builds its machine once and serves injections straight
        from the parent's shipped checkpoints — no golden re-run, no
        per-worker checkpoint collection.  *blob*, the bytes they were
        unpacked from, becomes this dispatcher's :meth:`golden_blob`.
        """
        self._sim = build_sim(self.program, self.config)
        self.golden = golden
        self._pristine = pristine_state
        self.checkpoints = checkpoints
        self.checkpoint_bytes = state_nbytes(pristine_state,
                                             *checkpoints.states)
        self._golden_blob = blob
        if self._integrity is not None:
            self._integrity.seal(self.golden_blob())

    def golden_blob(self) -> bytes:
        """The golden run serialized once (``build_golden_payload``):
        the blob a pool or a study ships and, with the guard on, the
        integrity vault.  The first call builds it and must come before
        the first restore, so no faulty run's leak reaches it."""
        if self._golden_blob is None:
            from repro.core.parallel import build_golden_payload
            self._golden_blob = build_golden_payload(self)
        return self._golden_blob

    def fault_sites(self):
        """The reusable machine's injectable structures (cached per sim)."""
        if self._sim is None:
            raise CampaignError(
                "run_golden() or adopt_golden() must precede fault_sites()")
        return self._sim.fault_sites()

    def _restore(self, start_cycle: int):
        """Position ``self._sim`` at or before *start_cycle*."""
        t0 = time.perf_counter()
        if self.checkpoints is not None:
            sim = self.checkpoints.restore_before(start_cycle, self._sim)
            if sim is not None:
                self._restore_cycle = sim.cycle
                self._restore_s = time.perf_counter() - t0
                self.tracer.emit("checkpoint_restored",
                                 target_cycle=start_cycle, cycle=sim.cycle)
                return sim
        self._restore_cycle = 0
        sim = self._sim.restore(self._pristine)
        self._restore_s = time.perf_counter() - t0
        self.tracer.emit("cold_start", target_cycle=start_cycle)
        return sim

    def _condemn(self, start_cycle: int) -> None:
        """Contaminated stores detected: rebuild machine and state.

        The machine is replaced outright (``build_sim``) and the
        pristine/checkpoint stores reinstalled from the integrity
        vault, so whatever leaked cannot survive into later runs.
        """
        pristine, store = self._integrity.rebuild()
        self.tracer.emit("guard.contamination", target_cycle=start_cycle,
                         restores=self._restores_seen,
                         contaminations=self._integrity.contaminations)
        self._sim = build_sim(self.program, self.config)
        self._pristine = pristine
        self.checkpoints = store
        self.checkpoint_bytes = state_nbytes(pristine, *store.states)

    def _fresh_sim(self, start_cycle: int):
        """The reusable machine, positioned at or before *start_cycle*.

        With integrity checking on, the restored machine's digest is
        compared (at the policy's cadence) against the sealed digest of
        its restore source; on drift the machine is condemned, rebuilt
        from the vault, and the restore redone from clean state — the
        caller's run then proceeds untainted (the affected record is
        effectively re-run before it starts).
        """
        self._restores_seen += 1
        if chaos_leak_due(self._restores_seen):
            chaos_leak(self._pristine, self.checkpoints)
        sim = self._restore(start_cycle)
        if self._integrity is not None and self._integrity.sealed and \
                self._integrity.due():
            if not self._integrity.verify(sim):
                self._condemn(start_cycle)
                sim = self._restore(start_cycle)
                if not self._integrity.verify(sim):
                    raise CampaignError(
                        "machine state still diverges from the golden "
                        "digest after a rebuild from the vault")
        return sim

    # -- injection runs -----------------------------------------------------------

    def inject(self, fault_set: FaultSet,
               early_stop: bool = True) -> InjectionRecord:
        """Execute one injection run and return its raw record."""
        if self.golden is None:
            raise CampaignError("run_golden() must precede inject()")
        budget = self.golden.cycles * self.timeout_factor
        guard = self.guard
        check_every = guard.invariant_every if guard.invariants else 0
        watchdog_s = guard.watchdog_deadline(self.timeout_s)
        if self._integrity is not None:
            self._checks_base = self._integrity.checks

        self._inject_t0 = time.perf_counter()
        deadline = (self._inject_t0 + self.timeout_s
                    if self.timeout_s is not None else None)
        self.tracer.emit("inject_start", set_id=fault_set.set_id,
                         first_cycle=fault_set.first_cycle,
                         masks=len(fault_set.masks))
        sim = self._fresh_sim(fault_set.first_cycle)
        sim._faulty = True
        sites = sim.fault_sites()
        for mask in fault_set.masks:
            if mask.structure not in sites:
                raise CampaignError(
                    f"{self.config.label} has no structure "
                    f"{mask.structure!r}; available: {sorted(sites)}")

        pending = sorted(fault_set.masks, key=lambda m: m.cycle)
        watch_site = None
        record = InjectionRecord(set_id=fault_set.set_id,
                                 masks=[m.to_dict() for m in fault_set.masks],
                                 reason="exit")
        # Permanent faults (cycle 0) apply before execution resumes.
        while pending and pending[0].cycle <= sim.cycle:
            self._apply(sim, sites, pending.pop(0))

        all_transient = all(m.fault_type == TRANSIENT
                            for m in fault_set.masks)
        if early_stop and fault_set.single and all_transient:
            mask = fault_set.masks[0]
            site = sites[mask.structure]
            # Early-stop rule (i): fault in an invalid/unused entry.
            # (Checked at injection time; for faults still pending we
            # check when they fire, below.)
            watch_site = site

        try:
            with contained(guard, watchdog_s):
                outcome = self._drive(sim, sites, pending, budget, record,
                                      watch_site, early_stop, deadline,
                                      check_every)
        except InvariantViolation as exc:
            # Guard invariant tripped on the faulty machine: Assert,
            # with the failing invariant's name and cycle on record.
            record.invariant = exc.invariant
            return self._finish(record, "assert", sim, detail=str(exc))
        except SimAssertError as exc:
            return self._finish(record, "assert", sim, detail=str(exc))
        except KernelPanic as exc:
            return self._finish(record, "panic", sim, detail=str(exc))
        except ProcessKilled as exc:
            return self._finish(record, "killed", sim, signal=exc.signal,
                                detail=str(exc))
        except ProcessExit as exc:
            record.exit_code = exc.code
            return self._finish(record, "exit", sim)
        except SimCrashError as exc:
            return self._finish(record, "sim-crash", sim, detail=str(exc))
        except WatchdogTimeout as exc:
            # Hard deadline fired *inside* one sim.step(): Timeout.
            return self._finish(record, "wall-clock", sim,
                                detail=f"watchdog: {exc}")
        except OpBudgetExceeded as exc:
            return self._finish(record, "op-budget", sim, detail=str(exc))
        except (IndexError, KeyError, ValueError, ZeroDivisionError,
                OverflowError, TypeError, AttributeError,
                MemoryError, RecursionError, StopIteration) as exc:
            # The simulator itself died on corrupted state (gem5-style
            # sparse checking): Crash (simulator).  MemoryError/
            # RecursionError/StopIteration are real outcomes of wild
            # faulty state and must not kill the campaign loop.
            return self._finish(record, "sim-crash", sim,
                                detail=f"{type(exc).__name__}: {exc}")
        except CampaignError:
            raise                  # campaign configuration error, not a
                                   # faulty-machine outcome
        except Exception as exc:
            if not guard.containment:
                raise
            return self._finish(record, "sim-crash", sim,
                                detail=f"contained {type(exc).__name__}: "
                                       f"{exc}")
        return self._finish(record, outcome, sim)

    def _drive(self, sim, sites, pending, budget, record, watch_site,
               early_stop, deadline=None, check_every=0) -> str:
        """Step the machine to completion; returns a timeout reason."""
        watch = None
        while True:
            # Deadline granularity: the mask-apply/watch half of the
            # loop can be slow on corrupted state, so the wall-clock
            # budget is checked at the top as well as after the step.
            if deadline is not None and time.perf_counter() > deadline:
                return "wall-clock"
            if pending and sim.cycle >= pending[0].cycle:
                mask = pending.pop(0)
                applied = self._apply(sim, sites, mask)
                if watch_site is not None:
                    if not applied:
                        record.early_stop = "invalid-entry"
                        record.injected = False
                        return "exit"  # guaranteed masked
                    watch = watch_site.array.watch_entry(mask.entry,
                                                         mask.bit)
            sim.step()
            if watch is not None and watch.event is not None:
                if watch.event == "overwritten":
                    record.early_stop = "overwritten"
                    return "exit"  # guaranteed masked
                watch = None  # read: fault consumed; must run to the end
            if check_every and sim.cycle % check_every == 0:
                check_invariants(sim)
            if sim.cycle - sim.last_commit_cycle > self.deadlock_window:
                return "deadlock"
            if sim.cycle > budget:
                return "cycle-limit"
            if deadline is not None and time.perf_counter() > deadline:
                return "wall-clock"

    def _apply(self, sim, sites, mask) -> bool:
        """Apply one mask; returns False for rule-(i) dead entries."""
        site = sites[mask.structure]
        if mask.fault_type == TRANSIENT:
            if not site.live(mask.entry):
                return False
            site.array.flip(mask.entry, mask.bit)
            return True
        if mask.fault_type == PERMANENT:
            site.array.set_stuck(mask.entry, mask.bit, mask.stuck_value,
                                 start=0)
            return True
        if mask.fault_type == INTERMITTENT:
            site.array.set_stuck(mask.entry, mask.bit, mask.stuck_value,
                                 start=mask.cycle,
                                 end=mask.cycle + mask.duration)
            return True
        raise CampaignError(f"unknown fault type {mask.fault_type!r}")

    def _finish(self, record: InjectionRecord, reason: str, sim,
                signal=None, detail="") -> InjectionRecord:
        record.reason = reason
        record.signal = signal
        record.detail = detail
        record.cycles = sim.cycle
        record.output_hex = bytes(sim.kernel.output).hex()
        record.events = list(sim.kernel.events)
        if reason == "exit" and record.exit_code is None and \
                record.early_stop is not None:
            # Early-stopped: the run is masked by construction; report
            # the golden behaviour as its outcome.
            record.exit_code = self.golden.exit_code
            record.output_hex = self.golden.output_hex
            record.events = list(self.golden.events)
        wall_s = time.perf_counter() - self._inject_t0
        if reason in ("wall-clock", "op-budget"):
            # Timeout runs carry their real elapsed time; deterministic
            # outcomes stay wall-time-free so records remain replayable
            # byte-for-byte.
            record.elapsed_s = round(wall_s, 6)
        integrity_checks = 0
        if self._integrity is not None:
            integrity_checks = self._integrity.checks - self._checks_base
        if record.early_stop is not None:
            self.tracer.emit("early_stop", set_id=record.set_id,
                             reason=record.early_stop, cycle=record.cycles)
        self.emit_inject_end(record, wall_s, self._restore_cycle,
                             self._restore_s, integrity_checks)
        return record

    def emit_inject_end(self, record: InjectionRecord, wall_s: float = 0.0,
                        restore_cycle: int = 0, restore_s: float = 0.0,
                        integrity_checks: int = 0) -> None:
        """Emit ``inject_end``, the one measurement of an injection run
        (a pool worker's crash record takes the defaults)."""
        self.tracer.emit("inject_end", set_id=record.set_id,
                         reason=record.reason, early_stop=record.early_stop,
                         invariant=record.invariant, cycles=record.cycles,
                         sim_cycles=max(record.cycles - restore_cycle, 0),
                         saved_cycles=restore_cycle, wall_s=wall_s,
                         restore_s=restore_s,
                         integrity_checks=integrity_checks)
