"""repro.guard — hardened injection execution.

The paper's Crash/Assert/DUE classes only mean something if the
*injector* survives whatever a corrupted machine does: MaFIN/GeFIN ran
300k injections where the faulty simulator could assert, hang, or wreck
shared state, and the campaign had to keep going with trustworthy
results.  This package is the hardening layer wrapped around the
dispatcher's injection loop:

``guard.invariants``
    Cheap microarchitectural invariants (ROB age order, rename
    free-list disjointness, cache tag/LRU sanity, LSQ age order, IQ
    wakeup consistency) evaluated at a cycle cadence on faulty runs —
    the moral equivalent of gem5's sparse internal assertions.  A
    violation classifies the run as **Assert** with the invariant name
    and cycle in the record.

``guard.containment``
    A ``contained()`` execution scope around the drive loop: widened
    crash capture (``MemoryError``/``RecursionError``/arbitrary
    ``Exception`` map to Crash, never propagate), a recursion ceiling,
    a per-run Python-op budget, and a SIGALRM watchdog so a hang
    *inside* one ``sim.step()`` still classifies as Timeout.

``guard.integrity``
    A compressed vault of pristine/checkpoint state sealed once after
    the golden run; restores are re-checked against stable digests of
    the vaulted states, taken when the first check is due.  On drift
    the machine is condemned and rebuilt from the vault, the incident
    surfaces as a ``guard.contamination`` event/counter, and the
    affected record is re-run from clean state.

All knobs live on :class:`GuardPolicy`; ``off``/``basic``/``strict``
presets surface on ``run_campaign``/``run_campaign_parallel``/
``repro.sched`` and the CLI (``repro.tools campaign --guard``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GuardPolicy:
    """Knobs of the hardening layer (see docs/robustness.md).

    ``invariant_every`` / ``integrity_every`` are cadences: check every
    N faulty cycles / every Nth restore.  ``op_budget`` counts Python
    call events inside one drive loop (a profile-hook budget; pure
    C-level spins are policed by the watchdog instead).  ``watchdog_s``
    is an absolute per-run hard deadline; when unset, containment arms
    the watchdog at twice the dispatcher's soft ``timeout_s`` so the
    cooperative between-steps check wins unless a single ``sim.step()``
    wedges.
    """

    name: str = "off"
    invariants: bool = False
    invariant_every: int = 256
    containment: bool = False
    recursion_limit: int | None = 20_000
    op_budget: int | None = None
    watchdog_s: float | None = None
    integrity_every: int = 0

    @property
    def enabled(self) -> bool:
        return bool(self.invariants or self.containment
                    or self.integrity_every)

    def watchdog_deadline(self, timeout_s: float | None) -> float | None:
        """Effective hard deadline for one injection run (seconds)."""
        if not self.containment:
            return None
        if self.watchdog_s is not None:
            return self.watchdog_s
        if timeout_s is not None:
            return timeout_s * 2
        return None

    @staticmethod
    def of(value) -> "GuardPolicy":
        """Coerce ``None`` / preset name / policy into a policy."""
        if value is None:
            return OFF
        if isinstance(value, GuardPolicy):
            return value
        if isinstance(value, str):
            try:
                return PRESETS[value]
            except KeyError:
                raise ValueError(
                    f"unknown guard preset {value!r}; "
                    f"choose from {sorted(PRESETS)}") from None
        raise TypeError(f"guard must be None, a preset name or a "
                        f"GuardPolicy, not {type(value).__name__}")


#: No hardening — the historical dispatcher behaviour (plus the
#: always-on widened crash-capture tuple; see dispatcher.inject).
OFF = GuardPolicy()

#: Cheap always-reasonable hardening: containment plus invariants at a
#: relaxed cadence and occasional integrity checks.
BASIC = GuardPolicy(name="basic", invariants=True, invariant_every=512,
                    containment=True, integrity_every=32)

#: Full paranoia: tight invariant cadence, an op budget, and an
#: integrity check after every restore.
STRICT = GuardPolicy(name="strict", invariants=True, invariant_every=128,
                     containment=True, op_budget=100_000_000,
                     integrity_every=1)

PRESETS = {"off": OFF, "basic": BASIC, "strict": STRICT}

from repro.guard.containment import (OpBudgetExceeded,  # noqa: E402
                                     WatchdogTimeout, contained)
from repro.guard.integrity import (IntegrityVerifier,  # noqa: E402
                                   state_digest)
from repro.guard.invariants import (INVARIANTS,  # noqa: E402
                                    InvariantViolation, check_invariants)

__all__ = [
    "BASIC", "GuardPolicy", "INVARIANTS", "IntegrityVerifier",
    "InvariantViolation", "OFF", "OpBudgetExceeded", "PRESETS", "STRICT",
    "WatchdogTimeout", "check_invariants", "contained", "state_digest",
]
