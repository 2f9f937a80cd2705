"""Fault-effect classes and raw injection records.

The six classes of §III.A — Masked, SDC, DUE, Timeout, Crash, Assert —
plus the sub-classes the paper mentions (true/false DUE; process, system
and simulator crashes; deadlock vs livelock timeouts).  Raw records keep
every observable so the Parser can be reconfigured without re-running a
campaign.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

MASKED = "Masked"
SDC = "SDC"
DUE = "DUE"
TIMEOUT = "Timeout"
CRASH = "Crash"
ASSERT = "Assert"

CLASSES = (MASKED, SDC, DUE, TIMEOUT, CRASH, ASSERT)

# Sub-classes recorded in the logs (classification granularity is the
# Parser's business; see §III.B's re-grouping examples).
SUB_TRUE_DUE = "true-DUE"
SUB_FALSE_DUE = "false-DUE"
SUB_CRASH_PROCESS = "process"
SUB_CRASH_SYSTEM = "system"
SUB_CRASH_SIMULATOR = "simulator"
SUB_TIMEOUT_DEADLOCK = "deadlock"
SUB_TIMEOUT_LIVELOCK = "livelock"


@dataclass
class GoldenReference:
    """Fault-free reference behaviour of one (setup, benchmark) pair."""

    cycles: int
    exit_code: int | None
    output_hex: str
    events: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "GoldenReference":
        return GoldenReference(**d)


@dataclass
class InjectionRecord:
    """Raw observables of one injection run (one log-repository row)."""

    set_id: int
    masks: list                      # list of FaultMask dicts
    reason: str                      # exit|killed|panic|deadlock|
                                     # cycle-limit|wall-clock|op-budget|
                                     # assert|sim-crash
    exit_code: int | None = None
    output_hex: str = ""
    events: list = field(default_factory=list)
    signal: str | None = None
    detail: str = ""
    cycles: int = 0
    early_stop: str | None = None    # "invalid-entry"|"overwritten"|None
    injected: bool = True            # False when early-stopped pre-run
    invariant: str | None = None     # guard invariant name on Asserts
    elapsed_s: float = 0.0           # wall time, Timeout-reason runs only
    pruned: str | None = None        # repro.prune provenance: "dead-entry"|
                                     # "write-before-read"|"never-read"|
                                     # None (really simulated)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "InjectionRecord":
        return InjectionRecord(**d)
