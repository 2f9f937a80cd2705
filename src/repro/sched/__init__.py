"""repro.sched — durable campaign orchestration above the campaign stack.

The paper's 300 000-injection study ran for a month on ten
workstations; this package is the layer that makes such a study
operable: a :class:`StudySpec` expands into an addressable
:class:`CampaignPlan` (setups × benchmarks × structures × fault
models), a write-ahead journal makes every unit state transition
durable, and :class:`StudyRun` holds the one unit policy — write-ahead
leases, bounded exponential-backoff retries, poison-unit quarantine
and lossless replay of a prior journal.  Two loops run it: the
:class:`Scheduler` leases one study's units to local worker processes
with per-unit wall-clock timeouts, and :mod:`repro.svc` multiplexes
many studies onto one fleet.  Kill a study at any point — SIGTERM,
SIGKILL, power loss — and ``sched resume`` continues from the journal
without re-running completed units or re-injecting completed masks.
``--shard i/n`` splits one study across hosts deterministically, and
:func:`merge_studies` folds shard journals back into one result.

CLI: ``python -m repro.tools sched run | resume | status | merge``
(see docs/scheduler.md).
"""

from repro.sched.journal import (DONE, FAILED, LEASED, PENDING, QUARANTINED,
                                 Journal, JournalState, load_journal)
from repro.sched.plan import (CampaignPlan, StudySpec, WorkUnit, shard_of,
                              structure_names, study_spec)
from repro.sched.pool import Lease, LeasePool
from repro.sched.scheduler import (Scheduler, StudyResult, merge_studies,
                                   run_study, study_status)
from repro.sched.study import CellOutcome, GoldenCache, StudyRun
from repro.sched.worker import run_unit

__all__ = [
    "CampaignPlan", "StudySpec", "WorkUnit", "shard_of",
    "structure_names", "study_spec",
    "Journal", "JournalState", "load_journal",
    "PENDING", "LEASED", "DONE", "FAILED", "QUARANTINED",
    "Lease", "LeasePool",
    "Scheduler", "StudyResult", "CellOutcome", "StudyRun", "GoldenCache",
    "run_study", "run_unit", "study_status", "merge_studies",
]
