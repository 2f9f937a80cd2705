"""Campaign pruning: golden-trace pre-classification (ROADMAP item 2;
docs/performance.md "Campaign pruning").

``repro.prune`` decides mask outcomes *before* simulation wherever the
golden run's access trace proves them: dead entries, bits overwritten
before their next read, bits never read again — all Masked by analysis.
The two policies (``off`` / ``analyze``) thread through
``run_campaign``, the parallel pool, ``StudySpec.prune`` and the CLI;
audit mode re-simulates a seeded sample of pruned masks so the speedup
never rests on an unchecked assumption.
"""

from repro.prune.cache import TraceCache
from repro.prune.classify import (PRUNE_ANALYZE, PRUNE_OFF, PRUNE_POLICIES,
                                  PRUNE_RULES, RULE_DEAD, RULE_NEVER_READ,
                                  RULE_OVERWRITTEN, PrunePlan, audit_plan,
                                  build_prune_plan, classify_mask,
                                  synthetic_masked_record)
from repro.prune.trace import (PRUNE_STRUCTURES, AccessTrace,
                               StructureTrace, TraceRecorder, pack_event)

__all__ = [
    "AccessTrace", "PrunePlan", "StructureTrace", "TraceCache",
    "TraceRecorder", "PRUNE_ANALYZE", "PRUNE_OFF", "PRUNE_POLICIES",
    "PRUNE_RULES", "PRUNE_STRUCTURES", "RULE_DEAD", "RULE_NEVER_READ",
    "RULE_OVERWRITTEN", "audit_plan", "build_prune_plan", "classify_mask",
    "pack_event", "synthetic_masked_record",
]
