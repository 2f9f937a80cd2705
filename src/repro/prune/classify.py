"""Mask pre-classification against the golden access trace.

Given the planned mask set of a campaign and the golden run's
:class:`~repro.prune.trace.AccessTrace`, :func:`build_prune_plan`
decides, per fault set, one of two fates *before any simulation*:

**Masked by analysis** — the flip provably cannot change the run:

``dead-entry``
    the targeted line holds no live storage at the injection cycle
    (never filled, or invalidated and not refilled); the flip is a
    no-op on unobservable garbage.
``write-before-read``
    the next access to the entry after the flip is a write covering the
    flipped bit (whole-entry write, line fill, or a byte-range write
    over the bit's byte); the corruption is erased unread.
``never-read``
    no read of the entry ever follows the flip — the entry is only
    ever overwritten partially elsewhere, invalidated, or untouched
    until the program exits.

These are the static counterparts of the paper's §III.B *runtime*
early-stop rules: what the watch machinery discovers by simulating up
to the first access, the golden trace already knows.

**Simulated** — everything else, plus every multi-mask, intermittent or
permanent fault set (stuck-at faults interact with every access in
their window; only single transient flips are analyzable this way).

Pruned masks still yield full :class:`InjectionRecord`\\ s — carrying
the golden observables so the Parser classifies them through the
normal path — marked with the ``pruned`` provenance field.
:func:`audit_plan` is the empirical gate: it really simulates a seeded
sample of pruned masks, compares the Parser's verdicts, and
cross-checks the dispatcher's pristine state digest (the guard
integrity machinery) before and after, so a pruning bug or a
contaminated machine shows up as a divergence count, not a silently
wrong study.

Surviving masks are not collapsed into fault-equivalence classes:
under random sampling that saves under 1 % of the simulations
(docs/performance.md "Campaign pruning").
"""

from __future__ import annotations

import random
from bisect import bisect_left

from repro.core.fault import TRANSIENT, FaultSet
from repro.core.outcome import GoldenReference, InjectionRecord
from repro.core.parser import DEFAULT_POLICY, classify
from repro.prune.trace import (BYTE_MASK, CYCLE_SHIFT, FILL, HI_SHIFT,
                               INVALIDATE, KIND_MASK, LO_SHIFT, PARTIAL,
                               READ, WRITE, AccessTrace)

# Prune policies (StudySpec.prune / campaign --prune).
PRUNE_OFF = "off"
PRUNE_ANALYZE = "analyze"        # masked-by-analysis rules
PRUNE_POLICIES = (PRUNE_OFF, PRUNE_ANALYZE)

RULE_DEAD = "dead-entry"
RULE_OVERWRITTEN = "write-before-read"
RULE_NEVER_READ = "never-read"
PRUNE_RULES = (RULE_DEAD, RULE_OVERWRITTEN, RULE_NEVER_READ)


def classify_mask(struct_trace, entry: int, bit: int,
                  cycle: int) -> str | None:
    """One mask against one entry's golden events.

    Returns the :data:`PRUNE_RULES` name when the mask is provably
    Masked, else None.  The flip at cycle *c* lands after every event
    stamped ``<= c`` — the dispatcher applies masks on cycle edges.
    """
    if not struct_trace.filled_at(entry, cycle):
        return RULE_DEAD
    words = struct_trace.events_for(entry)
    byte = bit // 8
    for i in range(bisect_left(words, (cycle + 1) << CYCLE_SHIFT),
                   len(words)):
        word = words[i]
        kind = word & KIND_MASK
        if kind == READ:
            return None
        if kind == WRITE or kind == FILL:
            return RULE_OVERWRITTEN
        if kind == PARTIAL:
            if (word >> LO_SHIFT & BYTE_MASK) <= byte \
                    < (word >> HI_SHIFT & BYTE_MASK):
                return RULE_OVERWRITTEN
            continue                 # partial write elsewhere in the line
        if kind == INVALIDATE:
            # Invalidated unread: the corrupted storage is discarded.
            return RULE_NEVER_READ
    return RULE_NEVER_READ


class PrunePlan:
    """The pruner's verdict over one campaign's mask sets."""

    def __init__(self, policy: str, trace: AccessTrace):
        self.policy = policy
        self.trace = trace
        self.masked: dict[int, str] = {}        # set_id -> rule
        self.rules: dict[str, int] = {}
        self.by_structure: dict[str, dict] = {}
        self.masks_total = 0

    def decision(self, set_id: int):
        """``("masked", rule)`` or ``None`` (simulate it)."""
        rule = self.masked.get(set_id)
        return ("masked", rule) if rule is not None else None

    def stats(self) -> dict:
        return {
            "policy": self.policy,
            "masks": self.masks_total,
            "masked": len(self.masked),
            "simulated": self.masks_total - len(self.masked),
            "rules": dict(sorted(self.rules.items())),
            "by_structure": {
                name: dict(d) for name, d
                in sorted(self.by_structure.items())},
            "trace_digest": self.trace.digest,
            "trace_events": self.trace.n_events,
        }


def build_prune_plan(sets, trace: AccessTrace,
                     policy: str) -> PrunePlan:
    """Classify every fault set against the golden access trace."""
    if policy not in PRUNE_POLICIES:
        raise ValueError(f"unknown prune policy {policy!r}; "
                         f"choose from {PRUNE_POLICIES}")
    plan = PrunePlan(policy, trace)
    plan.masks_total = len(sets)
    if policy == PRUNE_OFF:
        return plan
    for fs in sets:
        if not fs.single:
            continue
        mask = fs.masks[0]
        st = trace.structures.get(mask.structure)
        if st is None or mask.fault_type != TRANSIENT:
            continue
        per = plan.by_structure.setdefault(
            mask.structure, {"masks": 0, "pruned": 0})
        per["masks"] += 1
        rule = classify_mask(st, mask.entry, mask.bit, mask.cycle)
        if rule is not None:
            plan.masked[fs.set_id] = rule
            plan.rules[rule] = plan.rules.get(rule, 0) + 1
            per["pruned"] += 1
    return plan


# -- synthetic records -----------------------------------------------------

def synthetic_masked_record(fault_set: FaultSet, golden: GoldenReference,
                            rule: str) -> InjectionRecord:
    """A Masked-by-analysis record carrying the golden observables."""
    return InjectionRecord(
        set_id=fault_set.set_id,
        masks=[m.to_dict() for m in fault_set.masks],
        reason="exit",
        exit_code=golden.exit_code,
        output_hex=golden.output_hex,
        events=list(golden.events),
        cycles=golden.cycles,
        injected=False,
        pruned=rule)


# -- the empirical gate ----------------------------------------------------

def audit_plan(dispatcher, sets_by_id: dict, records_by_id: dict,
               plan: PrunePlan, golden: GoldenReference, count: int,
               seed: int, early_stop: bool = True,
               policy=DEFAULT_POLICY) -> dict:
    """Really simulate a seeded sample of pruned masks and compare.

    Every sampled set is injected through the normal dispatcher path;
    its Parser verdict must match the synthetic record's.  The
    dispatcher's pristine-state digest (guard integrity machinery) is
    taken before and after, so audit disagreement caused by golden-state
    contamination is distinguishable from a pruning bug.
    """
    from repro.guard.integrity import state_digest

    candidates = sorted(plan.masked)
    rng = random.Random(seed)
    n = min(count, len(candidates))
    sample = sorted(rng.sample(candidates, n)) if n else []
    digest_before = state_digest(dispatcher._pristine)
    divergences = []
    for set_id in sample:
        actual = dispatcher.inject(sets_by_id[set_id],
                                   early_stop=early_stop)
        expected_cls = classify(records_by_id[set_id], golden, policy)
        actual_cls = classify(actual, golden, policy)
        if actual_cls != expected_cls:
            divergences.append({
                "set_id": set_id,
                "rule": plan.masked[set_id],
                "expected": expected_cls,
                "actual": actual_cls,
                "reason": actual.reason,
                "early_stop": actual.early_stop,
            })
    digest_after = state_digest(dispatcher._pristine)
    return {
        "checked": len(sample),
        "candidates": len(candidates),
        "divergences": divergences,
        "pristine_digest_ok": digest_before == digest_after,
    }
