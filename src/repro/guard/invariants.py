"""Microarchitectural invariant checks (the Assert class, on demand).

gem5 leans on sparse internal assertions to surface corrupted state as
Assert-class outcomes; MARSS checks densely.  Our dense setups raise
:class:`~repro.errors.SimAssertError` from ``OoOCore.check``, but the
sparse (GeFIN-style) setups deliberately let corruption flow.  This
module is the middle ground the guard layer adds: a registry of cheap
structural invariants the dispatcher evaluates at a configurable cycle
cadence *on faulty runs only*, regardless of the setup's own checking
density.

Every check reads machine state through ``peek`` and plain attribute
reads, which no array observer hears, so evaluating an invariant can
never perturb the §III.B early-stop watch or the run itself.

A violation raises :class:`InvariantViolation` — a
:class:`~repro.errors.SimAssertError` subclass, so it lands in the
Assert class even on code paths that predate the guard — carrying the
invariant name and the cycle it tripped at; the dispatcher stamps both
into the injection record.
"""

from __future__ import annotations

from repro.errors import SimAssertError


class InvariantViolation(SimAssertError):
    """A guard invariant failed on a faulty machine."""

    def __init__(self, invariant: str, cycle: int, detail: str):
        super().__init__(
            f"invariant {invariant} violated at cycle {cycle}: {detail}")
        self.invariant = invariant
        self.cycle = cycle
        self.detail = detail


def _rob_age_order(sim):
    """ROB entries are age-ordered: seq strictly increases head→tail."""
    prev = None
    for e in sim.rob:
        if e.state not in (0, 1, 2):
            return f"entry seq {e.seq} has state {e.state!r}"
        if prev is not None and e.seq <= prev:
            return f"seq {e.seq} follows {prev}"
        prev = e.seq
    return None


def _rename_disjoint(sim):
    """Free list holds no duplicates and no currently-mapped registers."""
    free = sim.free_list
    nregs = sim.prf.entries
    fs = set(free)
    if len(fs) != len(free):
        return "duplicate physical register in free list"
    for tag in fs:
        if not 0 <= tag < nregs:
            return f"free-list tag {tag} outside 0..{nregs - 1}"
    for label, table in (("map", sim.map),
                         ("committed map", sim.committed_map)):
        for tag in table:
            if not 0 <= tag < nregs:
                return f"{label} tag {tag} outside 0..{nregs - 1}"
        overlap = fs.intersection(table)
        if overlap:
            return (f"free list overlaps {label}: "
                    f"{sorted(overlap)[:4]}")
    return None


def _cache_sanity(sim):
    """Tag/LRU/dirty-line sanity across all three cache levels."""
    for c in (sim.l1i, sim.l1d, sim.l2):
        for set_idx in range(c.sets):
            order = c.lru[set_idx]
            if sorted(order) != list(range(c.assoc)):
                return f"{c.name} set {set_idx} LRU is not a permutation"
            seen = {}
            for way in range(c.assoc):
                line = c.line_index(set_idx, way)
                word = c.tags.peek(line)
                valid = bool(word & c._valid_bit)
                dirty = bool(word & c._dirty_bit)
                if dirty and not valid:
                    return f"{c.name} line {line} dirty but invalid"
                if dirty and c.mirror:
                    return f"{c.name} line {line} dirty in mirror mode"
                if valid:
                    tag = word & (c._valid_bit - 1)
                    if tag in seen:
                        return (f"{c.name} set {set_idx} ways "
                                f"{seen[tag]}/{way} share tag {tag:#x}")
                    seen[tag] = way
    return None


def _lsq_age_order(sim):
    """LSQ entries are age-ordered and back-linked to live ROB entries."""
    prev = None
    for e in sim.lsq:
        if prev is not None and e.seq <= prev:
            return f"seq {e.seq} follows {prev}"
        prev = e.seq
        if e.rob is None or e.rob.lsq is not e:
            return f"seq {e.seq} has a broken ROB back-link"
    return None


def _iq_wakeup(sim):
    """IQ occupancy bookkeeping and wakeup index are self-consistent."""
    iq = sim.iq
    n_valid = sum(iq.valid)
    if iq.count != n_valid:
        return f"count {iq.count} != {n_valid} valid slots"
    free = iq.free
    fs = set(free)
    if len(fs) != len(free):
        return "duplicate slot in free stack"
    for idx in fs:
        if not 0 <= idx < iq.size:
            return f"free slot {idx} outside 0..{iq.size - 1}"
        if iq.valid[idx]:
            return f"slot {idx} is both free and valid"
    if len(fs) + n_valid != iq.size:
        return (f"{len(fs)} free + {n_valid} valid != {iq.size} slots")
    for tag, slots in iq.waiters.items():
        for idx in slots:
            if not 0 <= idx < iq.size:
                return (f"wakeup index for tag {tag} names slot {idx} "
                        f"outside 0..{iq.size - 1}")
    return None


#: The registry, in evaluation order (cheapest first).  Each entry is
#: ``(name, check)``; a check returns ``None`` or a detail string.
INVARIANTS = (
    ("rob-age-order", _rob_age_order),
    ("lsq-age-order", _lsq_age_order),
    ("iq-wakeup-consistency", _iq_wakeup),
    ("rename-freelist-disjoint", _rename_disjoint),
    ("cache-tag-sanity", _cache_sanity),
)


def check_invariants(sim) -> None:
    """Evaluate every registered invariant; raise on the first failure."""
    for name, check in INVARIANTS:
        detail = check(sim)
        if detail is not None:
            raise InvariantViolation(name, sim.cycle, detail)
