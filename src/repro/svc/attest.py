"""Trust layer between the remote fleet and the study journals.

PR 8's fleet ingests worker-shipped record files verbatim; one buggy,
misversioned, or adversarial host could silently skew the SDC/DUE rates
of every study it touches.  This module makes the differential
methodology hold at distributed scale by *enforcing* record integrity
instead of presuming it:

* :func:`validate_complete` — semantic ingest validation of a
  ``POST /fleet/complete`` body: record counts must match the unit
  plan, every record's mask line must match the mask stream the server
  regenerates itself from the unit's deterministic seed (the
  "mask-stream integrity digest"), classifications must be legal
  values, and the shipped golden observables must match the golden the
  service has already seen for that (setup, benchmark) family.
  Violations raise :class:`RejectedComplete` with a machine-readable
  code (the HTTP layer maps it to 422).
* :func:`execute_challenge` — the determinism challenge: a small
  canned unit a worker must execute at registration, returning
  byte-identical logs/masks text and a matching pristine
  ``state_digest``, catching version skew and non-deterministic hosts
  before they are admitted to the lease pool.
* :class:`Attestor` — scorecards per worker (completes / rejects /
  divergences / heartbeat misses), the sampled re-execution audit
  queue (the ``prune.audit_plan`` idiom: a seeded RNG picks k% of
  remote completions for local re-execution and byte-for-byte diff),
  and the automatic-distrust policy that feeds ``svc fleet``.

The server-side mask regeneration is cheap by design: structure
geometry comes from a constructed (never stepped) simulator, exactly
like ``sched.plan.structure_names``, so validation costs JSON parsing
plus RNG replay — no simulation.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from functools import lru_cache
from pathlib import Path

from repro.core.ioutil import read_jsonl
from repro.core.maskgen import StructureInfo
from repro.core.outcome import GoldenReference
from repro.core.parser import classify_all
from repro.core.repository import decode_logs_row
from repro.obs.metrics import MetricsRegistry
from repro.sched.plan import StudySpec, WorkUnit

#: Legal values of ``InjectionRecord.reason`` — anything else in a
#: shipped record is a liar or a version-skewed worker.
REASONS = frozenset({
    "exit", "killed", "panic", "deadlock", "cycle-limit", "wall-clock",
    "op-budget", "assert", "sim-crash",
})

#: The canned determinism-challenge unit: small enough to run in
#: seconds, wide enough (golden run + mask generation + classification)
#: to catch version skew anywhere in the record-producing path.
CHALLENGE_WIRE = {
    "unit": {"setup": "MaFIN-x86", "benchmark": "sha",
             "structure": "int_rf", "fault_type": "transient"},
    "spec": {"setups": ["MaFIN-x86"], "benchmarks": ["sha"],
             "structures": ["int_rf"], "injections": 2, "seed": 20257,
             "n_checkpoints": 1, "early_stop": False},
}


class RejectedComplete(Exception):
    """A ``/fleet/complete`` body failed semantic ingest validation."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.worker: str | None = None   # filled in by the fleet
        self.unit: str | None = None
        self.distrusted = False          # True when this reject tripped
                                         # the worker over reject_limit


class WorkerDistrusted(Exception):
    """The worker failed attestation and may not hold leases."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"worker {name} distrusted: {reason}")
        self.name = name
        self.reason = reason


class ChallengePending(Exception):
    """The worker registered but has not passed its challenge yet."""

    def __init__(self, name: str):
        super().__init__(f"worker {name} has not completed its "
                         f"determinism challenge")
        self.name = name


@lru_cache(maxsize=None)
def structure_geometry(setup: str, scaled: bool) -> dict:
    """name -> (entries, bits_per_entry) for every injectable structure.

    Same cheap-machine idiom as ``sched.plan.structure_names``: the
    dispatcher builds its fault-site map in the constructor, so geometry
    is available without running a single simulated cycle.
    """
    from repro.bench import suite
    from repro.core.dispatcher import build_sim
    from repro.sim.config import setup_config

    config = setup_config(setup, scaled=scaled)
    program = suite.program("sha", config.isa, 1)
    sim = build_sim(program, config)
    return {name: (site.array.entries, site.array.bits_per_entry)
            for name, site in sim.fault_sites().items()}


def canonical_masks_text(unit: WorkUnit, spec: StudySpec,
                         total_cycles: int) -> str:
    """Regenerate the unit's deterministic mask stream, serialized
    exactly as ``MasksRepository`` writes it — the reference against
    which a shipped masks file is byte-compared."""
    geometry = structure_geometry(unit.setup, spec.scaled)
    if unit.structure not in geometry:
        raise RejectedComplete(
            "mask-stream",
            f"{unit.setup} has no structure {unit.structure!r}")
    entries, bits = geometry[unit.structure]
    sets = unit.masks(spec, StructureInfo(unit.structure, entries, bits),
                      total_cycles)
    return "".join(json.dumps(fs.to_dict()) + "\n" for fs in sets)


def _parse_logs(logs_text: str):
    """(golden, records ordered by file position) from shipped logs text."""
    golden = None
    records = []
    for n, line in enumerate(logs_text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RejectedComplete("malformed-logs",
                                   f"logs line {n}: {exc}") from exc
        try:
            item = decode_logs_row(row)
        except (ValueError, AttributeError) as exc:
            raise RejectedComplete("malformed-logs",
                                   f"logs line {n}: {exc}") from exc
        if isinstance(item, GoldenReference):
            golden = item
        else:
            records.append(item)
    return golden, records


def validate_complete(unit: WorkUnit, spec: StudySpec, result: dict,
                      logs_text: str, masks_text: str,
                      expect_golden: dict | None = None) -> dict:
    """Semantically validate one remote completion.

    Raises :class:`RejectedComplete` with one of the machine-readable
    codes ``malformed-logs``, ``missing-golden``, ``golden-mismatch``,
    ``record-count``, ``bad-classification`` or ``mask-stream``;
    returns ``{"golden": <dict>, "counts": <recomputed counts>}`` on
    success so the caller can register the golden for the family.
    """
    golden, records = _parse_logs(logs_text)
    if golden is None:
        raise RejectedComplete("missing-golden",
                               "logs carry no golden reference row")
    if expect_golden is not None and golden.to_dict() != expect_golden:
        raise RejectedComplete(
            "golden-mismatch",
            f"golden observables for {unit.setup}/{unit.benchmark} "
            f"diverge from the service's reference (cycles "
            f"{golden.cycles} vs {expect_golden['cycles']}, output "
            f"{golden.output_hex!r} vs {expect_golden['output_hex']!r})")

    # --- record counts must match the unit plan ----------------------
    claimed = result.get("injections")
    if len(records) != claimed:
        raise RejectedComplete(
            "record-count",
            f"logs hold {len(records)} records but the result claims "
            f"{claimed}")
    if spec.injections is not None and len(records) != spec.injections:
        raise RejectedComplete(
            "record-count",
            f"unit plan requires {spec.injections} injections, logs "
            f"hold {len(records)}")
    set_ids = sorted(rec.set_id for rec in records)
    if set_ids != list(range(len(records))):
        raise RejectedComplete(
            "record-count",
            f"set_ids are not exactly 0..{len(records) - 1}: "
            f"{set_ids[:8]}{'...' if len(set_ids) > 8 else ''}")

    # --- classifications must be legal and self-consistent -----------
    for rec in records:
        if rec.reason not in REASONS:
            raise RejectedComplete(
                "bad-classification",
                f"set {rec.set_id} has illegal reason {rec.reason!r}")
    counts = classify_all(records, golden)
    if result.get("counts") != counts:
        raise RejectedComplete(
            "bad-classification",
            f"claimed counts {result.get('counts')!r} != counts "
            f"recomputed from the records {counts!r}")

    # --- the mask-stream integrity digest ----------------------------
    expected = canonical_masks_text(unit, spec, golden.cycles)
    got = hashlib.sha256(masks_text.encode()).hexdigest()
    want = hashlib.sha256(expected.encode()).hexdigest()
    if got != want:
        raise RejectedComplete(
            "mask-stream",
            f"masks digest {got[:12]} != {want[:12]} regenerated from "
            f"seed {unit.seed(spec.seed)}")
    by_set = {}
    for line in expected.splitlines():
        row = json.loads(line)
        by_set[row["set_id"]] = row["masks"]
    for rec in records:
        if rec.masks != by_set.get(rec.set_id):
            raise RejectedComplete(
                "mask-stream",
                f"record {rec.set_id} does not carry the masks of its "
                f"own fault set")
    return {"golden": golden.to_dict(), "counts": counts}


# -- the determinism challenge ----------------------------------------

#: Heartbeat allowance for a worker that is still *executing* its
#: determinism challenge.  The agent is single-threaded: while the
#: canned unit runs it cannot heartbeat, and it holds no leases, so the
#: ordinary miss budget would evict every slow-but-honest host before
#: it could submit a proof.
CHALLENGE_GRACE_S = 300.0

_PROOF_MEMO: dict = {}


def execute_challenge(wire: dict, workdir) -> dict:
    """Run the challenge unit into *workdir* and return the proof.

    Used by both sides of the handshake: the worker agent executes the
    unit the server sent, the server executes the same wire once to
    compute its expectation.  The proof is the verbatim logs/masks text
    plus the pristine-snapshot ``state_digest`` — byte-identical on
    every honest, version-matched host.
    """
    from repro.bench import suite
    from repro.core.dispatcher import InjectorDispatcher
    from repro.guard.integrity import state_digest
    from repro.sched.worker import run_unit
    from repro.sim.config import setup_config

    # The proof depends only on the wire (the files are deterministic
    # wherever they are written), so one execution serves every caller
    # in the process — the service's expectation, re-registrations, and
    # every test that needs a proof.
    memo_key = json.dumps(wire, sort_keys=True)
    if memo_key in _PROOF_MEMO:
        return _PROOF_MEMO[memo_key]

    unit = WorkUnit.from_dict(wire["unit"])
    spec = StudySpec.parse(wire["spec"])
    workdir = Path(workdir)
    logs = workdir / "challenge-logs.jsonl"
    masks = workdir / "challenge-masks.jsonl"
    for path in (logs, masks):
        path.unlink(missing_ok=True)
    run_unit(unit, spec, logs_path=logs, masks_path=masks, fsync=False)

    config = setup_config(unit.setup, scaled=spec.scaled)
    program = suite.program(unit.benchmark, config.isa, spec.scale)
    dispatcher = InjectorDispatcher(config, program,
                                    n_checkpoints=spec.n_checkpoints)
    dispatcher.run_golden()
    proof = {"logs": logs.read_text(), "masks": masks.read_text(),
             "state_digest": state_digest(dispatcher._pristine)}
    _PROOF_MEMO[memo_key] = proof
    return proof


# -- scorecards, audit sampling, distrust -----------------------------

class WorkerScorecard:
    """Trust ledger of one remote worker."""

    __slots__ = ("name", "completes", "rejects", "divergences", "misses",
                 "challenges_failed", "challenged_ok", "distrusted",
                 "reason")

    def __init__(self, name: str):
        self.name = name
        self.completes = 0
        self.rejects = 0
        self.divergences = 0
        self.misses = 0
        self.challenges_failed = 0
        self.challenged_ok = False
        self.distrusted = False
        self.reason: str | None = None

    def state(self, challenge_enabled: bool) -> str:
        if self.distrusted:
            return "distrusted"
        if challenge_enabled and not self.challenged_ok:
            return "pending-challenge"
        return "ok"

    def to_dict(self, challenge_enabled: bool = False) -> dict:
        return {"state": self.state(challenge_enabled),
                "completes": self.completes, "rejects": self.rejects,
                "divergences": self.divergences, "misses": self.misses,
                "challenges_failed": self.challenges_failed,
                "reason": self.reason}


class AuditTicket:
    """One remotely-completed unit sampled for local re-execution."""

    __slots__ = ("study_id", "unit", "spec", "worker", "attempt",
                 "logs_digest", "masks_digest")

    def __init__(self, study_id: str, unit: WorkUnit, spec: StudySpec,
                 worker: str, attempt: int, logs_digest: str,
                 masks_digest: str):
        self.study_id = study_id
        self.unit = unit
        self.spec = spec
        self.worker = worker
        self.attempt = attempt
        self.logs_digest = logs_digest
        self.masks_digest = masks_digest


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Attestor:
    """Scorecards + ingest validation + audit sampling + distrust."""

    def __init__(self, *, metrics: MetricsRegistry | None = None,
                 audit_fraction: float = 0.0, audit_seed: int = 0,
                 reject_limit: int = 3, challenge: bool = False,
                 challenge_dir=None):
        if not 0.0 <= audit_fraction <= 1.0:
            raise ValueError("audit_fraction must be in [0, 1]")
        if reject_limit < 1:
            raise ValueError("reject_limit must be >= 1")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.audit_fraction = audit_fraction
        self.reject_limit = reject_limit
        self.challenge_enabled = challenge
        self.challenge_dir = challenge_dir
        self.scorecards: dict[str, WorkerScorecard] = {}
        self.audit_queue: deque = deque()
        # Same idiom as prune.audit_plan: one seeded RNG decides which
        # completions get re-executed, so a CI run samples the same
        # units every time.
        self._audit_rng = random.Random(audit_seed)
        self._golden_seen: dict = {}
        self._challenge_expect: dict | None = None

    # -- scorecards ---------------------------------------------------

    def scorecard(self, name: str) -> WorkerScorecard:
        card = self.scorecards.get(name)
        if card is None:
            card = self.scorecards[name] = WorkerScorecard(name)
        return card

    def distrust(self, name: str, reason: str) -> None:
        card = self.scorecard(name)
        if card.distrusted:
            return
        card.distrusted = True
        card.reason = reason
        self.metrics.counter("svc.attest.distrusted").inc()

    def note_miss(self, name: str) -> None:
        self.scorecard(name).misses += 1

    def challenge_pending(self, name: str) -> bool:
        """True while *name* is registered but has not proven itself —
        the window in which it is busy running the challenge and cannot
        heartbeat (see :data:`CHALLENGE_GRACE_S`)."""
        card = self.scorecards.get(name)
        return (self.challenge_enabled and card is not None
                and not card.distrusted and not card.challenged_ok)

    # -- admission ----------------------------------------------------

    def register_gate(self, name: str) -> dict | None:
        """Gate ``/fleet/register``; returns the challenge wire (or
        ``None``) for the registration response."""
        card = self.scorecard(name)
        if card.distrusted:
            raise WorkerDistrusted(name, card.reason or "distrusted")
        if not self.challenge_enabled:
            return None
        # Re-registration must re-prove determinism: the worker may
        # have restarted on new code since it last passed.
        card.challenged_ok = False
        return CHALLENGE_WIRE

    def admit_gate(self, name: str) -> None:
        """Gate the lease pool: distrusted and unchallenged workers out."""
        card = self.scorecard(name)
        if card.distrusted:
            raise WorkerDistrusted(name, card.reason or "distrusted")
        if self.challenge_enabled and not card.challenged_ok:
            raise ChallengePending(name)

    def challenge_expectation(self) -> dict:
        if self._challenge_expect is None:
            if self.challenge_dir is None:
                raise RuntimeError("challenge_dir not configured")
            self._challenge_expect = execute_challenge(
                CHALLENGE_WIRE, self.challenge_dir)
        return self._challenge_expect

    def verify_challenge(self, name: str, logs_text: str,
                         masks_text: str, digest: str | None) -> bool:
        expect = self.challenge_expectation()
        card = self.scorecard(name)
        ok = (logs_text == expect["logs"]
              and masks_text == expect["masks"]
              and digest == expect["state_digest"])
        if ok:
            card.challenged_ok = True
            self.metrics.counter("svc.attest.challenges_passed").inc()
        else:
            card.challenges_failed += 1
            self.metrics.counter("svc.attest.challenges_failed").inc()
            self.distrust(name, "determinism challenge failed")
        return ok

    # -- ingest validation --------------------------------------------

    def golden_key(self, unit: WorkUnit, spec: StudySpec) -> tuple:
        return (unit.setup, unit.benchmark, spec.scaled, spec.scale,
                spec.n_checkpoints, spec.timeout_s, spec.guard,
                spec.prune)

    def check_complete(self, name: str, unit: WorkUnit, spec: StudySpec,
                       result: dict, logs_text: str,
                       masks_text: str) -> None:
        """Validate one remote completion; raises RejectedComplete."""
        card = self.scorecard(name)
        key = self.golden_key(unit, spec)
        try:
            info = validate_complete(unit, spec, result, logs_text,
                                     masks_text,
                                     expect_golden=self._golden_seen.get(key))
        except RejectedComplete as exc:
            card.rejects += 1
            self.metrics.counter("svc.attest.rejected").inc()
            exc.worker = name
            exc.unit = unit.unit_id
            if not card.distrusted and card.rejects >= self.reject_limit:
                self.distrust(name, f"{card.rejects} rejected completes")
                exc.distrusted = True
            raise
        self._golden_seen.setdefault(key, info["golden"])

    def observe_golden(self, unit: WorkUnit, spec: StudySpec,
                       logs_path) -> None:
        """Register the golden of a locally-executed unit as the
        authoritative reference for its family."""
        key = self.golden_key(unit, spec)
        if key in self._golden_seen:
            return
        try:
            items = [decode_logs_row(row) for row in read_jsonl(logs_path)]
        except (OSError, ValueError):
            return
        goldens = [item for item in items
                   if isinstance(item, GoldenReference)]
        if goldens:                    # last wins, like LogsRepository
            self._golden_seen[key] = goldens[-1].to_dict()

    # -- sampled re-execution audits ----------------------------------

    def note_complete(self, study_id: str, unit: WorkUnit,
                      spec: StudySpec, name: str, attempt: int,
                      logs_path, masks_path) -> AuditTicket | None:
        """Score an accepted remote completion; maybe sample an audit."""
        self.scorecard(name).completes += 1
        if self.audit_fraction <= 0.0:
            return None
        if self._audit_rng.random() >= self.audit_fraction:
            return None
        ticket = AuditTicket(study_id, unit, spec, name, attempt,
                             _file_digest(logs_path),
                             _file_digest(masks_path))
        self.audit_queue.append(ticket)
        self.metrics.counter("svc.attest.audits_sampled").inc()
        return ticket

    def judge_audit(self, ticket: AuditTicket, logs_path,
                    masks_path) -> bool:
        """Byte-compare a local re-execution against the shipped files."""
        match = (_file_digest(logs_path) == ticket.logs_digest
                 and _file_digest(masks_path) == ticket.masks_digest)
        if match:
            self.metrics.counter("svc.attest.audits_ok").inc()
        else:
            self.scorecard(ticket.worker).divergences += 1
            self.metrics.counter("svc.attest.audits_diverged").inc()
            self.distrust(ticket.worker,
                          f"audit divergence on {ticket.unit.unit_id}")
        return match

    # -- reporting ----------------------------------------------------

    def snapshot(self) -> dict:
        m = self.metrics
        return {
            "challenge": self.challenge_enabled,
            "audit_fraction": self.audit_fraction,
            "audit_queue": len(self.audit_queue),
            "rejected": m.counter_value("svc.attest.rejected"),
            "audits_sampled": m.counter_value("svc.attest.audits_sampled"),
            "audits_ok": m.counter_value("svc.attest.audits_ok"),
            "audits_diverged": m.counter_value("svc.attest.audits_diverged"),
            "audits_inconclusive":
                m.counter_value("svc.attest.audits_inconclusive"),
            "voided": m.counter_value("svc.attest.voided"),
            "distrusted": m.counter_value("svc.attest.distrusted"),
            "workers": {name: card.to_dict(self.challenge_enabled)
                        for name, card in sorted(self.scorecards.items())},
        }


__all__ = [
    "REASONS", "CHALLENGE_WIRE", "RejectedComplete", "WorkerDistrusted",
    "ChallengePending", "structure_geometry", "canonical_masks_text",
    "validate_complete", "execute_challenge", "WorkerScorecard",
    "AuditTicket", "Attestor",
]
