"""Cross-run contamination defense: digest, detect, condemn, rebuild.

The dispatcher reuses one machine per campaign and restores it in place
from shared state blobs (PR 2).  If a wild faulty run — or a snapshot
engine bug — mutates an object reachable from the pristine state or a
checkpoint, every later run silently starts from corrupted "golden"
state and the campaign's classifications drift.  The verifier closes
that hole:

* :func:`state_digest` computes a stable structural SHA-256 over a
  ``OoOCore.snapshot()`` blob (cycle-safe over the ROB/LSQ entry graph,
  identity-free, insensitive to shared-immutable aliasing);
* :meth:`IntegrityVerifier.seal` runs once after ``run_golden()`` /
  ``adopt_golden()``: it keeps the dispatcher's golden blob — the
  compressed pickle of the pristine state and every checkpoint that a
  pool or a study also ships — as its **vault**, serialized before the
  first restore.  The expected digests are taken
  from the vault, not from the live stores a faulty run may have
  touched, the first time a verify is due, and then kept; a campaign
  that never reaches the cadence digests nothing;
* at a configurable cadence the dispatcher re-digests the restored
  machine and compares against the sealed digest of the restore source;
  on drift the machine is **condemned** — a fresh machine is built, the
  stores are reinstalled from the vault, a ``guard.contamination``
  event/counter is emitted, and the affected record is re-run from
  clean state.  A second drift right after a rebuild is unexplainable
  and raises :class:`~repro.errors.CampaignError`.

Chaos hook (tests/CI only): ``REPRO_GUARD_CHAOS="leak:N"`` corrupts the
stored pristine and checkpoint states just before the *N*-th restore —
the deliberate state leak the contamination drill uses to prove the
condemn → rebuild → re-run path keeps classifications byte-identical to
a clean campaign.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import zlib

from repro.core.checkpoint import CheckpointStore
from repro.errors import CampaignError

# Mutable memo caches on shared-immutable decode objects: excluded from
# digests so a later run lazily building one (an Instr's dispatch plan,
# Instr.plan) cannot read as contamination of an older sealed state.
_TYPED_ATTRS = {
    "Instr": ("mnemonic", "length", "raw", "is_branch", "is_call",
              "is_ret", "is_indirect", "is_cond", "target"),
    "UOp": ("kind", "op", "rd", "rs1", "rs2", "imm", "size"),
}


def _object_attrs(obj) -> list:
    names = set()
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        names.update((slots,) if isinstance(slots, str) else slots)
    if hasattr(obj, "__dict__"):
        names.update(obj.__dict__)
    return sorted(n for n in names if not n.startswith("__"))


def _feed(h, obj, memo: dict) -> None:
    t = type(obj)
    if obj is None:
        h.update(b"N;")
    elif t is bool:
        h.update(b"T;" if obj else b"F;")
    elif t is int:
        h.update(b"i%d;" % obj)
    elif t is float:
        h.update(("f%r;" % obj).encode())
    elif t is str:
        raw = obj.encode()
        h.update(b"s%d:" % len(raw))
        h.update(raw)
    elif t is bytes:
        h.update(b"b%d:" % len(obj))
        h.update(obj)
    elif t is bytearray:
        h.update(b"B%d:" % len(obj))
        h.update(bytes(obj))
    elif t is list or t is tuple:
        h.update(b"l%d:" % len(obj))
        for item in obj:
            _feed(h, item, memo)
    elif t is dict:
        h.update(b"d%d:" % len(obj))
        try:
            items = sorted(obj.items())
        except TypeError:
            items = list(obj.items())
        for k, v in items:
            _feed(h, k, memo)
            _feed(h, v, memo)
    elif t is set or t is frozenset:
        h.update(b"e%d:" % len(obj))
        for item in sorted(obj):
            _feed(h, item, memo)
    else:
        # Graph node (RobEntry, LsqEntry, StuckBit, faults...): walk the
        # instance attributes; break cycles with a traversal-order memo
        # so structurally equal graphs digest equal regardless of ids.
        key = id(obj)
        if key in memo:
            h.update(b"r%d;" % memo[key])
            return
        memo[key] = len(memo)
        cls = t.__name__
        h.update(("O%s:" % cls).encode())
        attrs = _TYPED_ATTRS.get(cls)
        if attrs is None:
            attrs = _object_attrs(obj)
        for name in attrs:
            h.update(name.encode() + b"=")
            _feed(h, getattr(obj, name, None), memo)


def state_digest(state: dict) -> str:
    """Stable hex digest of one machine snapshot blob."""
    h = hashlib.sha256()
    _feed(h, state, {})
    return h.hexdigest()


class IntegrityVerifier:
    """Sealed vault + digests for one dispatcher's golden stores."""

    def __init__(self, every: int):
        self.every = max(int(every), 0)
        self.checks = 0            # digests actually computed
        self.contaminations = 0    # condemn/rebuild incidents
        self._digests: dict | None = None  # source cycle -> digest
        self._restores = 0
        self._vault: bytes | None = None

    def seal(self, vault: bytes) -> None:
        """Keep *vault*, a golden blob
        (:func:`repro.core.parallel.build_golden_payload`), as the
        rebuild source; its digests are derived on demand."""
        self._digests = None
        self._vault = vault

    @property
    def sealed(self) -> bool:
        return self._vault is not None

    def due(self) -> bool:
        """Cadence gate; call once per restore."""
        if not self.every:
            return False
        self._restores += 1
        return self._restores % self.every == 0

    def _unvault(self) -> dict:
        if self._vault is None:
            raise CampaignError("integrity verifier was never sealed")
        return pickle.loads(zlib.decompress(self._vault))

    def _sealed_digests(self) -> dict:
        """Source cycle -> digest of the vaulted state, computed once."""
        if self._digests is None:
            payload = self._unvault()
            states = [payload["pristine"],
                      *(state for _, state in payload["snapshots"])]
            self._digests = {state["cycle"]: state_digest(state)
                             for state in states}
        return self._digests

    def verify(self, sim) -> bool:
        """Digest the restored machine against its sealed source."""
        expected = self._sealed_digests().get(sim.cycle)
        if expected is None:       # restore source unknown: nothing sealed
            return True
        self.checks += 1
        return state_digest(sim.snapshot()) == expected

    def rebuild(self):
        """Clean (pristine, CheckpointStore) pair from the vault."""
        payload = self._unvault()
        self.contaminations += 1
        store = CheckpointStore.from_snapshots(
            payload["snapshots"], interval=payload["interval"],
            max_snaps=payload["max_snaps"])
        return payload["pristine"], store


def chaos_leak_due(n_restores: int) -> bool:
    """True when ``REPRO_GUARD_CHAOS="leak:N"`` targets this restore."""
    directive = os.environ.get("REPRO_GUARD_CHAOS", "")
    if not directive.startswith("leak"):
        return False
    _, _, bound = directive.partition(":")
    try:
        n = int(bound) if bound else 1
    except ValueError:
        return False
    return n_restores == n


def chaos_leak(pristine: dict, checkpoints: CheckpointStore) -> None:
    """Deliberately corrupt the stored golden states (tests/CI only).

    Flips the first byte of the memory image in the pristine state and
    every checkpoint, emulating a faulty run's mutation leaking into the
    shared stores.  ``Memory.snapshot()`` returns ``(pages, perms)`` —
    a tuple of immutable bytes pages, so the tuple is replaced in place
    in each state dict, exactly the aliased-container mutation the
    verifier is built to catch.
    """
    for state in (pristine, *checkpoints.states):
        (first, *rest), perms = state["mem"]
        state["mem"] = ((bytes([first[0] ^ 0xFF]) + first[1:], *rest),
                        perms)
