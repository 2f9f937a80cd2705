"""Study specification and campaign plan — the sched unit of work.

A :class:`StudySpec` names the axes of a full study — setups ×
benchmarks × structures × fault models — plus the per-cell campaign
parameters.  :class:`CampaignPlan` expands the spec into addressable
:class:`WorkUnit`\\ s, one per grid cell, each with a stable ``unit_id``
and a deterministic per-unit seed.  Everything downstream — the
journal, the scheduler, sharding, merging — speaks unit ids.

Sharding is a pure function of the unit id (CRC-32 mod *n*), so *n*
independent hosts can each run ``plan.shard(i, n)`` against their own
journal and the shards are guaranteed disjoint and collectively
exhaustive without any coordination.

Per-cell injection counts come from :mod:`repro.core.sampling` when
``injections`` is None: each unit's worker sizes its campaign from the
structure's fault population (bits × golden cycles) at the spec's
confidence/error margin, exactly like ``FaultMaskGenerator.generate``.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, fields
from functools import lru_cache

from repro.core.fault import FAULT_TYPES, TRANSIENT


@lru_cache(maxsize=None)
def structure_names(setup: str) -> tuple[str, ...]:
    """The injectable structure names of *setup*, without a golden run.

    Builds one throwaway machine (cheap — construction only, no
    simulation) and enumerates its fault sites; cached per setup so
    service-boundary validation costs nothing after the first call.
    """
    from repro.bench import suite
    from repro.core.dispatcher import build_sim
    from repro.sim.config import setup_config
    config = setup_config(setup)
    program = suite.program("sha", config.isa, 1)
    return tuple(sorted(build_sim(program, config).fault_sites()))


def shard_of(unit_id: str, shards: int) -> int:
    """Deterministic shard index of a unit id (stable across hosts)."""
    if shards <= 0:
        raise ValueError("shard count must be positive")
    return zlib.crc32(unit_id.encode()) % shards


@dataclass(frozen=True)
class WorkUnit:
    """One addressable cell of a study: a campaign the scheduler leases."""

    setup: str
    benchmark: str
    structure: str
    fault_type: str = TRANSIENT

    @property
    def unit_id(self) -> str:
        return (f"{self.setup}/{self.benchmark}/{self.structure}/"
                f"{self.fault_type}")

    @property
    def file_id(self) -> str:
        """Filesystem-safe unit id (log/event file names)."""
        return self.unit_id.replace("/", "__")

    def seed(self, study_seed: int) -> int:
        """Deterministic per-unit mask seed derived from the study seed.

        Stable across processes and hosts (CRC-32, not Python's
        randomized ``hash``), and distinct per unit so no two cells
        replay the same mask stream.
        """
        return (study_seed * 1_000_003
                + zlib.crc32(self.unit_id.encode())) & 0x7FFFFFFF

    def masks(self, spec: "StudySpec", info, total_cycles: int) -> list:
        """The unit's deterministic mask stream over a golden run of
        *total_cycles* cycles of structure *info*.

        Exactly the masks ``run_unit``'s campaign draws: both go
        through :func:`~repro.core.campaign.draw_masks` with the unit's
        seed and fault model and the spec's sampling knobs, so
        attestation can re-derive a remote unit's masks file from the
        spec alone.
        """
        from repro.core.campaign import draw_masks
        return draw_masks(info, total_cycles, self.seed(spec.seed),
                          self.fault_type, spec.injections,
                          spec.confidence, spec.error_margin)

    def to_dict(self) -> dict:
        return {"setup": self.setup, "benchmark": self.benchmark,
                "structure": self.structure, "fault_type": self.fault_type}

    @staticmethod
    def from_dict(d: dict) -> "WorkUnit":
        return WorkUnit(**d)

    @staticmethod
    def from_id(unit_id: str) -> "WorkUnit":
        parts = unit_id.split("/")
        if len(parts) != 4:
            raise ValueError(f"malformed unit id {unit_id!r}")
        return WorkUnit(*parts)


@dataclass(frozen=True)
class StudySpec:
    """The axes and campaign parameters of one full study."""

    setups: tuple = ()
    benchmarks: tuple = ()
    structures: tuple = ()
    fault_types: tuple = (TRANSIENT,)
    injections: int | None = None      # None -> sized by core.sampling
    confidence: float = 0.99
    error_margin: float = 0.03
    seed: int = 1
    early_stop: bool = True
    scaled: bool = True
    scale: int = 1
    n_checkpoints: int = 10
    timeout_s: float | None = None     # per-injection wall-clock budget
    guard: str = "off"                 # repro.guard preset for every unit
    prune: str = "off"                 # repro.prune policy for every unit

    def __post_init__(self):
        for name in ("setups", "benchmarks", "structures", "fault_types"):
            value = getattr(self, name)
            if isinstance(value, (str, bytes)):
                # tuple("sha") silently becomes ('s','h','a') — the
                # classic malformed-grid submission.  Refuse it here so
                # no code path can expand a one-string axis into junk.
                raise ValueError(
                    f"study spec field {name!r} must be a list of names, "
                    f"got the bare string {value!r} — wrap it in a list")
            object.__setattr__(self, name, tuple(value))

    def validate(self) -> None:
        for name in ("setups", "benchmarks", "structures", "fault_types"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"study spec has no {name}")
            for v in values:
                if not isinstance(v, str) or not v:
                    raise ValueError(
                        f"study spec field {name!r} must contain "
                        f"non-empty strings, got {v!r}")
            if len(set(values)) != len(values):
                dupes = sorted({v for v in values if values.count(v) > 1})
                raise ValueError(f"study spec field {name!r} lists "
                                 f"{', '.join(dupes)} more than once")
        for ft in self.fault_types:
            if ft not in FAULT_TYPES:
                raise ValueError(f"unknown fault type {ft!r}; "
                                 f"choose from {list(FAULT_TYPES)}")
        if self.injections is not None:
            if not isinstance(self.injections, int) \
                    or isinstance(self.injections, bool):
                raise ValueError(f"injections must be an integer, "
                                 f"got {self.injections!r}")
            if self.injections <= 0:
                raise ValueError("injections must be positive")
        for name, lo, hi in (("confidence", 0.0, 1.0),
                             ("error_margin", 0.0, 1.0)):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or not lo < value < hi:
                raise ValueError(f"{name} must be a number strictly "
                                 f"between {lo} and {hi}, got {value!r}")
        for name, minimum in (("seed", 0), ("scale", 1),
                              ("n_checkpoints", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise ValueError(f"{name} must be an integer >= "
                                 f"{minimum}, got {value!r}")
        if self.timeout_s is not None:
            if not isinstance(self.timeout_s, (int, float)) \
                    or isinstance(self.timeout_s, bool) \
                    or self.timeout_s <= 0:
                raise ValueError(f"timeout_s must be a positive number "
                                 f"or null, got {self.timeout_s!r}")
        for name in ("early_stop", "scaled"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean, got "
                                 f"{getattr(self, name)!r}")
        from repro.guard import PRESETS
        if self.guard not in PRESETS:
            raise ValueError(f"unknown guard preset {self.guard!r}; "
                             f"choose from {sorted(PRESETS)}")
        from repro.prune import PRUNE_POLICIES
        if self.prune not in PRUNE_POLICIES:
            raise ValueError(f"unknown prune policy {self.prune!r}; "
                             f"choose from {PRUNE_POLICIES}")

    def validate_grid(self) -> None:
        """Resolve every axis name against the real registries.

        The service boundary's half of validation: :meth:`validate`
        checks shape and ranges cheaply, this checks that every named
        setup, benchmark and structure actually exists — so an HTTP
        submission with a typo'd grid is a 400 with the valid choices
        spelled out, not three retries and a quarantined unit.
        """
        from repro.bench.suite import BENCHMARKS
        from repro.sim.config import CONFIG_SETUPS
        for s in self.setups:
            if s not in CONFIG_SETUPS:
                raise ValueError(f"unknown setup {s!r}; "
                                 f"choose from {list(CONFIG_SETUPS)}")
        for b in self.benchmarks:
            if b not in BENCHMARKS:
                raise ValueError(f"unknown benchmark {b!r}; "
                                 f"choose from {list(BENCHMARKS)}")
        for s in self.setups:
            known = structure_names(s)
            for st in self.structures:
                if st not in known:
                    raise ValueError(
                        f"setup {s!r} has no structure {st!r}; "
                        f"available: {', '.join(known)}")

    @classmethod
    def parse(cls, d: dict) -> "StudySpec":
        """Strict service-boundary constructor for untrusted dicts.

        Unknown fields, bare-string axes, out-of-range numbers and
        unresolvable grid names all raise ``ValueError`` with the valid
        choices — HTTP submission makes bad input routine, so every
        rejection must say what to fix.
        """
        if not isinstance(d, dict):
            raise ValueError(f"study spec must be a JSON object, "
                             f"got {type(d).__name__}")
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - valid)
        if unknown:
            raise ValueError(
                f"unknown study-spec field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(valid))}")
        try:
            spec = cls.from_dict(d)
        except TypeError as exc:
            raise ValueError(f"malformed study spec: {exc}") from None
        spec.validate()
        spec.validate_grid()
        return spec

    def to_dict(self) -> dict:
        return {
            "setups": list(self.setups),
            "benchmarks": list(self.benchmarks),
            "structures": list(self.structures),
            "fault_types": list(self.fault_types),
            "injections": self.injections,
            "confidence": self.confidence,
            "error_margin": self.error_margin,
            "seed": self.seed,
            "early_stop": self.early_stop,
            "scaled": self.scaled,
            "scale": self.scale,
            "n_checkpoints": self.n_checkpoints,
            "timeout_s": self.timeout_s,
            "guard": self.guard,
            "prune": self.prune,
        }

    @staticmethod
    def from_dict(d: dict) -> "StudySpec":
        d = dict(d)
        for name in ("setups", "benchmarks", "structures", "fault_types"):
            # Leave bare strings alone so __post_init__ rejects them
            # with the wrap-it-in-a-list message instead of exploding
            # "sha" into ('s', 'h', 'a').
            if name in d and not isinstance(d[name], (str, bytes)):
                d[name] = tuple(d[name])
        return StudySpec(**d)

    @property
    def spec_hash(self) -> str:
        """Stable digest of the spec — journals refuse to mix studies."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


class CampaignPlan:
    """A spec expanded into work units, optionally restricted to a shard.

    Units are ordered with structure and fault type outermost and the
    (setup, benchmark) pair innermost, so the first |setups| ×
    |benchmarks| units are distinct pairs.  The scheduler and the
    service lease in plan order and cache one golden blob per pair: a
    pair's second unit is leased only after every pair has started, by
    which time its first unit has usually cached the blob to adopt.
    Ids, seeds and shards depend on the unit alone, never on its rank.
    """

    def __init__(self, spec: StudySpec, units=None, shard=None):
        spec.validate()
        self.spec = spec
        self.shard_id = shard          # (index, count) or None
        if units is None:
            units = [WorkUnit(s, b, st, ft)
                     for st in spec.structures
                     for ft in spec.fault_types
                     for s in spec.setups
                     for b in spec.benchmarks]
        self.units: list[WorkUnit] = list(units)

    @classmethod
    def from_spec(cls, spec: StudySpec) -> "CampaignPlan":
        return cls(spec)

    def shard(self, index: int, count: int) -> "CampaignPlan":
        """The sub-plan this shard is responsible for (disjoint by id)."""
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} out of range 0..{count - 1}")
        units = [u for u in self.units
                 if shard_of(u.unit_id, count) == index]
        return CampaignPlan(self.spec, units=units, shard=(index, count))

    def unit(self, unit_id: str) -> WorkUnit:
        for u in self.units:
            if u.unit_id == unit_id:
                return u
        raise KeyError(unit_id)

    def unit_ids(self) -> list[str]:
        return [u.unit_id for u in self.units]

    def grid_ids(self) -> list[str]:
        """Every unit id of the *full* (unsharded) grid."""
        return [u.unit_id for u in CampaignPlan(self.spec).units]

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)


# Re-exported convenience: build a spec with keyword overrides.
def study_spec(**kwargs) -> StudySpec:
    """Keyword-style :class:`StudySpec` constructor (CLI plumbing)."""
    return StudySpec(**kwargs)


__all__ = ["CampaignPlan", "StudySpec", "WorkUnit", "shard_of",
           "structure_names", "study_spec"]
