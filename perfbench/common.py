"""Helpers shared by the cell and study workloads."""

from __future__ import annotations

import hashlib
import json


class ListSink:
    """``repro.obs`` trace sink keeping event dicts in memory."""

    def __init__(self):
        self.rows: list[dict] = []

    def write(self, event) -> None:
        self.rows.append(event.to_dict())

    def close(self) -> None:
        pass


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_fingerprint(golden: dict) -> str:
    """Digest of a golden reference dict; independent of the seed."""
    return sha256_text(json.dumps(golden, sort_keys=True))


def event_stats(rows) -> dict:
    """What the program's own event stream says about one round.

    ``inject_end`` carries each simulated run's cycles and host time,
    ``golden_end`` each golden run's.
    """
    out = {"injections": 0, "sim_cycles": 0, "saved_cycles": 0,
           "inject_s": 0.0, "early_stops": 0, "golden_runs": 0,
           "golden_cycles": 0, "golden_s": 0.0}
    for row in rows:
        name = row["name"]
        if name == "inject_end":
            out["injections"] += 1
            out["sim_cycles"] += row["sim_cycles"]
            out["saved_cycles"] += row["saved_cycles"]
            out["inject_s"] += row["wall_s"]
            if row.get("early_stop") is not None:
                out["early_stops"] += 1
        elif name == "golden_end":
            out["golden_runs"] += 1
            out["golden_cycles"] += row["cycles"]
            out["golden_s"] += row["wall_s"]
    return out
