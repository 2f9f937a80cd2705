"""CI gate for the pruner's soundness contract.

Runs a small campaign through the CLI with ``--prune analyze`` and an
audit sample, and fails unless (i) the audit re-simulated pruned masks
with zero classification divergences and an intact pristine digest,
(ii) the campaign actually pruned something, and (iii) the pruned
classification equals the same campaign with pruning off.  Usage:

    PYTHONPATH=src python scripts/ci_prune_audit.py [workdir]
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CELL = ["MaFIN-x86", "qsort", "l1d"]
ARGS = ["--injections", "24", "--seed", "7", "--json"]
CLI = [sys.executable, "-m", "repro.tools", "campaign"]


def run_campaign_cli(extra: list) -> dict:
    proc = subprocess.run([*CLI, *CELL, *ARGS, *extra],
                          capture_output=True, text=True)
    assert proc.returncode == 0, \
        f"campaign exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout)


def main() -> None:
    work = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="prune-ci-"))
    cache = work / "traces"

    baseline = run_campaign_cli(["--prune", "off"])
    pruned = run_campaign_cli(["--prune", "analyze", "--audit", "8",
                               "--trace-cache", str(cache)])

    assert pruned["counts"] == baseline["counts"], \
        f"pruning changed the classification:\n{pruned['counts']}\n" \
        f"vs\n{baseline['counts']}"

    stats = pruned["prune"]
    assert stats is not None, "--prune analyze produced no prune stats"
    n_pruned = stats["masked"]
    rate = n_pruned / stats["masks"]
    assert n_pruned > 0, f"campaign pruned nothing: {stats}"
    assert stats["simulated"] + n_pruned == stats["masks"], stats

    audit = stats["audit"]
    assert audit["checked"] > 0, "audit re-simulated nothing"
    assert not audit["divergences"], \
        f"prune audit diverged: {audit['divergences']}"
    assert audit["pristine_digest_ok"], \
        "pristine state digest changed across the audit"

    # Second run must hit the trace cache and agree bit-for-bit.
    again = run_campaign_cli(["--prune", "analyze", "--audit", "8",
                              "--trace-cache", str(cache)])
    assert again["prune"]["trace_source"] == "cache", \
        f"expected a trace cache hit, got {again['prune']['trace_source']}"
    assert again["prune"]["trace_digest"] == stats["trace_digest"], \
        "cached trace digest diverged from the recorded one"
    assert again["counts"] == pruned["counts"]

    print(f"prune audit OK: {n_pruned}/{stats['masks']} masks pruned "
          f"({100 * rate:.0f}%), audit {audit['checked']} re-simulated, "
          f"0 divergences, trace cache hit verified")


if __name__ == "__main__":
    main()
