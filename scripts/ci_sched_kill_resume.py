"""CI gate for the scheduler's durability contract.

Runs a tiny two-shard study, SIGTERMs shard 0 mid-flight, resumes it,
merges both shards, and fails unless the merged classification equals
an uninterrupted run of the same spec.  A second drill SIGKILLs only
the scheduler of an unsharded run after its first unit lands, leaving
its unit workers orphaned mid-unit, and resumes at once: the study must
pass ``fsck`` (no duplicate set ids from two writers of one unit's
logs) and classify like the uninterrupted run.  Usage:

    PYTHONPATH=src python scripts/ci_sched_kill_resume.py [workdir]
"""

import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sched import (DONE, StudySpec, load_journal, merge_studies,
                         run_study)
from repro.svc.fsck import fsck_study

# int_rf + l1i split 2/2 under CRC-32 mod 2 for these setups.
SPEC = StudySpec(setups=("MaFIN-x86", "GeFIN-x86"), benchmarks=("sha",),
                 structures=("int_rf", "l1i"), injections=6, seed=7)
CLI = [sys.executable, "-m", "repro.tools", "sched"]
RUN_ARGS = ["--benchmarks", "sha", "--structures", "int_rf", "l1i",
            "--injections", "6", "--seed", "7", "--workers", "1"]


def run_shard_killed(study: Path) -> None:
    """Start shard 0, SIGTERM it once its first unit lands, resume it."""
    proc = subprocess.Popen([*CLI, "run", "--out", str(study),
                             "--shard", "0/2", *RUN_ARGS])
    journal = study / "journal.jsonl"
    deadline = time.time() + 120
    while time.time() < deadline:
        if journal.exists() and '"done"' in journal.read_text():
            break
        time.sleep(0.05)
    else:
        proc.kill()
        sys.exit("shard 0 never completed a unit")
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=60)
    print(f"shard 0 killed mid-flight (exit {rc})")
    if rc != 0:                          # 0 means it won the race
        assert rc == 130, f"expected exit 130 after SIGTERM, got {rc}"
        rc = subprocess.run([*CLI, "resume", str(study),
                             "--workers", "1"]).returncode
        assert rc == 0, f"resume failed with exit {rc}"
        print("shard 0 resumed to completion")
    state = load_journal(journal)
    assert state.tally()[DONE] == len(state.unit_ids), state.tally()


def run_scheduler_sigkilled(study: Path, baseline) -> None:
    """SIGKILL only the scheduler after its first ``done``, resume at
    once, then fsck the study and compare it with the baseline."""
    # Two workers, so a second unit is mid-flight at the kill (the
    # later --workers wins).
    proc = subprocess.Popen([*CLI, "run", "--out", str(study), *RUN_ARGS,
                             "--workers", "2"])
    journal = study / "journal.jsonl"
    deadline = time.time() + 120
    while not (journal.exists() and '"done"' in journal.read_text()):
        if time.time() > deadline:
            proc.kill()
            sys.exit("the scheduler never completed a unit")
        time.sleep(0.05)
    proc.kill()                    # SIGKILL to the scheduler, not its group
    proc.wait(timeout=60)
    rc = subprocess.run([*CLI, "resume", str(study),
                         "--workers", "2"]).returncode
    assert rc == 0, f"resume after SIGKILL failed with exit {rc}"
    findings = fsck_study(study)
    assert not findings, f"fsck findings after SIGKILL: {findings}"
    rc = subprocess.run([sys.executable, "-m", "repro.tools", "fsck",
                         str(study)]).returncode
    assert rc == 0, f"fsck exited {rc}"
    merged = merge_studies([study])
    assert merged["complete"], f"merge incomplete: {merged['missing']}"
    assert merged["units"] == baseline.classifications(), \
        f"per-unit mismatch:\n{merged['units']}\nvs\n" \
        f"{baseline.classifications()}"
    print("scheduler SIGKILL and resume equals uninterrupted run:",
          merged["totals"])


def main() -> None:
    work = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="sched-ci-"))
    baseline = run_study(SPEC, work / "baseline", workers=2)
    assert baseline.ok, "uninterrupted baseline study failed"

    run_shard_killed(work / "shard0")
    rc = subprocess.run([*CLI, "run", "--out", str(work / "shard1"),
                         "--shard", "1/2", *RUN_ARGS]).returncode
    assert rc == 0, f"shard 1 failed with exit {rc}"

    merged = merge_studies([work / "shard0", work / "shard1"])
    assert merged["complete"], f"merge incomplete: {merged['missing']}"
    assert merged["units"] == baseline.classifications(), \
        f"per-unit mismatch:\n{merged['units']}\nvs\n" \
        f"{baseline.classifications()}"
    assert merged["totals"] == baseline.totals(), \
        f"totals mismatch: {merged['totals']} vs {baseline.totals()}"
    print("kill-and-resume merge equals uninterrupted run:",
          merged["totals"])

    run_scheduler_sigkilled(work / "sigkill", baseline)


if __name__ == "__main__":
    main()
