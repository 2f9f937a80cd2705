"""CI gate for the campaign service's end-to-end contract.

Starts ``repro.tools svc serve`` as a real subprocess, submits two
studies over HTTP, SIGTERM-kills the service once the first unit
lands, restarts it over the same root, streams both
``/events`` NDJSON feeds to their deterministic ``study_complete``
terminator, renders both study reports (plain-text endpoint + HTML
file), and fails unless

* every accepted unit finished exactly once (no unit lost, none run
  twice — counted straight from the per-study sched journals),
* each study's resumed tally/injection totals equal what
  ``repro.tools sched status --json`` reads from the same study
  directory, and
* the restarted fleet's cross-study golden cache recorded at least one
  hit (both studies target the same setup × benchmark).

Usage::

    PYTHONPATH=src python scripts/ci_svc_e2e.py [workdir]
"""

import json
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

CLI = [sys.executable, "-m", "repro.tools", "svc", "serve"]
READY_RE = re.compile(r"http://([\d.]+):(\d+)/status")

# Both studies target MaFIN-x86 × sha so the second study's golden
# state must come from the fleet's cross-study cache, not a re-run.
SPECS = {
    "alice": {"setups": ["MaFIN-x86"], "benchmarks": ["sha"],
              "structures": ["int_rf", "l1d"], "injections": 3,
              "seed": 11, "n_checkpoints": 2},
    "bob": {"setups": ["MaFIN-x86"], "benchmarks": ["sha"],
            "structures": ["l1i", "lsq"], "injections": 3,
            "seed": 13, "n_checkpoints": 2},
}


def start_service(root: Path) -> tuple[subprocess.Popen, str]:
    """Launch ``svc serve`` on an ephemeral port; return (proc, url)."""
    proc = subprocess.Popen(
        [*CLI, "--root", str(root), "--port", "0", "--workers", "1"],
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = READY_RE.search(line)
    assert match, f"no ready line from svc serve, got {line!r}"
    return proc, f"http://{match.group(1)}:{match.group(2)}"


def http(url: str, method: str = "GET", payload=None, timeout_s=60):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(req, timeout=timeout_s) as resp:
        return json.loads(resp.read())


def stream_events(url: str) -> dict:
    """Read one /events NDJSON stream to EOF; return the terminator."""
    with urllib.request.urlopen(url, timeout=300) as resp:
        lines = [json.loads(ln) for ln in resp.read().splitlines()]
    assert lines, f"empty event stream from {url}"
    final = lines[-1]
    assert final["name"] == "study_complete", final
    return final


def wait_first_done(root: Path, deadline_s: float = 180.0) -> None:
    """Block until any study journal records its first finished unit."""
    deadline = time.time() + deadline_s
    studies = root / "studies"
    while time.time() < deadline:
        for journal in studies.glob("*/journal.jsonl"):
            if '"done"' in journal.read_text():
                return
        time.sleep(0.05)
    sys.exit("no unit finished before the kill deadline")


def done_counts(journal: Path) -> dict:
    """unit id -> number of DONE records in one study's sched journal."""
    counts: dict = {}
    for line in journal.read_text().splitlines():
        row = json.loads(line)
        if row.get("state") == "done" and "unit" in row:
            counts[row["unit"]] = counts.get(row["unit"], 0) + 1
    return counts


def sched_status(study_dir: Path) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "repro.tools", "sched", "status",
         str(study_dir), "--json"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="svc-ci-"))

    proc, url = start_service(root)
    ids = {}
    for tenant, spec in SPECS.items():
        body = http(f"{url}/studies", "POST",
                    {"tenant": tenant, "spec": spec})
        ids[tenant] = body["id"]
        print(f"accepted {body['id']} for {tenant}")

    # Kill the whole service the moment the first unit completes —
    # the rest must survive as journal state only.
    wait_first_done(root)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 130, "svc serve should exit 130"
    pending = sum(
        len(json.loads((root / "studies" / sid / "journal.jsonl")
                       .read_text().splitlines()[0])["units"])
        - sum(done_counts(root / "studies" / sid / "journal.jsonl")
              .values())
        for sid in ids.values())
    print(f"service killed mid-run ({pending} units still pending)")
    assert pending >= 2, "kill landed too late to exercise resume"

    # Restart over the same root: both studies must resume losslessly
    # and run to completion; streaming /events blocks until they do.
    proc, url = start_service(root)
    try:
        for tenant, sid in ids.items():
            final = stream_events(f"{url}/studies/{sid}/events")
            assert final["complete"] and final["state"] == "done", final

            journal = root / "studies" / sid / "journal.jsonl"
            per_unit = done_counts(journal)
            snap = sched_status(root / "studies" / sid)
            assert set(per_unit) == {c["unit"] for c in snap["cells"]}, \
                f"{sid}: lost units {snap['tally']}"
            assert all(n == 1 for n in per_unit.values()), \
                f"{sid}: unit run twice: {per_unit}"

            row = http(f"{url}/studies/{sid}/status")
            for key in ("injections_done", "units"):
                assert row[key] == snap[key], \
                    f"{sid}.{key}: service {row[key]!r} != " \
                    f"sched status {snap[key]!r}"
            # The service tally counts units/done/quarantined/pending;
            # sched status breaks pending into pending/leased/failed.
            for key in ("done", "quarantined", "pending"):
                assert row["tally"][key] == snap["tally"][key], \
                    f"{sid}.tally.{key}: service {row['tally']!r} != " \
                    f"sched status {snap['tally']!r}"
            assert final["tally"] == snap["tally"], final
            print(f"{sid} ({tenant}): resumed totals match "
                  f"sched status --json: {row['tally']}")

            report = urllib.request.urlopen(
                f"{url}/studies/{sid}/report", timeout=60).read()
            assert b"outcome" in report.lower(), "empty service report"
            html_out = root / f"report-{sid}.html"
            subprocess.run(
                [sys.executable, "-m", "repro.tools", "obs", "report",
                 "--study-dir", str(root / "studies" / sid),
                 "--out", str(html_out)],
                check=True)
            assert html_out.stat().st_size > 1024, "HTML report too small"

        status = http(f"{url}/status")
        assert status["studies"].get("done") == len(ids), status["studies"]
        cache = status["golden_cache"]
        assert cache["hits"] >= 1, \
            f"no cross-study golden cache hit after resume: {cache}"
        print(f"golden cache after resume: {cache['hits']} hits / "
              f"{cache['misses']} misses over {cache['entries']} entries")
    finally:
        proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60) == 130
    print("svc e2e: submit, kill, resume, stream, report — all good")


if __name__ == "__main__":
    main()
