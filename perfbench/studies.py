"""Study workloads: one whole study grid per round, through sched or svc.

``study-sched`` starts ``repro.tools sched run`` (journal fsync on) as a
fresh process per round; ``study-svc-remote`` starts ``svc serve
--workers 0`` plus two ``svc worker --workers 1`` processes per round,
POSTs the same spec and follows ``/events`` to ``study_complete``.  A
fresh service per round keeps the cross-study golden cache from making
later rounds cheaper than the first.  Both paths must produce the same
record files for the same spec, so they share one set of references.

Everything per unit is read back from what the program writes anyway:
``journal.jsonl`` (leases, completions, unit wall times), ``events.jsonl``
(golden and injection runs) and the ``logs/`` and ``masks/`` files.
"""

from __future__ import annotations

import hashlib
import json
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import spans
from common import event_stats, golden_fingerprint, sha256_text

HOST = str(Path(__file__).resolve().parent / "host.py")

#: The grid of one round: both simulator families and both ISAs, two
#: benchmarks, three structures -- 12 units over 4 (setup, benchmark)
#: pairs.  Most masks are pruned, so per-unit fixed costs (process
#: spawn, golden runs and their shipping, the fsync'd journal) are a
#: large share; pruning and the basic guard run here and nowhere else.
GRID = {"setups": ["MaFIN-x86", "GeFIN-ARM"],
        "benchmarks": ["sha", "qsort"],
        "structures": ["int_rf", "l1d", "l2"],
        "injections": 4, "prune": "analyze", "guard": "basic"}
WORKERS = 2
TIMEOUT_S = 120.0


class StudyFailed(RuntimeError):
    """A study round could not be run to its end."""


def round_spec(seed: int, index: int) -> dict:
    return {**GRID, "seed": seed * 1000 + index}


class StudyWorkload:
    """Rounds of one study path; inputs depend only on (seed, index)."""

    workers = WORKERS

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed

    def run_round(self, index: int, work: Path, traced: bool = False) -> dict:
        """One study in the empty directory *work*."""
        spec = round_spec(self.seed, index)
        probe_dir, span_dir = work / "probes", work / "spans"
        probe_dir.mkdir()
        host = [sys.executable, HOST, "--probe", str(probe_dir)]
        if traced:
            span_dir.mkdir()
            host += ["--spans", str(span_dir)]
        log = work / "children.log"
        try:
            if self.name == "study-sched":
                study_dir, timing = _sched(host, spec, work / "study", log)
            else:
                study_dir, timing = _svc(host, spec, work / "service", log)
        except StudyFailed as exc:
            # The work directory goes when the run ends; keep the story.
            raise StudyFailed(f"{exc}; its processes said:\n"
                              f"{log.read_text()[-3000:]}") from None
        units = [[float(x) for x in line.split()]
                 for path in probe_dir.glob("*.txt")
                 for line in path.read_text().splitlines()]
        out = {"index": index, "traced": traced, **timing,
               "probe_s": sum(w for _, w in units) / sum(s for s, _ in units),
               **study_outputs(study_dir, timing["t_start"],
                               timing["t_start"] + timing["wall_s"])}
        out["attempted"] += timing.get("http_requests", 0)
        out["failed"] += timing.get("rejected", 0)
        if traced:
            out["processes"] = spans.load_dir(span_dir)
        return out


def _sched(host, spec, study_dir: Path, log: Path):
    cmd = host + ["sched", "run", "--out", str(study_dir),
                  "--setups", *spec["setups"],
                  "--benchmarks", *spec["benchmarks"],
                  "--structures", *spec["structures"],
                  "--injections", str(spec["injections"]),
                  "--seed", str(spec["seed"]), "--prune", spec["prune"],
                  "--guard", spec["guard"], "--workers", str(WORKERS),
                  "--json"]
    launched = time.time()
    t0 = time.perf_counter()
    with open(log, "a") as err:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err,
                              timeout=TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 3):
        raise StudyFailed(f"sched run exited {proc.returncode}")
    first_lease = min(row["ts"] for row in _journal(study_dir)
                      if row.get("state") == "leased")
    return study_dir, {"wall_s": wall, "setup_s": first_lease - launched,
                       "t_start": launched}


def _svc(host, spec, root: Path, log: Path):
    procs = []
    with open(log, "a") as err:
        try:
            t0 = time.perf_counter()
            serve = _start(host + ["svc", "serve", "--root", str(root),
                                   "--port", "0", "--workers", "0"], err)
            procs.append(serve)
            line = _readline(serve)
            url = line[line.index("http://"):].split("/status")[0]
            for i in range(WORKERS):
                procs.append(_start(host + [
                    "svc", "worker", "--connect", url, "--name",
                    f"bench-w{i}", "--workers", "1",
                    "--scratch-dir", str(root / f"worker-{i}")], err))
            for worker in procs[1:]:
                if not _readline(worker).startswith("worker "):
                    raise StudyFailed("svc worker not ready")
            setup_s = time.perf_counter() - t0

            http = _Client(url)
            submitted = time.time()
            t1 = time.perf_counter()
            sid = http.call("POST", "/studies",
                            {"tenant": "bench", "spec": spec})["id"]
            final = http.follow(f"/studies/{sid}/events")
            wall = time.perf_counter() - t1
            if not final.get("complete"):
                raise StudyFailed(f"study {sid} ended {final}")
            status = http.call("GET", "/status")
        finally:
            _stop(procs)
    cache = status["golden_cache"]
    lookups = cache["hits"] + cache["misses"]
    return root / "studies" / sid, {
        "wall_s": wall, "setup_s": setup_s, "t_start": submitted,
        "golden_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        # Completes the service rejected: 422 answers to the workers.
        "rejected": (status["attest"] or {}).get("rejected", 0),
        "http_requests": http.requests}


def _start(cmd, err):
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                            text=True)


def _readline(proc, timeout_s: float = 60.0) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise StudyFailed(f"{proc.args[2:5]} printed no ready line")
    return line


def _stop(procs) -> None:
    """SIGTERM every process at once, then wait; kill what lingers."""
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


class _Client:
    """JSON over HTTP against the service; a non-2xx answer is fatal."""

    def __init__(self, url: str):
        self.url = url
        self.requests = 0

    def _open(self, method, path, payload=None):
        self.requests += 1
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(self.url + path, data=data,
                                     method=method)
        try:
            return urllib.request.urlopen(req, timeout=TIMEOUT_S)
        except urllib.error.HTTPError as exc:
            raise StudyFailed(f"{method} {path}: HTTP {exc.code} "
                              f"{exc.read()[:200]!r}") from None

    def call(self, method, path, payload=None) -> dict:
        with self._open(method, path, payload) as resp:
            return json.loads(resp.read())

    def follow(self, path) -> dict:
        """Read an NDJSON event stream up to its ``study_complete``."""
        with self._open("GET", path) as resp:
            for raw in resp:
                row = json.loads(raw)
                if row.get("name") == "study_complete":
                    return row
        raise StudyFailed(f"{path} ended without study_complete")


def _journal(study_dir: Path) -> list[dict]:
    return [json.loads(line) for line in
            (study_dir / "journal.jsonl").read_text().splitlines()]


def study_outputs(study_dir: Path, t_start: float, t_end: float) -> dict:
    """Counts, digests and lease accounting of one finished study.

    *t_start* and *t_end* (epoch seconds) bound the study's wall time;
    the worker slots sit idle before their first lease and after their
    last completion.
    """
    journal = _journal(study_dir)
    spec = journal[0]["spec"]
    units = journal[0]["units"]
    leased, gaps, unit_walls, done_ts = {}, [], [], []
    failed = quarantined = 0
    counts: dict = {}
    for row in journal[1:]:
        state = row.get("state")
        key = (row.get("unit"), row.get("attempt"))
        if state == "leased":
            leased[key] = row["ts"]
        elif state == "done":
            gaps.append(row["ts"] - leased[key])
            unit_walls.append(row["wall_s"])
            done_ts.append(row["ts"])
            for cls, n in row["counts"].items():
                counts[cls] = counts.get(cls, 0) + n
        elif state == "failed":
            failed += 1
        elif state == "quarantined":
            quarantined += 1

    digest = hashlib.sha256()
    goldens, records, pruned = {}, 0, 0
    for sub in ("logs", "masks"):
        for path in sorted((study_dir / sub).glob("*.jsonl")):
            text = path.read_text()
            digest.update(f"{sub}/{path.name} {sha256_text(text)}\n"
                          .encode())
            if sub != "logs":
                continue
            setup, bench = path.name.split("__")[:2]
            for line in text.splitlines():
                row = json.loads(line)
                if row["kind"] == "golden":
                    goldens[f"{setup}/{bench}"] = golden_fingerprint(
                        row["data"])
                else:
                    records += 1
                    pruned += row["data"]["pruned"] is not None
    events = event_stats(json.loads(line) for line in
                         (study_dir / "events.jsonl").read_text()
                         .splitlines())
    masks = spec["injections"] * len(units)
    return {
        "masks": masks,
        "records": records,
        "counts": counts,
        "digest": digest.hexdigest(),
        "goldens": goldens,
        "pairs": len(spec["setups"]) * len(spec["benchmarks"]),
        "attempted": masks + len(leased),
        "failed": failed + quarantined,
        "unfinished": len(units) - len(gaps),
        "busy_s": sum(unit_walls),
        "lease_s": sum(gaps),
        "lease_overhead_s": sum(gaps) - sum(unit_walls),
        "edge_idle_s": sum(ts - t_start
                           for ts in sorted(leased.values())[:WORKERS])
        + sum(t_end - ts for ts in sorted(done_ts)[-WORKERS:]),
        "pruned": pruned,
        **events,
    }
