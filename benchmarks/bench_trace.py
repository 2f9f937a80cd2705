"""Access-trace microbenchmark: what the pruner's golden trace costs.

The pruner keeps the golden run's per-entry access events as packed
64-bit words (``repro.prune.trace``), ships them in the golden blob a
study hands its later units, and stores them in the trace cache.  For
each (setup, benchmark) pair of the ``study-sched`` grid ({MaFIN-x86,
GeFIN-ARM} x {sha, qsort}, the study's defaults) this prints:

``events``      events in the golden access trace
``B/event``     the trace's size in memory per event: ``sys.getsizeof``
                over its per-entry arrays
``trace KB``    the packed bytes (``AccessTrace.to_bytes``)
``blob KB``     the compressed golden blob a pruning study ships
``golden s``    a golden run without recording, best of 3
``traced s``    the same run recording the trace, best of 3, alternating
``adopt s``     ``adopt_golden_payload`` of that blob, best of 3
``unit MB``     peak RSS of a fresh process that adopts the blob and runs
                one pruned unit (l1d, 4 injections), as a study's later
                units do

::

    PYTHONPATH=src python benchmarks/bench_trace.py [--max-bytes-per-event 12]

With ``--max-bytes-per-event N`` it exits 1 when any pair's trace takes
more than N bytes per event in memory.  That is a size, not a timing,
so the gate is deterministic; CI's perf-smoke job runs it with N = 12.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.bench import suite
from repro.core.dispatcher import InjectorDispatcher
from repro.core.parallel import adopt_golden_payload, build_golden_payload
from repro.sched.plan import StudySpec
from repro.sim.config import setup_config

SETUPS = ("MaFIN-x86", "GeFIN-ARM")
BENCHMARKS = ("sha", "qsort")
SRC = Path(__file__).resolve().parent.parent / "src"
ROUNDS = 3

# Runs in a fresh interpreter: adopt the blob, run one pruned unit,
# print the process's peak RSS in KB.  VmHWM, not ru_maxrss: Linux
# carries the launching process's peak across exec into ru_maxrss.
_UNIT = """
import sys, tempfile
from pathlib import Path
from repro.sched.plan import StudySpec, WorkUnit
from repro.sched.worker import run_unit
blob, setup, benchmark = Path(sys.argv[1]).read_bytes(), *sys.argv[2:4]
spec = StudySpec(setups=(setup,), benchmarks=(benchmark,),
                 structures=("l1d",), injections=4, prune="analyze",
                 guard="basic")
with tempfile.TemporaryDirectory() as tmp:
    result = run_unit(WorkUnit(setup, benchmark, "l1d"), spec,
                      Path(tmp) / "logs.jsonl", golden_blob=blob)
if result["prune"]["trace_source"] != "adopted":
    sys.exit("the unit did not adopt the shipped trace")
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")))
"""


def _timed(fn, *args):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def unit_peak_rss_mb(blob: bytes, setup: str, benchmark: str) -> float:
    """Peak RSS of a fresh process running one unit on *blob*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with tempfile.NamedTemporaryFile(suffix=".blob") as f:
        f.write(blob)
        f.flush()
        out = subprocess.run(
            [sys.executable, "-c", _UNIT, f.name, setup, benchmark],
            env=env, check=True, capture_output=True, text=True)
    return int(out.stdout.split()[-1]) / 1024


def measure(setup: str, benchmark: str) -> dict:
    """One pair's row (see the module docstring)."""
    spec = StudySpec(setups=(setup,), benchmarks=(benchmark,),
                     structures=("l1d",))
    config = setup_config(setup, scaled=spec.scaled)
    program = suite.program(benchmark, config.isa, spec.scale)

    def golden(record: bool) -> InjectorDispatcher:
        d = InjectorDispatcher(config, program,
                               n_checkpoints=spec.n_checkpoints,
                               record_trace=record)
        d.run_golden()
        return d

    golden_s = traced_s = adopt_s = float("inf")
    for _ in range(ROUNDS):          # alternate, so host drift hits both
        golden_s = min(golden_s, _timed(golden, False)[0])
        t, dispatcher = _timed(golden, True)
        traced_s = min(traced_s, t)
    trace = dispatcher.access_trace
    trace.benchmark = benchmark      # as golden_with_trace names it
    events = trace.n_events
    in_memory = sum(sys.getsizeof(words)
                    for st in trace.structures.values()
                    for words in st.events.values())
    blob = build_golden_payload(dispatcher)
    for _ in range(ROUNDS):
        fresh = InjectorDispatcher(config, program,
                                   n_checkpoints=spec.n_checkpoints)
        adopt_s = min(adopt_s, _timed(adopt_golden_payload, fresh, blob)[0])
    return {
        "setup": setup,
        "benchmark": benchmark,
        "events": events,
        "bytes_per_event": in_memory / max(events, 1),
        "trace_bytes": trace.nbytes,
        "blob_bytes": len(blob),
        "golden_s": golden_s,
        "traced_golden_s": traced_s,
        "adopt_s": adopt_s,
        "unit_peak_rss_mb": unit_peak_rss_mb(blob, setup, benchmark),
    }


def render(rows: list[dict]) -> str:
    lines = [
        f"golden access trace per study pair (times: best of {ROUNDS})",
        f"  {'pair':<18s}{'events':>9s}{'B/event':>9s}{'trace KB':>10s}"
        f"{'blob KB':>9s}{'golden s':>10s}{'traced s':>10s}"
        f"{'adopt s':>9s}{'unit MB':>9s}",
    ]
    for r in rows:
        lines.append(
            f"  {r['setup'] + '/' + r['benchmark']:<18s}{r['events']:>9,d}"
            f"{r['bytes_per_event']:>9.2f}{r['trace_bytes'] / 1024:>10.1f}"
            f"{r['blob_bytes'] / 1024:>9.1f}{r['golden_s']:>10.3f}"
            f"{r['traced_golden_s']:>10.3f}{r['adopt_s']:>9.3f}"
            f"{r['unit_peak_rss_mb']:>9.1f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-bytes-per-event", type=float, default=None,
                    help="exit 1 if any pair's in-memory trace exceeds "
                         "this many bytes per event")
    args = ap.parse_args(argv)
    rows = [measure(setup, benchmark)
            for setup in SETUPS for benchmark in BENCHMARKS]
    print(render(rows))
    limit = args.max_bytes_per_event
    over = [r for r in rows
            if limit is not None and r["bytes_per_event"] > limit]
    for r in over:
        print(f"FAIL {r['setup']}/{r['benchmark']}: "
              f"{r['bytes_per_event']:.2f} B/event > {limit}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
