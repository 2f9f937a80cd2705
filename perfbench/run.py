"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

One workload, as ``BENCHMARK.json`` runs it::

    python3 perfbench/run.py --workload inject-transient --seed 1 \\
        --seconds 15 --trace 0

runs rounds of the workload until ``--seconds`` of measured time have
passed (at least three rounds, at most ten), checks the outputs of
every round, prints each metric as ``workload metric value unit`` and,
as the last line, one JSON object.  With ``--trace 1`` every round runs
twice on the same inputs, first untraced and then under the span
recorder (``spans.py``), at least one such pair, and the per-layer
metrics are printed instead.  Times are scaled to a reference host
speed (``calibrate.py``).

Every workload, each in its own fresh process, one after the other::

    python3 perfbench/run.py [--seed N] [--trace] [--repeat N] [--out FILE]

prints the same lines for each run and, with ``--repeat``, the median
and quartiles of every metric.  ``--record-references`` re-runs the
default seed and rewrites ``references.json``; do that only in a change
that means to alter what the simulator computes.

See README.md for the workloads, metrics, bounds and how to compare a
change against its parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

WORKLOADS = ("inject-transient", "inject-stuck", "study-sched",
             "study-svc-remote")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
MIN_ROUNDS = 3
MAX_ROUNDS = 10
#: No round starts that could end after this, so a run ends in 180 s.
RUN_CAP_S = 130.0

END_TO_END = (("wall_s", "s"), ("injections_per_s", "1/s"),
              ("sim_cycles_per_s", "cycles/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

#: Per-layer metrics: (name, unit, span name, field of the span totals).
SPAN_METRICS = (
    ("sim.step.fetch_s", "s", "sim.step.fetch", "self"),
    ("sim.step.issue_s", "s", "sim.step.issue", "self"),
    ("sim.step.writeback_s", "s", "sim.step.writeback", "self"),
    ("sim.step.commit_s", "s", "sim.step.commit", "self"),
    ("sim.step.calls", "cycles", "sim.step.fetch", "calls"),
    ("sim.restore_s", "s", "sim.restore", "total"),
    ("sim.restore.calls", "count", "sim.restore", "calls"),
    ("sim.snapshot_s", "s", "sim.snapshot", "total"),
    ("sim.snapshot.calls", "count", "sim.snapshot", "calls"),
    ("core.dispatcher.inject_s", "s", "core.dispatcher.inject", "total"),
    ("core.dispatcher.drive_self_s", "s", "core.dispatcher.inject", "self"),
    ("core.dispatcher.run_golden_s", "s", "core.dispatcher.run_golden",
     "total"),
    ("core.parser.classify_s", "s", "core.parser.classify", "total"),
    ("core.repository.logs_add_s", "s", "core.repository.logs_add",
     "total"),
    ("guard.invariant_checks", "count", "guard.invariants", "calls"),
    ("sched.journal.appends", "count", "sched.journal.append", "calls"),
)
#: Per-layer shares of the round's wall time, from span totals.
SHARE_METRICS = (
    ("sched.pool.launch_share", "sched.pool.launch"),
    ("sched.pool.poll_share", "sched.pool.poll"),
    ("sched.journal.append_share", "sched.journal.append"),
)
RATIO_METRICS = ("core.dispatcher.early_stop_ratio",
                 "core.checkpoint.skipped_cycles_ratio",
                 "prune.pruned_ratio", "sched.golden_runs_per_pair",
                 "sched.worker_util", "sched.lease_overhead_share",
                 "svc.golden_cache.hit_ratio", "trace_overhead_frac")
FIELDS = {"calls": 0, "total": 1, "self": 2}


def workload(name: str, seed: int):
    if name.startswith("inject-"):
        from cells import CellWorkload
        return CellWorkload(name, seed)
    from studies import StudyWorkload
    return StudyWorkload(name, seed)


def measure(wl, work: Path, seconds: float, trace: bool) -> list[dict]:
    """Rounds until *seconds* of measured wall time (see module doc)."""
    rounds, per_index = [], []
    start = time.perf_counter()
    for index in range(MAX_ROUNDS):
        t0 = time.perf_counter()
        measured = 0.0
        for traced in ((False, True) if trace else (False,)):
            rdir = work / f"round-{index}{'-traced' if traced else ''}"
            rdir.mkdir(parents=True)
            rounds.append(wl.run_round(index, rdir, traced=traced))
            measured += rounds[-1]["wall_s"]
        per_index.append((measured, time.perf_counter() - t0))
        if index + 1 < (1 if trace else MIN_ROUNDS):
            continue
        typical = statistics.median(m for m, _ in per_index)
        longest = max(c for _, c in per_index)
        if sum(m for m, _ in per_index) + typical > seconds or \
                time.perf_counter() - start + longest > RUN_CAP_S:
            break
    return rounds


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for children."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def scale(r: dict, normalize: bool = True) -> float:
    """Factor from a round's host seconds to reference-host seconds."""
    return REFERENCE_S / r["probe_s"] if normalize else 1.0


def end_to_end(rounds, normalize: bool = True) -> dict:
    """Medians over the untraced rounds (see calibrate.py for scaling)."""
    rounds = [r for r in rounds if not r["traced"]]
    med = statistics.median

    def s(r):
        return scale(r, normalize)
    return {
        "wall_s": med(s(r) * r["wall_s"] for r in rounds),
        "injections_per_s": med(r["records"] / (s(r) * r["wall_s"])
                                for r in rounds),
        "sim_cycles_per_s": med(
            (r["sim_cycles"] + r["golden_cycles"])
            / (s(r) * (r["inject_s"] + r["golden_s"])) for r in rounds),
        "setup_s": med(s(r) * r["setup_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(rounds, workers: int) -> dict:
    """Per-layer metrics of the traced rounds, per round on average.

    Times are scaled like the end-to-end ones; counts and ratios are as
    counted.
    """
    traced = [r for r in rounds if r["traced"]]
    n = len(traced)

    def span_sum(span, kind, times=False):
        return sum(span_totals(r).get(span, [0, 0.0, 0.0])[FIELDS[kind]]
                   * (scale(r) if times else 1.0) for r in traced)

    def total(key):
        return sum(r.get(key, 0) for r in traced)

    wall = total("wall_s")
    out = {name: span_sum(span, kind, unit == "s") / n
           for name, unit, span, kind in SPAN_METRICS}
    for name, span in SHARE_METRICS:
        out[name] = span_sum(span, "total") / wall
    # The pair ran seconds apart; compare them at the same host speed.
    plain = {r["index"]: scale(r) * r["wall_s"]
             for r in rounds if not r["traced"]}
    cycles = total("sim_cycles") + total("saved_cycles")
    out.update({
        "core.dispatcher.early_stop_ratio":
            total("early_stops") / max(total("injections"), 1),
        "core.checkpoint.skipped_cycles_ratio":
            total("saved_cycles") / max(cycles, 1),
        "prune.pruned_ratio": total("pruned") / total("masks"),
        "sched.golden_runs_per_pair": total("golden_runs") / total("pairs"),
        "sched.worker_util": total("busy_s") / (workers * wall),
        "sched.lease_overhead_share":
            total("lease_overhead_s") / total("lease_s")
            if total("lease_s") else 0.0,
        "svc.golden_cache.hit_ratio":
            total("golden_cache_hit_ratio") / n,
        "trace_overhead_frac": statistics.median(
            scale(r) * r["wall_s"] / plain[r["index"]] for r in traced) - 1,
    })
    return out


def span_totals(r: dict) -> dict:
    """A traced round's span totals, summed over its processes."""
    return spans.merge(p["totals"] for p in r["processes"])


def layer_units() -> dict:
    units = {name: unit for name, unit, _, _ in SPAN_METRICS}
    units.update({name: "ratio" for name, _ in SHARE_METRICS})
    units.update({name: "ratio" for name in RATIO_METRICS})
    return units


def reconcile(rounds, workers: int) -> str:
    """How well the traced spans cover the traced rounds' time.

    Cells: the self times of every span against the traced round.
    Studies: the worker slots' time against workers x wall_s; what is
    left over is the gaps between one lease ending and the next.
    """
    traced = [r for r in rounds if r["traced"]]
    if "span_roots_s" in traced[0]:
        covered = sum(sum(v[2] for v in span_totals(r).values())
                      for r in traced)
        whole = sum(r["span_roots_s"] for r in traced)
        what = f"span self times {covered:.3f} s"
    else:
        leases = sum(r["lease_s"] for r in traced)
        idle = sum(r["edge_idle_s"] for r in traced)
        covered = leases + idle
        whole = sum(workers * r["wall_s"] for r in traced)
        what = (f"leased-to-done {leases:.3f} s + idle before the first "
                f"lease and after the last completion {idle:.3f} s")
    return (f"{what} of {whole:.3f} s ({100 * (covered / whole - 1):+.1f} "
            f"%)")


def fingerprint(r: dict) -> dict:
    """What must repeat exactly for a round's inputs."""
    return {"counts": r["counts"], "records_sha256": r["digest"],
            "sim_cycles": r["sim_cycles"], "pruned": r["pruned"]}


def reference_key(name: str) -> str:
    # Both study paths must write the same records for the same spec.
    return "study" if name.startswith("study-") else name


def check(name: str, seed: int, rounds, refs: dict) -> list[str]:
    """Differences from what the program must produce."""
    problems = []
    expected = refs["rounds"][reference_key(name)] \
        if seed == refs["seed"] else []
    for r in rounds:
        tag = f"{name} round {r['index']}{' traced' if r['traced'] else ''}"
        if r["records"] != r["masks"] or r.get("unfinished"):
            problems.append(f"{tag}: {r['records']} records for "
                            f"{r['masks']} masks")
        if sum(r["counts"].values()) != r["masks"]:
            problems.append(f"{tag}: classified {r['counts']} for "
                            f"{r['masks']} masks")
        for pair, digest in r["goldens"].items():
            if refs["goldens"].get(pair) != digest:
                problems.append(f"{tag}: golden run of {pair} differs "
                                f"from the reference")
        if r["index"] < len(expected):
            got = fingerprint(r)
            for key, want in expected[r["index"]].items():
                if got[key] != want:
                    problems.append(f"{tag}: {key} is {got[key]}, "
                                    f"reference {want}")
    return problems


def run_one(args) -> int:
    wl = workload(args.workload, args.seed)
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        rounds = measure(wl, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for r in rounds:
        if not r["traced"]:
            print(f"{args.workload} round {r['index']} "
                  f"{json.dumps(fingerprint(r), sort_keys=True)}")
        print(f"{args.workload} round {r['index']}"
              f"{' traced' if r['traced'] else ''} probe {r['probe_s']!r} s "
              f"wall {r['wall_s']!r} s")
    problems = check(args.workload, args.seed, rounds,
                     json.loads(REFERENCES.read_text()))
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(rounds, wl.workers), layer_units()
        print(f"{args.workload} reconcile "
              f"{reconcile(rounds, wl.workers)}")
        spans_out = ROOT / ".perfbench" / f"{args.workload}-spans.json"
        spans_out.write_text(json.dumps(
            [{"round": r["index"], "processes": r["processes"]}
             for r in rounds if r["traced"]]))
        print(f"{args.workload} spans {spans_out}")
    else:
        values, units = end_to_end(rounds), dict(END_TO_END)
        for name, value in end_to_end(rounds, normalize=False).items():
            print(f"{args.workload} unscaled {name} {value!r}")
    metrics = {}
    for name, value in values.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in a fresh process; summarise repeated runs."""
    runs, ok = [], True
    for rep in range(args.repeat):
        for name in WORKLOADS:
            for trace in (0, 1) if args.trace else (0,):
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      text=True, timeout=300)
                lines = proc.stdout.splitlines()
                print("\n".join(lines[:-1]), flush=True)
                try:
                    result = json.loads(lines[-1])
                except (IndexError, json.JSONDecodeError):
                    print(f"{name}: no result (exit {proc.returncode})",
                          file=sys.stderr)
                    ok = False
                    continue
                ok = ok and proc.returncode == 0 and result["correct"]
                runs.append({"workload": name, "trace": trace, "rep": rep,
                             "seed": args.seed, "lines": lines[:-1],
                             "result": result})
    summary = summarise(runs)
    if args.repeat > 1:
        for key, s in summary.items():
            print(f"{key} median {s['median']!r} q1 {s['q1']!r} "
                  f"q3 {s['q3']!r} {s['unit']} (n={s['n']})")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "repeat": args.repeat, "host": host_info(), "runs": runs,
             "summary": summary}, indent=1) + "\n")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {key: {"value": s["median"], "unit": s["unit"]}
                    for key, s in summary.items()},
    }))
    return 0 if ok else 1


def summarise(runs) -> dict:
    values: dict = {}
    for run in runs:
        for metric, m in run["result"]["metrics"].items():
            values.setdefault((run["workload"], metric, m["unit"]),
                              []).append(m["value"])
    out = {}
    for (name, metric, unit), vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0], None, vals[0])
        out[f"{name}/{metric}"] = {"median": statistics.median(vals),
                                   "q1": q1, "q3": q3, "n": len(vals),
                                   "unit": unit, "values": vals}
    return out


def host_info() -> dict:
    import platform
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip()
              for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {"python": platform.python_version(),
            "cpu": models[0] if models else platform.processor(),
            "cpus": os.cpu_count(), "platform": platform.platform()}


def record_references() -> int:
    """Rewrite references.json from MAX_ROUNDS rounds of the default seed."""
    refs = {"seed": DEFAULT_SEED, "goldens": {}, "rounds": {}}
    work = ROOT / ".perfbench" / f"references-{os.getpid()}"
    try:
        for name in ("inject-transient", "inject-stuck", "study-sched"):
            wl = workload(name, DEFAULT_SEED)
            rounds = []
            for index in range(MAX_ROUNDS):
                rdir = work / name / f"round-{index}"
                rdir.mkdir(parents=True)
                r = wl.run_round(index, rdir)
                refs["goldens"].update(r["goldens"])
                rounds.append(fingerprint(r))
                print(f"{name} round {index} "
                      f"{json.dumps(rounds[-1], sort_keys=True)}",
                      flush=True)
            refs["rounds"][reference_key(name)] = rounds
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="run one workload in this process (default: "
                        "every workload, each in a fresh process)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measured time per run (default: %(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                   const=1, default=0,
                   help="1: print per-layer metrics from traced rounds")
    p.add_argument("--repeat", type=int, default=1,
                   help="runs per workload (all-workload mode)")
    p.add_argument("--out", default=None,
                   help="write every run's result as JSON (all-workload "
                        "mode)")
    p.add_argument("--record-references", action="store_true",
                   help="rewrite references.json from the default seed")
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for var in ("REPRO_INJECTIONS", "REPRO_SCHED_CHAOS", "REPRO_SVC_CHAOS",
                "SVC_TOKEN"):
        os.environ.pop(var, None)
    if args.record_references:
        return record_references()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
