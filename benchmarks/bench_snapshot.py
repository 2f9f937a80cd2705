"""Snapshot-engine microbenchmark: structured save/restore vs deepcopy.

The checkpoint engine replaced whole-machine ``copy.deepcopy`` with the
structured ``snapshot()``/``restore(state)`` protocol (flat containers
copied at C speed, immutable objects shared by reference).  This bench
measures both paths on the same warmed-up machine state — checkpoint
*take* and checkpoint *restore* separately — and records the speedup in
``results/bench/BENCH_snapshot.json``.  It also records what a golden
run's whole set of checkpoints costs: the dispatcher's
``checkpoint_bytes`` for the pristine state and every checkpoint, as a
golden blob carries them (a memory page the states share counts once),
and the increment each checkpoint adds to the pristine state alone.

Run under pytest (``pytest benchmarks/bench_snapshot.py``) or as a CLI
smoke check (used by the CI perf-smoke job, which fails the build when
snapshot restore stops being measurably cheaper than deepcopy)::

    PYTHONPATH=src python benchmarks/bench_snapshot.py \
        --rounds 5 --min-speedup 1.5 --out BENCH_snapshot.json
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import time
from pathlib import Path

from repro.bench import suite
from repro.core.checkpoint import state_nbytes
from repro.core.dispatcher import InjectorDispatcher
from repro.sim.config import setup_config
from repro.sim.gem5 import build_sim
from repro.sim.kernel import ProcessExit


def _timed(fn, rounds: int) -> float:
    """Mean seconds per call over *rounds* calls."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - t0) / rounds


def golden_store_bytes(config, program) -> dict:
    """``checkpoint_bytes`` of one golden run at the campaign's default
    checkpoint budget, and its increment per checkpoint over the
    pristine state alone."""
    dispatcher = InjectorDispatcher(config, program, n_checkpoints=10)
    dispatcher.run_golden()
    count = dispatcher.checkpoints.count
    total = dispatcher.checkpoint_bytes
    pristine = state_nbytes(dispatcher._pristine)
    return {"golden_checkpoints": count,
            "golden_store_bytes": total,
            "bytes_per_checkpoint": (total - pristine) // max(count, 1)}


def measure(setup: str = "MaFIN-x86", benchmark: str = "sha",
            warm_cycles: int = 3000, rounds: int = 10,
            scale: int = 1) -> dict:
    """Deepcopy vs snapshot timings on one warmed-up machine."""
    config = setup_config(setup)
    program = suite.program(benchmark, config.isa, scale)
    sim = build_sim(program, config)
    try:
        for _ in range(warm_cycles):
            sim.step()
    except ProcessExit:
        pass  # tiny cells may finish early; the state is still a machine

    # Baseline: what checkpointing used to cost.  Take = deepcopy the
    # machine; restore = deepcopy the stored machine again (the old
    # CheckpointStore.restore_before).
    deep_state = copy.deepcopy(sim)
    deepcopy_take_s = _timed(lambda: copy.deepcopy(sim), rounds)
    deepcopy_restore_s = _timed(lambda: copy.deepcopy(deep_state), rounds)

    # Snapshot engine: take = sim.snapshot(); restore = load the blob
    # into an existing machine in place.
    state = sim.snapshot()
    snapshot_take_s = _timed(sim.snapshot, rounds)
    scratch = build_sim(program, config)
    snapshot_restore_s = _timed(lambda: scratch.restore(state), rounds)

    # Sanity: the restored machine must continue exactly like the source.
    ref = sim.run()
    out = scratch.run()
    if (ref.cycles, ref.output, ref.exit_code) != \
            (out.cycles, out.output, out.exit_code):
        raise AssertionError("restored run diverged from the source run")

    deep_total = deepcopy_take_s + deepcopy_restore_s
    snap_total = snapshot_take_s + snapshot_restore_s
    return {
        "setup": setup,
        "benchmark": benchmark,
        "warm_cycles": warm_cycles,
        "rounds": rounds,
        "checkpoint_bytes": state_nbytes(state),
        **golden_store_bytes(config, program),
        "deepcopy_take_s": deepcopy_take_s,
        "deepcopy_restore_s": deepcopy_restore_s,
        "snapshot_take_s": snapshot_take_s,
        "snapshot_restore_s": snapshot_restore_s,
        "speedup_take": deepcopy_take_s / snapshot_take_s,
        "speedup_restore": deepcopy_restore_s / snapshot_restore_s,
        "speedup_total": deep_total / snap_total,
    }


def render(results: dict) -> str:
    lines = [
        "snapshot engine vs deepcopy checkpointing "
        f"({results['benchmark']}, {results['setup']}, "
        f"{results['warm_cycles']} warm cycles, "
        f"{results['rounds']} rounds)",
        f"  {'path':<22s}{'take':>12s}{'restore':>12s}",
        f"  {'deepcopy (old)':<22s}"
        f"{1e3 * results['deepcopy_take_s']:>10.2f}ms"
        f"{1e3 * results['deepcopy_restore_s']:>10.2f}ms",
        f"  {'snapshot (new)':<22s}"
        f"{1e3 * results['snapshot_take_s']:>10.2f}ms"
        f"{1e3 * results['snapshot_restore_s']:>10.2f}ms",
        f"  speedup  take {results['speedup_take']:.1f}x | "
        f"restore {results['speedup_restore']:.1f}x | "
        f"take+restore {results['speedup_total']:.1f}x",
        f"  checkpoint blob {results['checkpoint_bytes']:,} bytes",
        f"  golden run: pristine + {results['golden_checkpoints']} "
        f"checkpoints {results['golden_store_bytes']:,} bytes together, "
        f"+{results['bytes_per_checkpoint']:,} bytes per checkpoint",
    ]
    return "\n".join(lines)


def test_snapshot_engine_speedup(benchmark, results_dir):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = render(results)
    (results_dir / "BENCH_snapshot.json").write_text(
        json.dumps(results, indent=2) + "\n")
    (results_dir / "snapshot.txt").write_text(text)
    print(text)
    # Acceptance bar: checkpoint take+restore at least 3x faster than
    # the deepcopy baseline it replaced.
    assert results["speedup_total"] >= 3.0
    assert results["speedup_restore"] >= 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", default="MaFIN-x86")
    parser.add_argument("--benchmark", default="sha")
    parser.add_argument("--warm-cycles", type=int, default=3000)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="fail unless take+restore beats deepcopy "
                             "by this factor (CI smoke bar)")
    parser.add_argument("--out", default=None,
                        help="write the JSON results here")
    args = parser.parse_args(argv)

    results = measure(setup=args.setup, benchmark=args.benchmark,
                      warm_cycles=args.warm_cycles, rounds=args.rounds)
    print(render(results))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {out}")
    if results["speedup_total"] < args.min_speedup:
        print(f"FAIL: take+restore speedup {results['speedup_total']:.2f}x "
              f"< required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
