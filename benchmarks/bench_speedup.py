"""§III.B(2) — campaign speed optimizations.

The paper reports that stopping a run immediately when (i) the fault
lands in an invalid/unused entry or (ii) the faulty entry is overwritten
before ever being read yields a **30 %-70 % speedup of each individual
run** (in simulated work) across benchmarks and components.  This bench
replays the same fault sets with the optimizations on and off and
measures both the simulated-cycle savings and the wall-clock effect.

``test_prune_speedup`` benches the static counterpart (``repro.prune``):
the same campaign with pruning off / analyze, asserting the
classification is invariant and the campaign-phase wall clock drops by
at least the paper's 30 % floor somewhere in the grid.  Results land in
``results/bench/BENCH_prune.json``.
"""

import json
import time

import _figures
from repro.core.campaign import InjectionCampaign
from repro.core.dispatcher import InjectorDispatcher
from repro.core.fault import FaultSet
from repro.core.maskgen import FaultMaskGenerator, StructureInfo
from repro.prune import PRUNE_POLICIES
from repro.sim.config import setup_config
from repro.bench import suite


def _measure(structure: str, n: int):
    config = setup_config("MaFIN-x86")
    program = suite.program("sha", "x86")
    dispatcher = InjectorDispatcher(config, program)
    golden = dispatcher.run_golden()
    info = StructureInfo.of_site(dispatcher.fault_sites()[structure])
    sets = FaultMaskGenerator(_figures.bench_seed()).generate(
        info, golden.cycles, count=n)

    # Both variants restore from the same checkpoints, so comparing
    # end-of-run cycle counts compares the simulated work directly.
    # Which variant runs first alternates per fault set, so warm-up
    # (decode memo, allocator) favours neither side.
    cycles = {True: 0, False: 0}
    wall = {True: 0.0, False: 0.0}
    for i, fs in enumerate(sets):
        for early_stop in ((True, False) if i % 2 == 0 else (False, True)):
            t0 = time.perf_counter()
            rec = dispatcher.inject(fs, early_stop=early_stop)
            wall[early_stop] += time.perf_counter() - t0
            cycles[early_stop] += rec.cycles
    return cycles[True], cycles[False], wall[True], wall[False]


def test_early_stop_speedup(benchmark, results_dir):
    n = max(_figures.bench_injections(), 10)

    def measure():
        return {s: _measure(s, n) for s in ("l1d", "int_rf")}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["§III.B — early-stop optimization speedup "
             f"({n} injections, sha, MaFIN-x86)",
             f"  {'structure':<10s}{'cycles (opt)':>14s}"
             f"{'cycles (full)':>15s}{'saved':>8s}{'wall speedup':>14s}"]
    for structure, (fc, sc, fw, sw) in results.items():
        saved = 100.0 * (1 - fc / max(sc, 1))
        lines.append(f"  {structure:<10s}{fc:>14,d}{sc:>15,d}"
                     f"{saved:>7.1f}%{sw / max(fw, 1e-9):>13.2f}x")
    lines.append("  paper: 30%-70% per-run speedup across benchmarks "
                 "and components")
    text = "\n".join(lines)
    (results_dir / "speedup.txt").write_text(text)
    print(text)

    for structure, (fc, sc, fw, sw) in results.items():
        assert fc <= sc  # optimizations never add work
    # Somewhere in the study the savings are substantial.
    best = max(1 - fc / max(sc, 1) for fc, sc, _, _ in results.values())
    assert best >= 0.20


PRUNE_CELLS = (("MaFIN-x86", "sha", "l1d"),
               ("MaFIN-x86", "qsort", "int_rf"))


def _measure_prune(setup: str, bench_name: str, structure: str, n: int):
    """One cell, all policies: campaign-phase wall time + prune stats."""
    config = setup_config(setup)
    rows = {}
    for policy in PRUNE_POLICIES:
        program = suite.program(bench_name, config.isa)
        campaign = InjectionCampaign(config, program, bench_name,
                                     structure,
                                     seed=_figures.bench_seed(),
                                     prune=policy)
        campaign.prepare(injections=n)
        t0 = time.perf_counter()
        result = campaign.run()
        wall = time.perf_counter() - t0
        row = {"run_wall_s": wall, "counts": result.classify()}
        if result.prune is not None:
            row["prune"] = {k: result.prune[k] for k in
                            ("masked", "simulated", "rules",
                             "by_structure")}
            row["prune_rate"] = result.prune["masked"] / n
        rows[policy] = row
    return rows


def test_prune_speedup(benchmark, results_dir):
    n = max(_figures.bench_injections(), 12)

    def measure():
        return {f"{s}/{b}/{st}": _measure_prune(s, b, st, n)
                for s, b, st in PRUNE_CELLS}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    payload = {"injections": n, "seed": _figures.bench_seed(),
               "paper_claim": "30-70% campaign speedup (§III.B)",
               "cells": {}}
    lines = ["repro.prune — golden-trace pruning speedup "
             f"({n} injections per cell)",
             f"  {'cell':<24s}{'policy':<10s}{'wall':>9s}"
             f"{'reduction':>11s}{'prune rate':>12s}"]
    best = 0.0
    for cell, rows in results.items():
        base = rows["off"]["run_wall_s"]
        cell_out = {}
        for policy in PRUNE_POLICIES:
            row = dict(rows[policy])
            reduction = (1 - row["run_wall_s"] / max(base, 1e-9)
                         if policy != "off" else 0.0)
            row["wall_reduction"] = reduction
            best = max(best, reduction)
            cell_out[policy] = row
            lines.append(
                f"  {cell:<24s}{policy:<10s}"
                f"{row['run_wall_s']:>8.2f}s"
                f"{100 * reduction:>10.1f}%"
                f"{100 * row.get('prune_rate', 0.0):>11.1f}%")
            # Pruning must be invisible to the Parser.
            assert row["counts"] == rows["off"]["counts"], \
                f"{cell}/{policy} changed the classification"
        payload["cells"][cell] = cell_out
    lines.append("  paper: 30%-70% campaign speedup; pruning must beat "
                 "the 30% floor somewhere")
    text = "\n".join(lines)
    (results_dir / "BENCH_prune.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True))
    (results_dir / "prune_speedup.txt").write_text(text)
    print(text)
    assert best >= 0.30, f"best wall-clock reduction {best:.0%} < 30%"
