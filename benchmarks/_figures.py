"""Shared driver and scale knobs for the Fig. 2-6 reproduction benches.

Scale knobs (environment variables):

``REPRO_BENCH_INJECTIONS``
    Injections per (benchmark, setup) cell.  Default 12 — enough for
    shape comparison in minutes.  The paper used 2000 per cell.
``REPRO_BENCH_BENCHMARKS``
    Comma-separated benchmark subset (default ``sha,qsort,search``;
    ``all`` = the full MiBench-like ten, slow on one core).
``REPRO_BENCH_SEED``
    Study seed (default 1); each cell derives its mask seed from it.

Each figure runs as one fresh pruned study (``figure_spec`` +
``run_study``) in a temporary directory, exactly as ``repro.tools
figures`` runs it.
"""

from __future__ import annotations

import os
import tempfile

from repro.core.report import figure_spec, study_figures
from repro.sched import run_study

# Paper shape expectations from §IV.C, used for soft qualitative checks
# (they hold at full scale; at bench scale we only print them alongside).
PAPER_AVG_VULN = {
    # structure: (MaFIN-x86 %, GeFIN-x86 %, GeFIN-ARM %)
    "int_rf": (2.0, 2.0, 2.0),      # "almost always less than 3%"
    "lsq": (3.0, 2.0, 2.0),         # <3%, MaFIN ~1pp above GeFIN
    "l1d": (14.6, 21.8, 22.3),      # <15% vs >22%
    "l1i": (19.0, 15.0, 13.0),      # ~19% vs >14%
    "l2": (6.5, 6.9, 6.8),          # 6-7% everywhere
}


def bench_injections() -> int:
    return int(os.environ.get("REPRO_BENCH_INJECTIONS", "12"))


def bench_benchmarks() -> tuple[str, ...]:
    raw = os.environ.get("REPRO_BENCH_BENCHMARKS", "sha,qsort,search")
    if raw.strip().lower() == "all":
        from repro.bench import suite
        return suite.benchmark_names()
    return tuple(b.strip() for b in raw.split(",") if b.strip())


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "1"))


def run_and_render(structure: str, results_dir, fig_name: str):
    """Run one figure's study; write and return the rendering."""
    spec = figure_spec([structure], bench_benchmarks(),
                       injections=bench_injections(), seed=bench_seed())
    with tempfile.TemporaryDirectory() as study_dir:
        result = run_study(spec, study_dir)
    (fig,) = study_figures(spec, result.classifications())
    text = fig.render()
    paper = PAPER_AVG_VULN.get(structure)
    if paper is not None:
        text += ("\n  paper full-scale average vulnerability: "
                 f"M-x86 {paper[0]}%  G-x86 {paper[1]}%  "
                 f"G-ARM {paper[2]}%\n")
    (results_dir / f"{fig_name}.txt").write_text(text)
    return fig, text


def averages(fig):
    return {setup: fig.average_vulnerability(setup)
            for setup in fig.setups}
