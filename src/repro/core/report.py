"""Reporting: classification tables and ASCII renderings of Figs. 2-6.

Each of the paper's result figures is a stacked-bar chart — per
benchmark, one bar per setup (MaFIN-x86 / GeFIN-x86 / GeFIN-ARM) showing
the six fault-effect classes, plus the three average bars.  Figures
are a report over one study: :func:`figure_spec` is the study whose
units are their cells, and :func:`study_figures` builds each figure
from the units' classification counts.
"""

from __future__ import annotations

from repro.core.campaign import default_injections
from repro.core.outcome import CLASSES, MASKED
from repro.core.parser import DEFAULT_POLICY, vulnerability

SETUPS = ("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM")
SETUP_SHORT = {"MaFIN-x86": "M-x86", "GeFIN-x86": "G-x86",
               "GeFIN-ARM": "G-ARM"}

_BAR_GLYPHS = {"Masked": ".", "SDC": "#", "DUE": "D", "Timeout": "T",
               "Crash": "C", "Assert": "A"}


class FigureResult:
    """All cells of one per-structure figure (e.g. Fig. 3 = L1D): the
    classification counts of each (benchmark, setup) cell."""

    def __init__(self, structure: str, benchmarks, setups=SETUPS,
                 cells=None):
        self.structure = structure
        self.benchmarks = tuple(benchmarks)
        self.setups = tuple(setups)
        self.cells: dict[tuple[str, str], dict] = dict(cells or {})

    def percentages(self, benchmark: str, setup: str) -> dict:
        counts = self.cells[(benchmark, setup)]
        total = max(sum(counts.values()), 1)
        return {k: 100.0 * v / total for k, v in counts.items()}

    def average(self, setup: str) -> dict:
        """Average class percentages across benchmarks for one setup."""
        acc: dict[str, float] = {}
        n = 0
        for bench in self.benchmarks:
            if (bench, setup) not in self.cells:
                continue
            n += 1
            for cls, pct in self.percentages(bench, setup).items():
                acc[cls] = acc.get(cls, 0.0) + pct
        return {k: v / max(n, 1) for k, v in acc.items()}

    def vulnerability(self, benchmark: str, setup: str) -> float:
        return 100.0 * vulnerability(self.cells[(benchmark, setup)])

    def average_vulnerability(self, setup: str) -> float:
        avg = self.average(setup)
        return sum(v for k, v in avg.items() if k != MASKED)

    # -- rendering --------------------------------------------------------

    def render(self, bar_width: int = 40) -> str:
        """Text rendering of the paper-figure content."""
        classes = DEFAULT_POLICY.classes()
        lines = [f"Faulty behavior classification — {self.structure}",
                 "  legend: " + "  ".join(f"{g}={c}" for c, g in
                                          _BAR_GLYPHS.items())]
        header = (f"  {'benchmark':<10s}{'setup':<7s}"
                  + "".join(f"{c:>9s}" for c in classes)
                  + f"{'vuln%':>8s}  bar")
        lines.append(header)
        for bench in list(self.benchmarks) + ["AVG"]:
            for setup in self.setups:
                if bench == "AVG":
                    pct = self.average(setup)
                else:
                    if (bench, setup) not in self.cells:
                        continue
                    pct = self.percentages(bench, setup)
                vuln = sum(v for k, v in pct.items() if k != MASKED)
                bar = _stacked_bar(pct, bar_width)
                row = (f"  {bench:<10s}{SETUP_SHORT.get(setup, setup):<7s}"
                       + "".join(f"{pct.get(c, 0.0):>8.1f}%"
                                 for c in classes)
                       + f"{vuln:>7.1f}%  |{bar}|")
                lines.append(row)
            lines.append("")
        return "\n".join(lines)

    def summary_rows(self) -> list[dict]:
        """Machine-readable rows (benchmark, setup, per-class %).

        Per-cell rows carry the statistical error margin of their
        vulnerability estimate at 99 % confidence (§IV.A machinery), so
        downstream comparisons know how much resolution the campaign
        size bought.
        """
        from repro.core.sampling import achieved_error_margin
        rows = []
        for bench in list(self.benchmarks) + ["AVG"]:
            for setup in self.setups:
                if bench != "AVG" and (bench, setup) not in self.cells:
                    continue
                pct = (self.average(setup) if bench == "AVG"
                       else self.percentages(bench, setup))
                vuln = sum(v for k, v in pct.items() if k != MASKED)
                row = {"benchmark": bench,
                       "setup": SETUP_SHORT.get(setup, setup),
                       "vulnerability": round(vuln, 2),
                       **{k: round(v, 2) for k, v in pct.items()}}
                if bench != "AVG":
                    n = sum(self.cells[(bench, setup)].values())
                    if n:
                        row["error_margin_99"] = round(
                            100 * achieved_error_margin(n), 2)
                rows.append(row)
        return rows


def _stacked_bar(pct: dict, width: int) -> str:
    bar = []
    for cls in CLASSES:
        share = pct.get(cls, 0.0)
        glyph = _BAR_GLYPHS.get(cls, "?")
        bar.append(glyph * round(share * width / 100.0))
    out = "".join(bar)
    return (out + " " * width)[:width]


def figure_spec(structures, benchmarks=None, setups=SETUPS,
                injections: int | None = None, seed: int = 1):
    """The one study behind the figures of *structures*: a unit per
    (setup, benchmark, structure) cell of transient flips, pruned by
    golden-trace analysis.  *benchmarks* defaults to all ten and
    *injections* to ``default_injections()`` (the paper: 2000)."""
    from repro.bench import suite
    from repro.sched import StudySpec
    return StudySpec(setups=setups,
                     benchmarks=benchmarks or suite.benchmark_names(),
                     structures=structures,
                     injections=(default_injections() if injections is None
                                 else injections),
                     seed=seed, prune="analyze")


def study_figures(spec, units: dict) -> list[FigureResult]:
    """One :class:`FigureResult` per structure of a :func:`figure_spec`
    study, from its per-unit counts (unit id -> counts, as
    ``StudyResult.classifications()`` and ``merge_studies`` give them);
    a unit without counts leaves its cell out."""
    from repro.sched import WorkUnit
    figures = {s: FigureResult(s, spec.benchmarks, spec.setups)
               for s in spec.structures}
    for uid, counts in units.items():
        unit = WorkUnit.from_id(uid)
        figures[unit.structure].cells[(unit.benchmark, unit.setup)] = counts
    return list(figures.values())


def golden_stats(benchmarks=None, setups=SETUPS, scaled=True) -> dict:
    """Fault-free runtime statistics per (benchmark, setup).

    These are the numbers behind the paper's remark explanations
    (issued vs committed loads, hit/miss counts, replacements...).
    """
    from repro.bench import suite
    from repro.sim.config import setup_config
    from repro.sim.gem5 import build_sim
    if benchmarks is None:
        benchmarks = suite.benchmark_names()
    out = {}
    for bench in benchmarks:
        for setup in setups:
            config = setup_config(setup, scaled=scaled)
            sim = build_sim(suite.program(bench, config.isa), config)
            outcome = sim.run()
            if outcome.reason != "exit":
                raise RuntimeError(
                    f"golden run failed for {bench}/{setup}: "
                    f"{outcome.reason}")
            out[(bench, setup)] = outcome.stats
    return out
