"""Figures are studies: one spec, run by the scheduler, rendered from
its per-unit counts."""

import json

from repro import tools
from repro.core.report import figure_spec, study_figures
from repro.sched import merge_studies, run_study


def test_figure_cells_are_the_study_units(tmp_path):
    spec = figure_spec(["int_rf", "l1d"], ["sha"],
                       setups=("MaFIN-x86", "GeFIN-ARM"), injections=3)
    assert spec.prune == "analyze"
    result = run_study(spec, tmp_path, workers=1)
    assert result.ok
    units = merge_studies([tmp_path])["units"]
    figs = study_figures(spec, result.classifications())
    assert [fig.structure for fig in figs] == ["int_rf", "l1d"]
    for fig in figs:
        assert set(fig.cells) == {("sha", "MaFIN-x86"),
                                  ("sha", "GeFIN-ARM")}
        for (bench, setup), counts in fig.cells.items():
            assert counts == units[f"{setup}/{bench}/{fig.structure}/"
                                   f"transient"]
            assert sum(counts.values()) == 3
    # Both figures share one golden run per (setup, benchmark) pair.
    names = [json.loads(line)["name"] for line in
             (tmp_path / "events.jsonl").read_text().splitlines()]
    assert names.count("golden_end") == 2
    text = figs[1].render()
    assert "l1d" in text and "sha" in text and "AVG" in text
    cell_rows = [r for r in figs[1].summary_rows()
                 if r["benchmark"] == "sha"]
    # 3 injections buys a very wide margin — honesty check.
    assert cell_rows and all(r["error_margin_99"] > 50 for r in cell_rows)


def test_rerun_resumes_and_another_spec_is_refused(tmp_path, capsys):
    argv = ["figures", "--structures", "int_rf", "--benchmarks", "sha",
            "--injections", "2", "--out", str(tmp_path)]
    assert tools.main(argv) == 0

    def outputs():
        return {p.name: p.read_bytes() for p in tmp_path.glob("fig2_*")}

    first = outputs()
    assert set(first) == {"fig2_int_rf.txt", "fig2_int_rf.json"}
    journal = (tmp_path / "journal.jsonl").read_bytes()
    assert tools.main(argv) == 0
    # Nothing leased, nothing journaled, the same figures byte for byte.
    assert (tmp_path / "journal.jsonl").read_bytes() == journal
    assert outputs() == first
    capsys.readouterr()
    assert tools.main(argv + ["--seed", "2"]) == 2
    assert "belongs to spec" in capsys.readouterr().err
    assert outputs() == first
