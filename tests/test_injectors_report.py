"""Tests for the MaFIN/GeFIN facades and the figure reporting layer."""

import pytest

from repro.core.campaign import CampaignResult
from repro.core.outcome import (ASSERT, CRASH, MASKED, SDC,
                                GoldenReference, InjectionRecord)
from repro.core.report import SETUP_SHORT, SETUPS, FigureResult
from repro.injectors.gefin import GeFIN
from repro.injectors.mafin import MaFIN


class TestFacades:
    def test_mafin_is_x86_marss(self):
        m = MaFIN()
        assert m.config.name == "marss"
        assert m.isa == "x86"
        assert m.setup_label == "MaFIN-x86"

    def test_gefin_isas(self):
        assert GeFIN("x86").config.isa == "x86"
        assert GeFIN("arm").setup_label == "GeFIN-ARM"
        with pytest.raises(ValueError):
            GeFIN("riscv")

    def test_structures_table4(self):
        mafin = set(MaFIN().structures())
        gefin = set(GeFIN("x86").structures())
        # Common Table IV rows.
        for name in ("lsq", "iq", "int_rf", "fp_rf", "l1d", "l1d_tag",
                     "l1i", "l1i_tag", "l2", "l2_tag", "dtlb", "itlb",
                     "btb"):
            assert name in mafin and name in gefin
        # MaFIN's additions (the paper's "Modified"/"New" rows).
        assert {"l1d_pref", "l1i_pref", "btb_ind"} <= mafin
        assert not {"l1d_pref", "l1i_pref", "btb_ind"} & gefin

    def test_features_table1(self):
        for inj in (MaFIN(), GeFIN("arm")):
            feats = inj.features()
            assert feats["full_system"]
            assert feats["targets_all_major_structures"]
            assert set(feats["fault_models"]) >= {"transient",
                                                  "intermittent",
                                                  "permanent"}
        assert GeFIN.isas_supported() == ["x86", "arm"]
        assert MaFIN.isas_supported() == ["x86"]

    def test_build_campaign_object(self):
        campaign = MaFIN().build_campaign("sha", "lsq", seed=3)
        assert campaign.structure == "lsq"
        assert campaign.config.label == "MaFIN-x86"


def _fake_result(setup, benchmark, reasons):
    golden = GoldenReference(cycles=100, exit_code=0, output_hex="00",
                             events=[])
    res = CampaignResult(setup=setup, benchmark=benchmark, structure="l1d",
                         golden=golden)
    for i, reason in enumerate(reasons):
        output_hex = ""
        if reason == "sdc":
            reason, output_hex = "exit", "ff"
        elif reason == "ok":
            reason, output_hex = "exit", "00"
        res.records.append(InjectionRecord(
            set_id=i, masks=[], reason=reason, exit_code=0, events=[],
            output_hex=output_hex))
    return res


class TestFigureResult:
    def make_fig(self):
        """A figure's cells are classification counts, as a study's
        units report them."""
        runs = {("bm1", "MaFIN-x86"): ["ok", "ok", "sdc", "assert"],
                ("bm2", "MaFIN-x86"): ["ok", "ok", "ok", "sdc"],
                ("bm1", "GeFIN-x86"): ["ok", "sdc", "sdc", "killed"],
                ("bm2", "GeFIN-x86"): ["ok", "ok", "sdc", "sdc"],
                ("bm1", "GeFIN-ARM"): ["ok"] * 4,
                ("bm2", "GeFIN-ARM"): ["ok", "ok", "ok", "sdc"]}
        return FigureResult("l1d", benchmarks=("bm1", "bm2"), cells={
            cell: _fake_result(cell[1], cell[0], reasons).classify()
            for cell, reasons in runs.items()})

    def test_percentages(self):
        fig = self.make_fig()
        pct = fig.percentages("bm1", "MaFIN-x86")
        assert pct[MASKED] == 50.0
        assert pct[SDC] == 25.0
        assert pct[ASSERT] == 25.0

    def test_average_across_benchmarks(self):
        fig = self.make_fig()
        avg = fig.average("MaFIN-x86")
        assert avg[MASKED] == pytest.approx(62.5)
        assert avg[SDC] == pytest.approx(25.0)

    def test_vulnerabilities(self):
        fig = self.make_fig()
        assert fig.cells[("bm1", "GeFIN-x86")][CRASH] == 1
        assert fig.vulnerability("bm1", "GeFIN-x86") == pytest.approx(75.0)
        assert fig.average_vulnerability("GeFIN-ARM") == pytest.approx(12.5)

    def test_render_contains_all_rows(self):
        text = self.make_fig().render()
        assert "l1d" in text
        for label in ("bm1", "bm2", "AVG", "M-x86", "G-x86", "G-ARM"):
            assert label in text

    def test_summary_rows(self):
        rows = self.make_fig().summary_rows()
        setups = {r["setup"] for r in rows}
        assert setups == {"M-x86", "G-x86", "G-ARM"}
        avg_rows = [r for r in rows if r["benchmark"] == "AVG"]
        assert len(avg_rows) == 3
        m = next(r for r in avg_rows if r["setup"] == "M-x86")
        assert m["vulnerability"] == pytest.approx(37.5)

    def test_setup_labels_cover_paper(self):
        assert SETUPS == ("MaFIN-x86", "GeFIN-x86", "GeFIN-ARM")
        assert SETUP_SHORT["GeFIN-ARM"] == "G-ARM"
