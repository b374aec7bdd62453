"""Tests for the figure-data exporter (repro.analysis.figures)."""

import json

import pytest

from repro.analysis.figures import FIGURES, export_figures, fig_3_5


class TestFigureData:
    def test_registry_covers_all_evaluation_figures(self):
        assert set(FIGURES) == {
            "fig3_5", "fig6_x", "fig7_1", "fig7_2_7_3", "fig7_4_7_5",
            "fig7_6_to_7_11",
        }

    def test_fig_3_5_shape(self):
        data = fig_3_5()
        assert data["figure"] == "3.5"
        assert len(data["x"]) == len(data["series"]["n=64"])
        assert all(len(v) == len(data["x"]) for v in data["series"].values())
        # monotone decreasing in k
        for series in data["series"].values():
            assert series == sorted(series, reverse=True)

    @pytest.mark.parametrize("name", ["fig7_2_7_3", "fig7_4_7_5"])
    def test_delay_area_figures_have_consistent_lengths(self, name):
        data = FIGURES[name](0)
        for series in data["series"].values():
            assert len(series) == len(data["x"])
        assert "paper" in data and data["paper"]

    def test_fig6_histograms_sum_to_one(self):
        data = FIGURES["fig6_x"](20_000)
        for name, series in data["series"].items():
            assert sum(series) == pytest.approx(1.0, abs=1e-6), name


class TestExport:
    def test_export_writes_valid_json(self, tmp_path):
        written = export_figures(str(tmp_path), names=["fig3_5"])
        assert len(written) == 1
        data = json.loads(open(written[0]).read())
        assert data["figure"] == "3.5"

    def test_export_all_default_names(self, tmp_path):
        written = export_figures(str(tmp_path), names=["fig3_5", "fig7_2_7_3"])
        assert len(written) == 2

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure"):
            export_figures(str(tmp_path), names=["fig9_9"])

    def test_creates_only_the_leaf_directory(self, tmp_path):
        (tmp_path / "file").write_text("")
        for out_dir in (tmp_path / "missing" / "out", tmp_path / "file" / "out"):
            with pytest.raises(OSError):
                export_figures(str(out_dir), names=["fig3_5"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        written = export_figures(str(tmp_path / "out"), names=["fig3_5"])
        assert written == [str(tmp_path / "out" / "fig3_5.json")]
