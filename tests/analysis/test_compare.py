"""Tests for design measurement (repro.engine.elab.measure_design)."""

import pytest

from repro.engine.cache import ElaborationCache
from repro.engine.elab import WINDOWED_DESIGNS, build_design, measure_design, path_split


class TestMetricsContents:
    def test_fixed_adder_has_no_path_split(self):
        m = measure_design("kogge_stone", 64)
        assert m.t_spec is None and m.t_detect is None and m.t_recover is None
        assert m.delay > 0 and m.area > 0 and m.gates > 0

    def test_variable_latency_has_path_split(self):
        m = measure_design("vlcsa1", 64, 14)
        assert m.t_spec is not None
        assert m.t_detect is not None
        assert m.t_recover is not None
        assert m.delay == pytest.approx(max(m.t_spec, m.t_detect))

    def test_recovery_slower_than_single_cycle(self):
        for m in (measure_design("vlcsa1", 64, 14), measure_design("vlcsa2", 64, 13), measure_design("vlsa", 64, 17)):
            assert m.t_recover > m.delay * 0.9  # recovery path is the long one

    def test_measurements_are_cached(self):
        """``cache=None`` is the process memory cache: a repeat call
        returns the memoized row object."""
        assert measure_design("kogge_stone", 32) is measure_design("kogge_stone", 32)

    def test_cache_clear(self):
        """A fresh cache re-measures: a new, equal row object."""
        m1 = measure_design("kogge_stone", 32)
        m2 = measure_design("kogge_stone", 32, cache=ElaborationCache())
        assert m2 is not m1 and m2 == m1

    def test_measure_adder_generic(self):
        """Every plain adder ``build_design`` builds is measurable."""
        m = measure_design("brent_kung", 32)
        assert m.width == 32
        assert m.t_spec is None and m.delay > 0 and m.gates > 0

    def test_window_defaults_like_build_design(self):
        from repro.analysis.sizing import default_window

        assert measure_design("scsa1", 64) is measure_design(
            "scsa1", 64, default_window(64)
        )

    def test_fixed_design_takes_no_window(self):
        with pytest.raises(ValueError, match="takes no window"):
            measure_design("kogge_stone", 32, 8)

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            measure_design("abacus", 32)


class TestPathSplit:
    """The (spec, detect, recover) buses are read off the netlist."""

    @pytest.mark.parametrize(
        "name, options, split",
        [
            ("vlcsa2", {}, (("sum0", "sum1"), ("err0", "err1", "err"), ("sum_rec",))),
            ("vlcsa2", {"style": "select"},
             (("sum",), ("err0", "err1", "err"), ("sum_rec",))),
            ("scsa2", {}, (("sum0", "sum1"), (), ())),
            ("vlcsa1", {}, (("sum",), ("err",), ("sum_rec",))),
            ("vlsa", {}, (("sum",), ("err",), ("sum_rec",))),
            ("scsa1", {}, ((), (), ())),
            ("vlsa_spec", {}, ((), (), ())),
            ("kogge_stone", {}, ((), (), ())),
            ("designware", {}, ((), (), ())),
        ],
    )
    def test_split_per_design(self, name, options, split):
        window = 4 if name in WINDOWED_DESIGNS else None
        assert path_split(build_design(name, 16, window, options)) == split

    def test_spec_only_design_reports_critical_delay(self):
        m = measure_design("scsa2", 32, 6)
        assert m.t_spec is not None and m.t_detect is None and m.t_recover is None
        assert m.delay >= m.t_spec


class TestThesisShapes:
    """The qualitative claims of Ch. 7, as regression-guarded inequalities."""

    @pytest.mark.parametrize("n,k", [(64, 14), (128, 15), (256, 16), (512, 17)])
    def test_scsa1_faster_and_smaller_than_kogge_stone(self, n, k):
        """Fig. 7.2/7.3: SCSA 1 beats Kogge-Stone on both axes at 0.01%."""
        scsa = measure_design("scsa1", n, k)
        ks = measure_design("kogge_stone", n)
        assert scsa.delay < ks.delay
        assert scsa.area < ks.area

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_scsa1_smaller_than_vlsa_speculative(self, n):
        """Fig. 7.3: window-level speculation beats per-bit speculation on
        area at matched error rate."""
        from repro.analysis.sizing import THESIS_TABLE_7_3

        k, l = THESIS_TABLE_7_3[n]
        assert measure_design("scsa1", n, k).area <= measure_design("vlsa_spec", n, l).area * 1.05

    @pytest.mark.parametrize("n,k", [(64, 10), (256, 12)])
    def test_higher_error_rate_trades_area(self, n, k):
        """Fig. 7.7: the 0.25% design is smaller than the 0.01% design."""
        from repro.analysis.sizing import THESIS_TABLE_7_4

        k_low = THESIS_TABLE_7_4[n][0]
        assert measure_design("scsa1", n, k).area < measure_design("scsa1", n, k_low).area

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_vlcsa1_single_cycle_faster_than_designware(self, n):
        """Fig. 7.8: VLCSA 1 beats the DesignWare adder when speculation
        is correct."""
        from repro.analysis.sizing import THESIS_TABLE_7_4

        k = THESIS_TABLE_7_4[n][0]
        assert measure_design("vlcsa1", n, k).delay < measure_design("designware", n).delay

    @pytest.mark.parametrize("n", [256, 512])
    def test_vlcsa1_area_below_kogge_stone_at_large_n(self, n):
        """Fig. 7.5: despite detection+recovery, VLCSA 1 undercuts KS."""
        from repro.analysis.sizing import THESIS_TABLE_7_4

        k = THESIS_TABLE_7_4[n][0]
        assert measure_design("vlcsa1", n, k).area < measure_design("kogge_stone", n).area

    def test_vlcsa2_costs_more_area_than_vlcsa1(self):
        """Fig. 7.11 vs 7.9: the second hypothesis and ERR1 cost area."""
        assert measure_design("vlcsa2", 256, 13).area > measure_design("vlcsa1", 256, 16).area * 0.95

    def test_scsa2_spec_no_deeper_than_scsa1(self):
        """Thesis 6.5: S*1 adds no logic depth over S*0."""
        m1 = measure_design("scsa1", 128, 13)
        m2 = measure_design("scsa2", 128, 13)
        assert m2.delay <= m1.delay * 1.15

    def test_vlcsa2_select_style_smaller_than_dual(self):
        dual = measure_design("vlcsa2", 128, 13, options={"style": "dual"})
        select = measure_design("vlcsa2", 128, 13, options={"style": "select"})
        assert select.area < dual.area
