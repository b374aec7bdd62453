"""Figures 7.8/7.9: VLCSA 1 versus the DesignWare adder.

Paper (Table 7.4 window sizes): the "correctly speculated" single-cycle
path of VLCSA 1 is ~10% below the DesignWare adder, recovery stays under
two of those cycles, and the area requirement is -6..+42% @0.01%
(-19..+16% @0.25%) relative to DesignWare, improving with width.  Average
cycle follows Eq. 5.2: choosing 0.25% instead of 0.01% costs ~0.12% in
average cycle and saves ~17% area.
"""

from repro.analysis.report import format_table, percent, ratio
from repro.analysis.sizing import THESIS_TABLE_7_4
from repro.engine.elab import measure_design
from repro.model.error_model import scsa_error_rate
from repro.model.latency import VariableLatencyTiming, average_cycle

from benchmarks.conftest import run_once


def test_fig_7_8_7_9_vlcsa1_vs_designware(benchmark):
    def compute():
        rows = []
        for n in sorted(THESIS_TABLE_7_4):
            k_low, k_high = THESIS_TABLE_7_4[n]
            rows.append(
                (
                    n,
                    measure_design("designware", n),
                    (k_low, measure_design("vlcsa1", n, k_low)),
                    (k_high, measure_design("vlcsa1", n, k_high)),
                )
            )
        return rows

    rows = run_once(benchmark, compute)

    table = []
    for n, dw, (k_low, lo), (k_high, hi) in rows:
        t_hi = VariableLatencyTiming(hi.t_spec, hi.t_detect, hi.t_recover)
        ave_hi = average_cycle(t_hi, scsa_error_rate(n, k_high))
        table.append(
            (
                n,
                f"{dw.delay:.3f}",
                f"{lo.delay:.3f}", percent(ratio(lo.delay, dw.delay)),
                f"{lo.t_recover:.3f}",
                f"{lo.area:.0f}", percent(ratio(lo.area, dw.area)),
                f"{hi.area:.0f}", percent(ratio(hi.area, dw.area)),
                f"{(ave_hi / t_hi.t_clk - 1) * 100:.3f}%",
            )
        )

    print()
    print(
        format_table(
            ["n", "DW d", "VLCSA1 d", "Δd", "rec", "area@.01", "Δ",
             "area@.25", "Δ", "avg-cycle overhead@.25"],
            table,
            title="Figs 7.8/7.9 — VLCSA 1 vs DesignWare "
            "(paper: -10% delay; area -6..+42% @0.01%, -19..+16% @0.25%; "
            "recovery < 2 cycles; +0.12% avg cycle buys ~17% area)",
        )
    )

    for n, dw, (k_low, lo), (k_high, hi) in rows:
        assert lo.delay < dw.delay, n          # Fig 7.8
        assert hi.delay < dw.delay, n
        assert hi.area < lo.area, n            # error/area trade (Fig 7.9)
        t = VariableLatencyTiming(lo.t_spec, lo.t_detect, lo.t_recover)
        assert t.recovery_fits_two_cycles, n
        # Eq. 5.2 average-cycle penalty at 0.25% is a fraction of a percent
        t_hi = VariableLatencyTiming(hi.t_spec, hi.t_detect, hi.t_recover)
        overhead = average_cycle(t_hi, scsa_error_rate(n, k_high)) / t_hi.t_clk - 1
        assert overhead < 0.005, n
    # area requirement vs DW improves as width grows (paper's trend)
    area_gap = [ratio(lo.area, dw.area) for _, dw, (_, lo), _ in rows]
    assert area_gap[-1] < area_gap[0]
