"""Figures 7.10/7.11: VLCSA 2 versus the DesignWare adder.

Paper (Table 7.5 window sizes, 2's-complement Gaussian operands): the
single-cycle path of VLCSA 2 is ~10% below DesignWare (a synthesis
constraint their flow was able to meet); area requirement is +1..62%
@0.01% (-17..+29% @0.25%), larger than VLCSA 1's "due to additional
circuitry of speculative addition and error detection", improving with
width.

Reproduction note (EXPERIMENTS.md): without constraint-driven gate
sizing, our unconstrained STA puts VLCSA 2's detection-bound single-cycle
path near parity with DesignWare at large widths and above it at small
widths; the area ordering and the VLCSA2-costs-more-than-VLCSA1 shape
reproduce.
"""

from repro.analysis.report import format_table, percent, ratio
from repro.analysis.sizing import THESIS_TABLE_7_4, THESIS_TABLE_7_5
from repro.engine.elab import measure_design
from repro.model.latency import VariableLatencyTiming

from benchmarks.conftest import run_once


def test_fig_7_10_7_11_vlcsa2_vs_designware(benchmark):
    def compute():
        rows = []
        for n in sorted(THESIS_TABLE_7_5):
            k_low, k_high = THESIS_TABLE_7_5[n]
            rows.append(
                (
                    n,
                    measure_design("designware", n),
                    measure_design("vlcsa1", n, THESIS_TABLE_7_4[n][0]),
                    measure_design("vlcsa2", n, k_low),
                    measure_design("vlcsa2", n, k_high),
                )
            )
        return rows

    rows = run_once(benchmark, compute)

    print()
    print(
        format_table(
            ["n", "DW d", "VLCSA2 d", "Δd", "rec",
             "area@.01", "Δ", "area@.25", "Δ", "VLCSA1 area"],
            [
                (
                    n,
                    f"{dw.delay:.3f}",
                    f"{lo.delay:.3f}", percent(ratio(lo.delay, dw.delay)),
                    f"{lo.t_recover:.3f}",
                    f"{lo.area:.0f}", percent(ratio(lo.area, dw.area)),
                    f"{hi.area:.0f}", percent(ratio(hi.area, dw.area)),
                    f"{v1.area:.0f}",
                )
                for n, dw, v1, lo, hi in rows
            ],
            title="Figs 7.10/7.11 — VLCSA 2 vs DesignWare "
            "(paper: -10% delay by synthesis constraint; area +1..62% "
            "@0.01%, -17..+29% @0.25%)",
        )
    )

    for n, dw, vlcsa1, low_err, high_err in rows:
        # Delay: within ~±20% of DesignWare (see module docstring); the
        # recovery path still fits two single-cycle periods.
        assert low_err.delay < 1.2 * dw.delay, n
        t = VariableLatencyTiming(
            low_err.t_spec, low_err.t_detect, low_err.t_recover
        )
        assert t.recovery_fits_two_cycles, n
        # Fig 7.11 shapes: VLCSA 2 costs more than VLCSA 1; the 0.25%
        # design is smaller than the 0.01% one.
        assert low_err.area > vlcsa1.area * 0.95, n
        assert high_err.area < low_err.area, n
    # area requirement vs DW improves with width (paper's trend)
    gaps = [ratio(lo.area, dw.area) for _, dw, _, lo, _ in rows]
    assert gaps[-1] < gaps[0]
    # delay gap vs DW narrows with width (approaches the paper's claim)
    dgaps = [ratio(lo.delay, dw.delay) for _, dw, _, lo, _ in rows]
    assert dgaps[-1] < dgaps[0]
