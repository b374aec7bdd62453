"""Ablation: VLCSA 2 implementation styles (thesis §6.5 vs §6.7).

``dual``  — two full speculative buses, output select off the one-cycle
path (the Fig. 6.8 drawing + the §6.7 timing constraint).
``select`` — the S*0/S*1 choice folded into each window's select signal,
one extra mux per *window* (the §6.5 O(n/k) overhead claim).

Trade: ``select`` is smaller; ``dual`` keeps the one-cycle path free of
the serial ERR0 -> select dependency.
"""

from repro.analysis.report import format_table, percent, ratio
from repro.engine.elab import measure_design

from benchmarks.conftest import run_once

POINTS = [(64, 13), (128, 13), (256, 13), (512, 13)]


def test_ablation_vlcsa2_styles(benchmark):
    def compute():
        return [
            (n, k, measure_design("vlcsa2", n, k, options={"style": "dual"}),
             measure_design("vlcsa2", n, k, options={"style": "select"}))
            for n, k in POINTS
        ]

    rows = run_once(benchmark, compute)

    print()
    print(
        format_table(
            ["n", "dual delay", "select delay", "Δ delay",
             "dual area", "select area", "Δ area", "dual gates", "select gates"],
            [
                (
                    n,
                    f"{d.delay:.3f}", f"{s.delay:.3f}",
                    percent(ratio(s.delay, d.delay)),
                    f"{d.area:.0f}", f"{s.area:.0f}",
                    percent(ratio(s.area, d.area)),
                    d.gates, s.gates,
                )
                for n, k, d, s in rows
            ],
            title="Ablation — VLCSA 2 dual-bus vs folded-select implementation",
        )
    )

    for n, k, dual, select in rows:
        # select saves area (drops one n-bit mux row for m select muxes) ...
        assert select.area < dual.area, n
        # ... at the cost of a serialized ERR0->select->sum one-cycle path.
        assert select.delay >= dual.delay * 0.98, n
