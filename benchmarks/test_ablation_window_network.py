"""Ablation: prefix-network choice inside the SCSA window adders.

The thesis picks Kogge-Stone for the window sub-adders ("the possible
fastest adder design", §4.1) but notes any traditional adder works.  This
sweep quantifies what Brent-Kung / Sklansky / Han-Carlson windows trade:
BK windows are markedly smaller at a modest delay cost — an attractive
point the thesis leaves on the table.
"""

from repro.analysis.report import format_table, percent, ratio
from repro.engine.elab import measure_design
from repro.core import build_scsa_adder
from repro.netlist.area import area as circuit_area
from repro.netlist.optimize import optimize
from repro.netlist.timing import analyze_timing

from benchmarks.conftest import run_once

NETWORKS = ("kogge_stone", "brent_kung", "sklansky", "han_carlson")
N, K = 256, 16  # thesis Table 7.4 @0.01%


def test_ablation_window_network(benchmark):
    def compute():
        rows = []
        for net in NETWORKS:
            c, _ = optimize(build_scsa_adder(N, K, network_name=net))
            rows.append(
                (net, analyze_timing(c).critical_delay, circuit_area(c))
            )
        return rows

    rows = run_once(benchmark, compute)
    ks = measure_design("kogge_stone", N)

    print()
    print(
        format_table(
            ["window network", "delay", "vs KS-256 adder", "area", "vs KS-256 adder"],
            [
                (net, f"{d:.3f}", percent(ratio(d, ks.delay)),
                 f"{a:.0f}", percent(ratio(a, ks.area)))
                for net, d, a in rows
            ],
            title=f"Ablation — SCSA 1 (n={N}, k={K}) window prefix networks",
        )
    )

    by_net = {net: (d, a) for net, d, a in rows}
    # Every variant still beats the full-width Kogge-Stone on both axes.
    for net, (d, a) in by_net.items():
        assert d < ks.delay, net
        assert a < ks.area, net
    # Brent-Kung windows are the area-lean point.
    assert by_net["brent_kung"][1] < by_net["kogge_stone"][1]
    # Kogge-Stone windows are never slower than Brent-Kung ones.
    assert by_net["kogge_stone"][0] <= by_net["brent_kung"][0] * 1.02
