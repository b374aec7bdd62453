"""Design-space exploration: choosing a window size (thesis Ch. 7.5).

Sweeps the SCSA window size at a fixed adder width, printing the
error/delay/area frontier against the Kogge-Stone and DesignWare
baselines, then solves the thesis' two operating points (0.01% and 0.25%)
and quantifies the trade the thesis highlights: "if the error rate is
0.25% instead of 0.01%, on average, we can save 17% area by increasing
0.12% average cycle."

Run with::

    python examples/design_space.py [width]
"""

import sys

from repro import measure_design, scsa_window_size_for
from repro.analysis.report import format_table, percent, ratio
from repro.model.error_model import scsa_error_rate
from repro.model.latency import VariableLatencyTiming, average_cycle


def sweep(width: int) -> None:
    ks = measure_design("kogge_stone", width)
    dw = measure_design("designware", width)
    print(f"baselines @ n={width}:  Kogge-Stone delay {ks.delay:.3f} / "
          f"area {ks.area:.0f};  DesignWare delay {dw.delay:.3f} / "
          f"area {dw.area:.0f}\n")

    rows = []
    for k in range(6, 22, 2):
        m = measure_design("vlcsa1", width, k)
        p = scsa_error_rate(width, k)
        timing = VariableLatencyTiming(m.t_spec, m.t_detect, m.t_recover)
        rows.append(
            (
                k,
                f"{p:.2e}",
                f"{m.delay:.3f}",
                percent(ratio(m.delay, dw.delay)),
                f"{m.area:.0f}",
                percent(ratio(m.area, dw.area)),
                f"{average_cycle(timing, p):.3f}",
            )
        )
    print(
        format_table(
            ["k", "P_err", "1-cycle delay", "vs DW", "area", "vs DW", "avg cycle"],
            rows,
            title=f"VLCSA 1 design space, n={width}",
        )
    )


def operating_points(width: int) -> None:
    k_low = scsa_window_size_for(width, 1e-4)
    k_high = scsa_window_size_for(width, 25e-4)
    m_low = measure_design("vlcsa1", width, k_low)
    m_high = measure_design("vlcsa1", width, k_high)
    t_low = VariableLatencyTiming(m_low.t_spec, m_low.t_detect, m_low.t_recover)
    t_high = VariableLatencyTiming(m_high.t_spec, m_high.t_detect, m_high.t_recover)
    ave_low = average_cycle(t_low, scsa_error_rate(width, k_low))
    ave_high = average_cycle(t_high, scsa_error_rate(width, k_high))

    area_saving = 1 - m_high.area / m_low.area
    cycle_cost = ave_high / t_high.t_clk - 1
    print(f"\nthesis operating points @ n={width}:")
    print(f"  0.01% -> k={k_low}:  area {m_low.area:.0f},  avg cycle {ave_low:.4f}")
    print(f"  0.25% -> k={k_high}:  area {m_high.area:.0f},  avg cycle {ave_high:.4f}")
    print(f"  relaxing 0.01% -> 0.25%: saves {area_saving:.0%} area for a "
          f"{cycle_cost:.2%} average-cycle penalty")
    print("  (thesis: 'save 17% area by increasing 0.12% average cycle')")


def frontier(width: int) -> None:
    from repro.analysis.pareto import design_space as sweep_space
    from repro.analysis.pareto import knee_point, pareto_front

    points = sweep_space(width, window_sizes=range(6, 22, 2))
    front = pareto_front(points)
    knee = knee_point(front)
    print("\nPareto frontier (error, delay, area — all minimized):")
    for p in front:
        marker = "  <- knee" if p == knee else ""
        print(f"  k={p.window_size:2d}  err={p.error_rate:.2e}  "
              f"delay={p.delay:.3f}  area={p.area:.0f}{marker}")


def main() -> None:
    width = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    sweep(width)
    operating_points(width)
    frontier(width)


if __name__ == "__main__":
    main()
