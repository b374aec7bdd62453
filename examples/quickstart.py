"""Quickstart: build, exercise, and report on a reliable variable-latency
carry select adder (VLCSA 1, thesis Ch. 5).

Run with::

    python examples/quickstart.py
"""

from repro import (
    analyze_timing,
    area,
    build_kogge_stone_adder,
    build_vlcsa1,
    check_circuit,
    simulate,
    to_verilog,
)
from repro.model.latency import VariableLatencyTiming, average_cycle
from repro.model.error_model import scsa_error_rate


def main() -> None:
    width, window = 64, 14  # thesis Table 7.4 operating point @0.01% error

    # 1. Build the netlist and validate its structure.
    adder = build_vlcsa1(width, window)
    check_circuit(adder)
    print(f"built {adder.name}: {adder.num_gates} gates")

    # 2. A clean addition completes in one cycle (err = 0).
    out = simulate(adder, {"a": 123_456_789, "b": 987_654_321})
    assert out["err"] == 0
    assert out["sum"] == 123_456_789 + 987_654_321
    print(f"1-cycle add: 123456789 + 987654321 = {out['sum']} (err={out['err']})")

    # 3. A long cross-window carry chain stalls; recovery is exact.
    a, b = (1 << 40) - 1, 1  # generate at bit 0, propagates to bit 40
    out = simulate(adder, {"a": a, "b": b})
    assert out["err"] == 1
    assert out["sum_rec"] == a + b
    print(f"2-cycle add: {a:#x} + 1 stalls (err=1), recovery = {out['sum_rec']:#x}")

    # 4. Timing/area report: the three paths of Fig. 7.4.
    report = analyze_timing(adder)
    t_spec = report.bus_delay("sum")
    t_detect = report.bus_delay("err")
    t_recover = report.bus_delay("sum_rec")
    print(f"paths: speculative {t_spec:.3f}  detection {t_detect:.3f}  "
          f"recovery {t_recover:.3f}  (ns-like units)")
    print(f"area: {area(adder):.0f} µm²-like "
          f"(Kogge-Stone reference: {area(build_kogge_stone_adder(width)):.0f})")

    # 5. Average latency per thesis Eq. 5.2.
    timing = VariableLatencyTiming(t_spec, t_detect, t_recover)
    p_err = scsa_error_rate(width, window)
    print(f"error rate (Eq. 3.13): {p_err:.4%}; "
          f"average cycle: {average_cycle(timing, p_err):.4f} "
          f"vs clock {timing.t_clk:.4f}")

    # 6. Export synthesizable Verilog of the combinational core.
    verilog = to_verilog(adder)
    print(f"Verilog export: {len(verilog.splitlines())} lines "
          f"(write with repro.rtl.write_verilog)")

    # 7. Run the complete clocked machine at gate level (16 bits for speed),
    #    and emit it as RTL: next-state logic plus one register block.
    from repro.core import PipelinedAdder, build_machine
    from repro.rtl import clocked_to_verilog

    machine = build_machine(build_vlcsa1(16, 4))
    pipe = PipelinedAdder(machine)
    stream = [(100, 200), ((1 << 12) - 1, 1), (7, 8)]  # middle one stalls
    results, stats = pipe.run_stream(stream)
    assert results == [a + b for a, b in stream]
    print(f"gate-level pipeline: {stats.operations} ops in {stats.cycles} "
          f"cycles ({stats.stall_cycles} stall); clocked RTL: "
          f"{len(clocked_to_verilog(machine).splitlines())} lines")


if __name__ == "__main__":
    main()
