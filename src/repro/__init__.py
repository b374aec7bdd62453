"""repro — reproduction of "High Performance Reliable Variable Latency
Carry Select Addition" (Kai Du, Rice University / DATE 2012).

The package implements the paper's contribution (SCSA, VLCSA 1, VLCSA 2)
plus every substrate its evaluation depends on: a gate-level netlist
builder with static timing and area analysis over a 65 nm-class cell
library, nine conventional adder generators, a "virtual synthesis"
DesignWare substitute, analytical and Monte Carlo error models, input
workload generators (including instrumented cryptographic kernels), and a
variable-latency stall simulator.

Quick start::

    from repro import build_vlcsa1, simulate, analyze_timing

    adder = build_vlcsa1(width=64, window_size=14)
    out = simulate(adder, {"a": 123456789, "b": 987654321})
    assert out["sum_rec"] == 123456789 + 987654321
    if not out["err"]:
        assert out["sum"] == out["sum_rec"]   # single-cycle result

See README.md for the architecture overview and DESIGN.md / EXPERIMENTS.md
for the paper-experiment index.
"""

from repro._version import __version__, package_version  # noqa: F401

# Substrate
from repro.netlist import (
    Circuit,
    NetlistError,
    simulate,
    simulate_batch,
    analyze_timing,
    critical_delay,
    area,
    area_report,
    check_circuit,
    optimize,
)
from repro.cells import default_library, UMC65_LIKE, CellLibrary
from repro.rtl import to_verilog, from_verilog, to_testbench

# Conventional adders
from repro.adders import (
    ADDER_GENERATORS,
    build_ripple_adder,
    build_kogge_stone_adder,
    build_brent_kung_adder,
    build_sklansky_adder,
    build_han_carlson_adder,
    build_carry_select_adder,
    build_carry_skip_adder,
    build_carry_lookahead_adder,
    build_conditional_sum_adder,
    build_prefix_adder,
    build_designware_adder,
    designware_report,
)

# The paper's designs
from repro.core import (
    plan_windows,
    build_scsa_adder,
    build_scsa2_adder,
    build_vlcsa1,
    build_vlcsa2,
    build_vlsa,
    build_vlsa_speculative,
)

# Models
from repro.model import (
    scsa_error_rate,
    scsa_error_rate_exact,
    vlsa_error_rate_exact,
    monte_carlo_scsa_error_rate,
    window_profile,
    scsa1_error_flags,
    err0_flags,
    err1_flags,
    chain_length_histogram,
    longest_chain_lengths,
    VariableLatencyTiming,
    average_cycle,
    VariableLatencyAdderSim,
)

# Inputs
from repro.inputs import (
    uniform_operands,
    gaussian_operands,
    GAUSSIAN_SIGMA_THESIS,
    WORKLOADS,
)

# Execution engine
from repro.engine import (
    ElaborationCache,
    EngineMetrics,
    MonteCarloErrorJob,
    SweepJob,
    SweepPoint,
    measure_design,
    run_job,
    run_jobs,
)

# Analysis
from repro.analysis import (
    scsa_window_size_for,
    vlsa_chain_length_for,
    vlcsa2_window_size_for,
    measure_kogge_stone,
    measure_designware,
    measure_scsa1,
    measure_vlcsa1,
    measure_vlcsa2,
    measure_vlsa,
    THESIS_WIDTHS,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # substrate
    "Circuit",
    "NetlistError",
    "simulate",
    "simulate_batch",
    "analyze_timing",
    "critical_delay",
    "area",
    "area_report",
    "check_circuit",
    "optimize",
    "default_library",
    "UMC65_LIKE",
    "CellLibrary",
    "to_verilog",
    "from_verilog",
    "to_testbench",
    # adders
    "ADDER_GENERATORS",
    "build_ripple_adder",
    "build_kogge_stone_adder",
    "build_brent_kung_adder",
    "build_sklansky_adder",
    "build_han_carlson_adder",
    "build_carry_select_adder",
    "build_carry_skip_adder",
    "build_carry_lookahead_adder",
    "build_conditional_sum_adder",
    "build_prefix_adder",
    "build_designware_adder",
    "designware_report",
    # paper designs
    "plan_windows",
    "build_scsa_adder",
    "build_scsa2_adder",
    "build_vlcsa1",
    "build_vlcsa2",
    "build_vlsa",
    "build_vlsa_speculative",
    # models
    "scsa_error_rate",
    "scsa_error_rate_exact",
    "vlsa_error_rate_exact",
    "monte_carlo_scsa_error_rate",
    "window_profile",
    "scsa1_error_flags",
    "err0_flags",
    "err1_flags",
    "chain_length_histogram",
    "longest_chain_lengths",
    "VariableLatencyTiming",
    "average_cycle",
    "VariableLatencyAdderSim",
    # inputs
    "uniform_operands",
    "gaussian_operands",
    "GAUSSIAN_SIGMA_THESIS",
    "WORKLOADS",
    # engine
    "ElaborationCache",
    "EngineMetrics",
    "MonteCarloErrorJob",
    "SweepJob",
    "SweepPoint",
    "measure_design",
    "run_job",
    "run_jobs",
    # analysis
    "scsa_window_size_for",
    "vlsa_chain_length_for",
    "vlcsa2_window_size_for",
    "measure_kogge_stone",
    "measure_designware",
    "measure_scsa1",
    "measure_vlcsa1",
    "measure_vlcsa2",
    "measure_vlsa",
    "THESIS_WIDTHS",
]
