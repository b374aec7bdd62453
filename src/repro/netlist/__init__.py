"""Gate-level netlist substrate.

This package replaces the thesis' C++-to-Verilog-to-Design-Compiler flow with
a pure-Python equivalent:

* :mod:`repro.netlist.circuit`  — netlist construction (nets, gates, buses).
* :mod:`repro.netlist.validate` — structural checks (thin wrapper over lint).
* :mod:`repro.netlist.lint`     — pass-based static analysis: structural,
  formal (BDD speculation-coverage proofs), and timing rules with text /
  JSON / SARIF output and a mutation self-test.
* :mod:`repro.netlist.rules`    — the lint-rule registry.
* :mod:`repro.netlist.simulate` — bit-parallel functional simulation.
* :mod:`repro.netlist.compile`  — vectorized simulation backend: levelized
  ``(level, kind)`` gate groups over uint64 bit-plane limbs, with
  bit-plane batch transposes, cached per netlist content hash.
* :mod:`repro.netlist.timing`   — static timing analysis (load-dependent).
* :mod:`repro.netlist.area`     — cell-area accounting.
* :mod:`repro.netlist.optimize` — peephole "synthesis" passes.

Circuits are combinational DAGs; gates are instances of the cells in
:mod:`repro.cells.library`.
"""

from repro.netlist.circuit import Circuit, Gate, NetlistError
from repro.netlist.validate import check_circuit, live_gate_fraction, unused_nets
from repro.netlist.lint import (
    Diagnostic,
    LintReport,
    MutationReport,
    Rule,
    format_text,
    mutation_self_test,
    report_from_dict,
    report_to_dict,
    reports_to_sarif,
    resolve_rules,
    run_lint,
)
from repro.netlist.simulate import (
    GATE_EVAL,
    simulate,
    simulate_batch,
    simulate_batch_reference,
)
from repro.netlist.compile import (
    CompiledKernel,
    CompiledSim,
    circuit_fingerprint,
    compile_circuit,
    levelize,
)
from repro.netlist.timing import TimingReport, analyze_timing, critical_delay
from repro.netlist.area import area, area_report, gate_counts
from repro.netlist.optimize import optimize, OptimizeStats, buffer_fanout
from repro.netlist.power import PowerReport, estimate_power
from repro.netlist.clocked import ClockedDesign, RegisterSpec
from repro.netlist.export import from_json, to_dot, to_json
from repro.netlist.faults import (
    Fault,
    FaultReport,
    apply_fault,
    enumerate_faults,
    fault_coverage,
    fault_coverage_reference,
)
from repro.netlist.bdd import (
    BDD,
    circuit_to_bdds,
    interleaved_order,
)

__all__ = [
    "Circuit",
    "Gate",
    "NetlistError",
    "check_circuit",
    "live_gate_fraction",
    "unused_nets",
    "Diagnostic",
    "LintReport",
    "MutationReport",
    "Rule",
    "format_text",
    "mutation_self_test",
    "report_from_dict",
    "report_to_dict",
    "reports_to_sarif",
    "resolve_rules",
    "run_lint",
    "GATE_EVAL",
    "simulate",
    "simulate_batch",
    "simulate_batch_reference",
    "CompiledKernel",
    "CompiledSim",
    "circuit_fingerprint",
    "compile_circuit",
    "levelize",
    "TimingReport",
    "analyze_timing",
    "critical_delay",
    "area",
    "area_report",
    "gate_counts",
    "optimize",
    "OptimizeStats",
    "buffer_fanout",
    "PowerReport",
    "estimate_power",
    "BDD",
    "circuit_to_bdds",
    "interleaved_order",
    "ClockedDesign",
    "RegisterSpec",
    "to_json",
    "from_json",
    "to_dot",
    "Fault",
    "FaultReport",
    "apply_fault",
    "enumerate_faults",
    "fault_coverage",
    "fault_coverage_reference",
]
