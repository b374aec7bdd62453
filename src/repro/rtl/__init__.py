"""Structural Verilog interchange.

The thesis' C++ generators emit Verilog that Design Compiler consumes.  We
keep that artifact: :func:`to_verilog` renders any netlist as synthesizable
structural Verilog (continuous assignments over the cell functions), and
:func:`from_verilog` reads the emitted subset back into a
:class:`~repro.netlist.circuit.Circuit`, which the tests use to prove the
emission is lossless.  :func:`clocked_to_verilog` and
:func:`clocked_from_verilog` do the same for a clocked design such as the
Fig. 5.3 machine (:func:`repro.core.pipeline.build_machine`): its
next-state circuit plus one register block.  :func:`to_testbench`
additionally renders a self-checking testbench with vectors pre-computed by
our simulator, so the designs can be validated under any external Verilog
simulator.
"""

from repro.rtl.verilog import clocked_to_verilog, to_verilog, write_verilog
from repro.rtl.reader import clocked_from_verilog, from_verilog, VerilogParseError
from repro.rtl.testbench import to_testbench

__all__ = [
    "to_verilog",
    "write_verilog",
    "clocked_to_verilog",
    "from_verilog",
    "clocked_from_verilog",
    "VerilogParseError",
    "to_testbench",
]
