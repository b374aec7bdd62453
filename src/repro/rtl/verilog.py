"""Render a netlist as structural Verilog.

One continuous assignment per gate, in topological order, using only the
operators every synthesis tool maps directly onto standard cells.  Port and
bus names are taken from the circuit; internal nets are named ``n<index>``.
A clocked design is its next-state circuit in that form plus one wrapper
module holding the registers (:func:`clocked_to_verilog`).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List

from repro.netlist.circuit import Circuit, Gate, NetlistError

if TYPE_CHECKING:
    from repro.netlist.clocked import ClockedDesign

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _check_identifier(name: str) -> str:
    if not _IDENT_RE.match(name):
        raise NetlistError(f"{name!r} is not a legal Verilog identifier")
    return name


def _gate_expr(gate: Gate, ref: Dict[int, str]) -> str:
    ins = [ref[n] for n in gate.inputs]
    kind = gate.kind
    if kind == "CONST0":
        return "1'b0"
    if kind == "CONST1":
        return "1'b1"
    if kind == "BUF":
        return ins[0]
    if kind == "INV":
        return f"~{ins[0]}"
    if kind == "AND2":
        return f"{ins[0]} & {ins[1]}"
    if kind == "OR2":
        return f"{ins[0]} | {ins[1]}"
    if kind == "NAND2":
        return f"~({ins[0]} & {ins[1]})"
    if kind == "NOR2":
        return f"~({ins[0]} | {ins[1]})"
    if kind == "XOR2":
        return f"{ins[0]} ^ {ins[1]}"
    if kind == "XNOR2":
        return f"~({ins[0]} ^ {ins[1]})"
    if kind == "MUX2":
        sel, d0, d1 = ins
        return f"{sel} ? {d1} : {d0}"
    if kind == "AOI21":
        return f"~(({ins[0]} & {ins[1]}) | {ins[2]})"
    if kind == "OAI21":
        return f"~(({ins[0]} | {ins[1]}) & {ins[2]})"
    if kind == "AOI22":
        return f"~(({ins[0]} & {ins[1]}) | ({ins[2]} & {ins[3]}))"
    if kind == "OAI22":
        return f"~(({ins[0]} | {ins[1]}) & ({ins[2]} | {ins[3]}))"
    raise NetlistError(f"cannot emit Verilog for gate kind {kind!r}")


def _declare(kind: str, name: str, width: int) -> str:
    return f"  {kind} [{width - 1}:0] {name};" if width > 1 else f"  {kind} {name};"


def to_verilog(circuit: Circuit) -> str:
    """Return the circuit as a structural Verilog module string."""
    module = _check_identifier(circuit.name)
    in_buses = circuit.input_buses
    out_buses = circuit.output_buses
    if not out_buses:
        raise NetlistError(f"{circuit.name!r} has no outputs to emit")

    # Reference text for every net readable inside the module body.
    ref: Dict[int, str] = {}
    for name, nets in in_buses.items():
        _check_identifier(name)
        for i, net in enumerate(nets):
            ref[net] = f"{name}[{i}]" if len(nets) > 1 else name

    port_order = list(in_buses) + list(out_buses)
    lines: List[str] = []
    lines.append(f"// generated by repro (netlist {circuit.name!r}, "
                 f"{circuit.num_gates} gates)")
    lines.append(f"module {module} ({', '.join(port_order)});")
    for name, nets in in_buses.items():
        lines.append(_declare("input", name, len(nets)))
    for name, nets in out_buses.items():
        lines.append(_declare("output", _check_identifier(name), len(nets)))

    wires = [f"n{gate.output}" for gate in circuit.gates]
    for chunk_start in range(0, len(wires), 16):
        chunk = wires[chunk_start:chunk_start + 16]
        if chunk:
            lines.append(f"  wire {', '.join(chunk)};")

    for gate in circuit.gates:
        ref[gate.output] = f"n{gate.output}"
        lines.append(f"  assign n{gate.output} = {_gate_expr(gate, ref)};")

    for name, nets in out_buses.items():
        for i, net in enumerate(nets):
            target = f"{name}[{i}]" if len(nets) > 1 else name
            lines.append(f"  assign {target} = {ref[net]};")

    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def clocked_to_verilog(design: "ClockedDesign") -> str:
    """Return a clocked design as Verilog: :func:`to_verilog` of its
    next-state circuit, plus a ``<circuit>_top`` wrapper module.

    The wrapper's ports are ``clk``, the active-low asynchronous reset
    ``rst_n`` and the environment's buses (the circuit's free inputs and
    its outputs that are not next-state buses).  One ``always`` block
    loads each register bank's reset value, or its next state at each
    rising clock edge.
    """
    circuit = design.circuit
    in_buses, out_buses = circuit.input_buses, circuit.output_buses
    if {"clk", "rst_n"} & (set(in_buses) | set(out_buses)):
        raise NetlistError(f"{circuit.name!r} uses a port name the wrapper needs")
    d_buses = {reg.d_bus for reg in design.registers}
    env_in = design.free_inputs
    env_out = [name for name in out_buses if name not in d_buses]
    lines = [
        f"// registers of {circuit.name} (the next-state logic above)",
        f"module {_check_identifier(circuit.name + '_top')} "
        f"({', '.join(['clk', 'rst_n'] + env_in + env_out)});",
        "  input clk;",
        "  input rst_n;",
        *(_declare("input", name, len(in_buses[name])) for name in env_in),
        *(_declare("output", name, len(out_buses[name])) for name in env_out),
    ]
    resets, loads = [], []
    for reg in design.registers:
        width, d_width = len(in_buses[reg.q_bus]), len(out_buses[reg.d_bus])
        lines += [_declare("reg", reg.q_bus, width), _declare("wire", reg.d_bus, d_width)]
        resets.append(f"      {reg.q_bus} <= {width}'d{reg.reset_value};")
        d = reg.d_bus if d_width == 1 else f"{reg.d_bus}[{width - 1}:0]"
        loads.append(f"      {reg.q_bus} <= {d};")
    pins = ", ".join(f".{name}({name})" for name in [*in_buses, *out_buses])
    lines += [
        f"  {circuit.name} next_state ({pins});",
        "  always @(posedge clk or negedge rst_n) begin",
        "    if (!rst_n) begin",
        *resets,
        "    end else begin",
        *loads,
        "    end",
        "  end",
        "endmodule",
    ]
    return to_verilog(circuit) + "\n" + "\n".join(lines) + "\n"


def write_verilog(circuit: Circuit, path: str) -> None:
    """Write :func:`to_verilog` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_verilog(circuit))
