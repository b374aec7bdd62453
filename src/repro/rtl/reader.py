"""Read back the structural Verilog subset emitted by :mod:`repro.rtl.verilog`.

This is deliberately not a general Verilog frontend: it parses exactly the
shape our emitter produces (module header, input/output declarations, wire
declarations, one continuous assignment per gate, in topological order).
Round-tripping ``circuit -> Verilog -> circuit`` and checking functional
equivalence is how the test suite proves the emission is faithful.
:func:`clocked_from_verilog` reads a clocked design back the same way: its
next-state module, plus the one register block
:func:`repro.rtl.verilog.clocked_to_verilog` writes around it.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.netlist.circuit import Circuit, NetlistError

if TYPE_CHECKING:
    from repro.netlist.clocked import ClockedDesign


class VerilogParseError(Exception):
    """Raised when the input is outside the emitted Verilog subset."""


_MODULE_RE = re.compile(r"module\s+(\w+)\s*\(([^)]*)\)\s*;")
_PORT_RE = re.compile(r"(input|output)\s+(?:\[(\d+):0\]\s+)?(\w+)\s*;")
_ASSIGN_RE = re.compile(r"assign\s+([\w\[\]]+)\s*=\s*(.+?)\s*;")

_OPERAND = r"(~?[\w\[\]']+)"
_BINARY_RE = re.compile(rf"^{_OPERAND}\s*([&|^])\s*{_OPERAND}$")
_NEG_BINARY_RE = re.compile(rf"^~\(\s*(\S+?)\s*([&|^])\s*(\S+?)\s*\)$")
_MUX_RE = re.compile(rf"^(\S+)\s*\?\s*(\S+)\s*:\s*(\S+)$")
_AOI21_RE = re.compile(r"^~\(\((\S+) & (\S+)\) \| (\S+)\)$")
_OAI21_RE = re.compile(r"^~\(\((\S+) \| (\S+)\) & (\S+)\)$")
_AOI22_RE = re.compile(r"^~\(\((\S+) & (\S+)\) \| \((\S+) & (\S+)\)\)$")
_OAI22_RE = re.compile(r"^~\(\((\S+) \| (\S+)\) & \((\S+) \| (\S+)\)\)$")

_MODULES_RE = re.compile(r"\bmodule\b.*?\bendmodule\b", re.S)
_ALWAYS_RE = re.compile(
    r"always\s*@\(posedge clk or negedge rst_n\)\s*begin\s*"
    r"if\s*\(!rst_n\)\s*begin(.*?)\bend\s+else\s+begin(.*?)\bend\s+end\b",
    re.S,
)
_RESET_RE = re.compile(r"(\w+)\s*<=\s*\d+'d(\d+)\s*;")
_LOAD_RE = re.compile(r"(\w+)\s*<=\s*(\w+)(?:\[\d+:0\])?\s*;")

_BINARY_KIND = {"&": "AND2", "|": "OR2", "^": "XOR2"}
_NEG_BINARY_KIND = {"&": "NAND2", "|": "NOR2", "^": "XNOR2"}


def _strip_comments(text: str) -> str:
    return re.sub(r"//[^\n]*", "", text)


def from_verilog(text: str) -> Circuit:
    """Parse emitted structural Verilog back into a :class:`Circuit`."""
    text = _strip_comments(text)
    header = _MODULE_RE.search(text)
    if header is None:
        raise VerilogParseError("no module header found")
    circuit = Circuit(header.group(1))

    inputs: List[Tuple[str, int]] = []
    outputs: List[Tuple[str, int]] = []
    for direction, msb, name in _PORT_RE.findall(text):
        width = int(msb) + 1 if msb else 1
        if direction == "input":
            inputs.append((name, width))
        else:
            outputs.append((name, width))
    if not outputs:
        raise VerilogParseError("module declares no outputs")

    nets: Dict[str, int] = {}
    for name, width in inputs:
        bus = circuit.add_input_bus(name, width)
        if width == 1:
            nets[name] = bus[0]
        else:
            for i, net in enumerate(bus):
                nets[f"{name}[{i}]"] = net

    output_bits: Dict[str, Dict[int, int]] = {name: {} for name, _ in outputs}
    output_widths = dict(outputs)

    def resolve(token: str) -> int:
        if token == "1'b0":
            return circuit.const0()
        if token == "1'b1":
            return circuit.const1()
        if token.startswith("~"):
            return circuit.not_(resolve(token[1:]))
        if token not in nets:
            raise VerilogParseError(f"reference to undefined net {token!r}")
        return nets[token]

    def parse_expr(expr: str) -> int:
        expr = expr.strip()
        for regex, kinds in ((_AOI22_RE, "AOI22"), (_OAI22_RE, "OAI22"),
                             (_AOI21_RE, "AOI21"), (_OAI21_RE, "OAI21")):
            m = regex.match(expr)
            if m:
                return circuit.add_gate(kinds, [resolve(t) for t in m.groups()])
        m = _MUX_RE.match(expr)
        if m:
            sel, d1, d0 = (resolve(t) for t in m.groups())
            return circuit.mux2(sel, d0, d1)
        m = _NEG_BINARY_RE.match(expr)
        if m:
            a, op, b = m.groups()
            return circuit.add_gate(_NEG_BINARY_KIND[op], [resolve(a), resolve(b)])
        m = _BINARY_RE.match(expr)
        if m:
            a, op, b = m.groups()
            return circuit.add_gate(_BINARY_KIND[op], [resolve(a), resolve(b)])
        if re.match(r"^~?[\w\[\]']+$", expr):
            # Alias, constant, or inverted reference.
            return resolve(expr)
        raise VerilogParseError(f"unrecognized expression {expr!r}")

    bit_ref = re.compile(r"^(\w+)\[(\d+)\]$")
    for target, expr in _ASSIGN_RE.findall(text):
        m = bit_ref.match(target)
        base, bit = (m.group(1), int(m.group(2))) if m else (target, 0)
        if base in output_bits:
            output_bits[base][bit] = parse_expr(expr)
        else:
            nets[target] = parse_expr(expr)

    for name, width in outputs:
        bits = output_bits[name]
        missing = [i for i in range(width) if i not in bits]
        if missing:
            raise VerilogParseError(f"output {name!r} bits {missing} unassigned")
        circuit.set_output_bus(name, [bits[i] for i in range(output_widths[name])])
    return circuit


def clocked_from_verilog(text: str) -> "ClockedDesign":
    """Parse :func:`repro.rtl.verilog.clocked_to_verilog` output back into
    a :class:`~repro.netlist.clocked.ClockedDesign`."""
    from repro.netlist.clocked import ClockedDesign, RegisterSpec

    modules = _MODULES_RE.findall(_strip_comments(text))
    if len(modules) != 2:
        raise VerilogParseError("expected a next-state module and its register wrapper")
    next_state, wrapper = modules
    circuit = from_verilog(next_state)
    if not re.search(rf"^\s*{circuit.name}\s+\w+\s*\(", wrapper, re.M):
        raise VerilogParseError(f"the wrapper does not instantiate {circuit.name!r}")
    block = _ALWAYS_RE.search(wrapper)
    if block is None:
        raise VerilogParseError("the wrapper has no register block")
    resets = dict(_RESET_RE.findall(block.group(1)))
    loads = _LOAD_RE.findall(block.group(2))
    if not loads or set(resets) != {q for q, _ in loads}:
        raise VerilogParseError("every register needs one reset value and one next state")
    registers = [RegisterSpec(q, d, int(resets[q])) for q, d in loads]
    try:
        return ClockedDesign(circuit, registers)
    except NetlistError as exc:
        raise VerilogParseError(str(exc)) from None
