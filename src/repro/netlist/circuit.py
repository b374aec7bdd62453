"""Combinational netlist construction.

A :class:`Circuit` is a DAG of :class:`Gate` instances over integer-indexed
nets.  Construction is append-only: a gate may only reference nets that are
already driven (by a primary input, a constant, or an earlier gate), so the
gate list is always in topological order and simulation/timing are single
forward passes.

Buses are little-endian: ``bus[0]`` is the least significant bit.  This
matches the thesis' indexing (bit 0 = LSB) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class NetlistError(Exception):
    """Raised for structurally invalid netlist operations."""


#: Sentinel driver ids for nets not driven by a gate.
_DRIVER_NONE = -1
_DRIVER_INPUT = -2

#: Cell kinds a gate may instantiate, with their input arity.
GATE_ARITY: Dict[str, int] = {
    "CONST0": 0,
    "CONST1": 0,
    "BUF": 1,
    "INV": 1,
    "AND2": 2,
    "OR2": 2,
    "NAND2": 2,
    "NOR2": 2,
    "XOR2": 2,
    "XNOR2": 2,
    "MUX2": 3,  # inputs = (sel, d0, d1); out = d1 if sel else d0
    "AOI21": 3,  # out = ~((a & b) | c)
    "OAI21": 3,  # out = ~((a | b) & c)
    "AOI22": 4,  # out = ~((a & b) | (c & d))
    "OAI22": 4,  # out = ~((a | b) & (c | d))
}


@dataclass(frozen=True)
class Gate:
    """One cell instance: ``kind`` reading ``inputs``, driving ``output``."""

    kind: str
    inputs: Tuple[int, ...]
    output: int

    def __post_init__(self) -> None:
        arity = GATE_ARITY.get(self.kind)
        if arity is None:
            raise NetlistError(f"unknown gate kind {self.kind!r}")
        if len(self.inputs) != arity:
            raise NetlistError(
                f"{self.kind} expects {arity} inputs, got {len(self.inputs)}"
            )


class Circuit:
    """A combinational netlist with named input and output buses.

    Typical construction::

        c = Circuit("adder8")
        a = c.add_input_bus("a", 8)
        b = c.add_input_bus("b", 8)
        s = [c.xor2(a[i], b[i]) for i in range(8)]   # (just an example)
        c.set_output_bus("sum", s)
    """

    def __init__(self, name: str):
        self.name = name
        self.gates: List[Gate] = []
        self._net_names: List[Optional[str]] = []
        self._drivers: List[int] = []  # per net: gate index or sentinel
        self._input_buses: Dict[str, List[int]] = {}
        self._output_buses: Dict[str, List[int]] = {}
        self._port_names: set[str] = set()
        self._const_nets: Dict[int, int] = {}

    # ------------------------------------------------------------------ nets

    @property
    def num_nets(self) -> int:
        return len(self._drivers)

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def new_net(self, name: Optional[str] = None) -> int:
        """Allocate an undriven net and return its index."""
        net = len(self._drivers)
        self._drivers.append(_DRIVER_NONE)
        self._net_names.append(name)
        return net

    def net_name(self, net: int) -> str:
        """A printable name for ``net`` (auto-generated if unnamed)."""
        name = self._net_names[net]
        return name if name is not None else f"n{net}"

    def driver_of(self, net: int) -> Optional[Gate]:
        """The gate driving ``net``, or ``None`` for inputs/constants."""
        idx = self._drivers[net]
        return self.gates[idx] if idx >= 0 else None

    def is_driven(self, net: int) -> bool:
        """True when the net has a driver (input, constant, or gate)."""
        return self._drivers[net] != _DRIVER_NONE

    def is_input_net(self, net: int) -> bool:
        """True when the net is a primary-input bit."""
        return self._drivers[net] == _DRIVER_INPUT

    # ----------------------------------------------------------------- ports

    @property
    def input_buses(self) -> Dict[str, List[int]]:
        return {k: list(v) for k, v in self._input_buses.items()}

    @property
    def output_buses(self) -> Dict[str, List[int]]:
        return {k: list(v) for k, v in self._output_buses.items()}

    def _claim_port_name(self, name: str) -> None:
        if name in self._port_names:
            raise NetlistError(f"port name {name!r} already used in {self.name!r}")
        self._port_names.add(name)

    def add_input(self, name: str) -> int:
        """Declare a 1-bit primary input; returns its net."""
        return self.add_input_bus(name, 1)[0]

    def add_input_bus(self, name: str, width: int) -> List[int]:
        """Declare a ``width``-bit primary input bus (LSB first)."""
        if width < 1:
            raise NetlistError(f"bus width must be positive, got {width}")
        self._claim_port_name(name)
        nets = []
        for i in range(width):
            net = self.new_net(f"{name}[{i}]" if width > 1 else name)
            self._drivers[net] = _DRIVER_INPUT
            nets.append(net)
        self._input_buses[name] = nets
        return nets

    def set_output(self, name: str, net: int) -> None:
        """Declare a 1-bit primary output driven by ``net``."""
        self.set_output_bus(name, [net])

    def set_output_bus(self, name: str, nets: Sequence[int]) -> None:
        """Declare an output bus (LSB first).  All nets must be driven."""
        if not nets:
            raise NetlistError("output bus must have at least one net")
        self._claim_port_name(name)
        for net in nets:
            self._check_readable(net)
        self._output_buses[name] = list(nets)

    def output_bus(self, name: str) -> List[int]:
        """The nets of the named output bus (LSB first)."""
        try:
            return list(self._output_buses[name])
        except KeyError:
            raise NetlistError(
                f"no output bus {name!r} in {self.name!r}; "
                f"have {sorted(self._output_buses)}"
            ) from None

    def input_bus(self, name: str) -> List[int]:
        """The nets of the named input bus (LSB first)."""
        try:
            return list(self._input_buses[name])
        except KeyError:
            raise NetlistError(
                f"no input bus {name!r} in {self.name!r}; "
                f"have {sorted(self._input_buses)}"
            ) from None

    # ----------------------------------------------------------------- gates

    def _check_readable(self, net: int) -> None:
        if not 0 <= net < len(self._drivers):
            raise NetlistError(f"net {net} does not exist in {self.name!r}")
        if self._drivers[net] == _DRIVER_NONE:
            raise NetlistError(
                f"net {self.net_name(net)} used before being driven "
                f"(netlists are built in topological order)"
            )

    def add_gate(self, kind: str, inputs: Sequence[int], name: Optional[str] = None) -> int:
        """Instantiate a gate; returns the net it drives."""
        for net in inputs:
            self._check_readable(net)
        out = self.new_net(name)
        gate = Gate(kind, tuple(inputs), out)
        self._drivers[out] = len(self.gates)
        self.gates.append(gate)
        return out

    # Convenience single-gate builders -----------------------------------

    def const0(self) -> int:
        """The (memoized) constant-0 net."""
        if 0 not in self._const_nets:
            self._const_nets[0] = self.add_gate("CONST0", [], "const0")
        return self._const_nets[0]

    def const1(self) -> int:
        """The (memoized) constant-1 net."""
        if 1 not in self._const_nets:
            self._const_nets[1] = self.add_gate("CONST1", [], "const1")
        return self._const_nets[1]

    def buf(self, a: int, name: Optional[str] = None) -> int:
        """Non-inverting buffer."""
        return self.add_gate("BUF", [a], name)

    def not_(self, a: int, name: Optional[str] = None) -> int:
        """Inverter."""
        return self.add_gate("INV", [a], name)

    def and2(self, a: int, b: int, name: Optional[str] = None) -> int:
        """2-input AND."""
        return self.add_gate("AND2", [a, b], name)

    def or2(self, a: int, b: int, name: Optional[str] = None) -> int:
        """2-input OR."""
        return self.add_gate("OR2", [a, b], name)

    def nand2(self, a: int, b: int, name: Optional[str] = None) -> int:
        """2-input NAND."""
        return self.add_gate("NAND2", [a, b], name)

    def nor2(self, a: int, b: int, name: Optional[str] = None) -> int:
        """2-input NOR."""
        return self.add_gate("NOR2", [a, b], name)

    def xor2(self, a: int, b: int, name: Optional[str] = None) -> int:
        """2-input XOR."""
        return self.add_gate("XOR2", [a, b], name)

    def xnor2(self, a: int, b: int, name: Optional[str] = None) -> int:
        """2-input XNOR."""
        return self.add_gate("XNOR2", [a, b], name)

    def mux2(self, sel: int, d0: int, d1: int, name: Optional[str] = None) -> int:
        """2:1 multiplexer: output is ``d1`` when ``sel`` is 1, else ``d0``."""
        return self.add_gate("MUX2", [sel, d0, d1], name)

    def aoi21(self, a: int, b: int, c: int, name: Optional[str] = None) -> int:
        """AND-OR-invert: ``~((a & b) | c)``."""
        return self.add_gate("AOI21", [a, b, c], name)

    def oai21(self, a: int, b: int, c: int, name: Optional[str] = None) -> int:
        """OR-AND-invert: ``~((a | b) & c)``."""
        return self.add_gate("OAI21", [a, b, c], name)

    def aoi22(self, a: int, b: int, c: int, d: int, name: Optional[str] = None) -> int:
        """``~((a & b) | (c & d))``."""
        return self.add_gate("AOI22", [a, b, c, d], name)

    def oai22(self, a: int, b: int, c: int, d: int, name: Optional[str] = None) -> int:
        """``~((a | b) & (c | d))``."""
        return self.add_gate("OAI22", [a, b, c, d], name)

    # Balanced reduction trees --------------------------------------------

    def _tree(self, op: str, nets: Sequence[int], name: Optional[str]) -> int:
        if not nets:
            raise NetlistError(f"cannot build {op} tree over zero nets")
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.add_gate(op, [level[i], level[i + 1]]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        if name is not None and self._net_names[level[0]] is None:
            self._net_names[level[0]] = name
        return level[0]

    def _demorgan_tree(self, nets: Sequence[int], is_or: bool) -> int:
        """Balanced AND/OR over ``nets`` mapped onto NAND/NOR alternation.

        Technology mapping realises multi-input AND/OR trees as alternating
        inverting levels (De Morgan), which are faster and smaller than
        AND2/OR2 stacks; building them that way keeps the STA honest about
        detection-tree depth.  Values at odd levels are complemented; an
        odd leftover is inverted when promoted a level, and at most one INV
        fixes polarity at the root.
        """
        if not nets:
            raise NetlistError(
                f"cannot build {'OR' if is_or else 'AND'} tree over zero nets"
            )
        level = list(nets)
        inverted = False
        while len(level) > 1:
            if is_or:
                kind = "NAND2" if inverted else "NOR2"
            else:
                kind = "NOR2" if inverted else "NAND2"
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.add_gate(kind, [level[i], level[i + 1]]))
            if len(level) % 2:
                nxt.append(self.not_(level[-1]))
            level = nxt
            inverted = not inverted
        out = level[0]
        if inverted:
            out = self.not_(out)
        return out

    def and_tree(self, nets: Sequence[int], name: Optional[str] = None) -> int:
        """Balanced AND over ``nets`` (depth ceil(log2 N), NAND/NOR mapped)."""
        if len(nets) == 1:
            return self._tree("AND2", nets, name)
        out = self._demorgan_tree(list(nets), is_or=False)
        if name is not None and self._net_names[out] is None:
            self._net_names[out] = name
        return out

    def or_tree(self, nets: Sequence[int], name: Optional[str] = None) -> int:
        """Balanced OR over ``nets`` (NAND/NOR mapped)."""
        if len(nets) == 1:
            return self._tree("OR2", nets, name)
        out = self._demorgan_tree(list(nets), is_or=True)
        if name is not None and self._net_names[out] is None:
            self._net_names[out] = name
        return out

    def xor_tree(self, nets: Sequence[int], name: Optional[str] = None) -> int:
        """Balanced XOR over ``nets``."""
        return self._tree("XOR2", nets, name)

    # ------------------------------------------------------------- structure

    def fanout_counts(self) -> List[int]:
        """Number of gate-input pins each net drives.

        Primary-output connections add one unit of load each, modelling the
        downstream register/pin the thesis' synthesis constraints imply.
        """
        counts = [0] * self.num_nets
        for gate in self.gates:
            for net in gate.inputs:
                counts[net] += 1
        for nets in self._output_buses.values():
            for net in nets:
                counts[net] += 1
        return counts

    def count_by_kind(self) -> Dict[str, int]:
        """Gate-instance count per cell kind."""
        counts: Dict[str, int] = {}
        for gate in self.gates:
            counts[gate.kind] = counts.get(gate.kind, 0) + 1
        return counts

    def stats(self) -> str:
        """One-line human-readable summary."""
        kinds = ", ".join(f"{k}:{v}" for k, v in sorted(self.count_by_kind().items()))
        return (
            f"{self.name}: {self.num_gates} gates, {self.num_nets} nets "
            f"({kinds})"
        )

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, gates={self.num_gates}, "
            f"inputs={sorted(self._input_buses)}, outputs={sorted(self._output_buses)})"
        )


def concat_buses(*buses: Iterable[int]) -> List[int]:
    """Concatenate buses LSB-first (first argument holds the low bits)."""
    out: List[int] = []
    for bus in buses:
        out.extend(bus)
    return out


def instantiate(src: Circuit, dst: Circuit, env: Dict[int, int]) -> None:
    """Copy every gate of ``src`` into ``dst``; ``env`` maps src→dst nets.

    ``env`` must already map ``src``'s input nets and gains every gate
    output.  Constants are routed through ``dst``'s memoized const cells,
    so two copies instantiated into one circuit share them.
    """
    for gate in src.gates:
        if gate.kind == "CONST0":
            env[gate.output] = dst.const0()
        elif gate.kind == "CONST1":
            env[gate.output] = dst.const1()
        else:
            env[gate.output] = dst.add_gate(gate.kind, [env[n] for n in gate.inputs])
