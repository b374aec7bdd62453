"""Clocked (sequential) simulation over combinational netlists.

The netlist substrate is purely combinational by design (construction
order = topological order keeps every analysis a single pass).  Sequential
behaviour is layered on top: a :class:`ClockedDesign` binds *state buses*
of one combinational circuit — an input bus holding the register outputs
(Q) and an output bus computing the next state (D) — and steps them
through clock cycles.  This is the standard FSM factoring (registers +
next-state cloud) and is exactly what synthesis does with always-blocks.

Used by :mod:`repro.core.pipeline` to run the thesis' Fig. 5.3 machine —
operand registers, VALID/STALL handshake and all — entirely at gate
level, and by :func:`repro.rtl.clocked_to_verilog` to emit it as one
next-state module plus one register block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.compile import compile_circuit


@dataclass(frozen=True)
class RegisterSpec:
    """One register bank: Q input bus <- D output bus at each clock edge."""

    q_bus: str
    d_bus: str
    reset_value: int = 0


class ClockedDesign:
    """A combinational circuit plus register bindings, stepped per cycle."""

    def __init__(self, circuit: Circuit, registers: Iterable[RegisterSpec]):
        self.circuit = circuit
        self.registers: List[RegisterSpec] = list(registers)
        in_buses = circuit.input_buses
        out_buses = circuit.output_buses
        q_names = set()
        for reg in self.registers:
            if reg.q_bus not in in_buses:
                raise NetlistError(f"state bus {reg.q_bus!r} is not an input bus")
            if reg.d_bus not in out_buses:
                raise NetlistError(f"next-state bus {reg.d_bus!r} is not an output bus")
            width = len(in_buses[reg.q_bus])
            if len(out_buses[reg.d_bus]) < width:
                raise NetlistError(
                    f"next-state bus {reg.d_bus!r} narrower than {reg.q_bus!r}"
                )
            if not 0 <= reg.reset_value < (1 << width):
                raise NetlistError(f"reset value of {reg.q_bus!r} out of range")
            if reg.q_bus in q_names:
                raise NetlistError(f"duplicate register bank {reg.q_bus!r}")
            q_names.add(reg.q_bus)
        self._free_inputs = [name for name in in_buses if name not in q_names]
        #: (Q bus, D bus, Q width mask) per register bank, latched each edge
        self._latches = [
            (reg.q_bus, reg.d_bus, (1 << len(in_buses[reg.q_bus])) - 1)
            for reg in self.registers
        ]
        # One compilation serves every cycle of the stepped simulation.
        self._sim = compile_circuit(circuit)
        self._state: Dict[str, int] = {}
        self.reset()

    @property
    def state(self) -> Dict[str, int]:
        return dict(self._state)

    @property
    def free_inputs(self) -> List[str]:
        """Input buses the environment must drive every cycle."""
        return list(self._free_inputs)

    def reset(self) -> None:
        """Load every register bank's reset value."""
        self._state = {reg.q_bus: reg.reset_value for reg in self.registers}

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """One clock cycle: evaluate, return outputs, latch next state.

        The returned outputs are the *pre-edge* combinational values —
        what a register downstream would capture at this edge.
        """
        feed = dict(self._state)
        given = dict(inputs or {})
        for name in self._free_inputs:
            if name not in given:
                raise NetlistError(f"missing value for input bus {name!r}")
            feed[name] = given.pop(name)
        if given:
            raise NetlistError(f"unknown input buses {sorted(given)}")
        batch = {name: [value] for name, value in feed.items()}
        outputs = {
            name: vals[0] for name, vals in self._sim.run_batch(batch).items()
        }
        for q_bus, d_bus, mask in self._latches:
            self._state[q_bus] = outputs[d_bus] & mask
        return outputs

    def run(
        self, input_stream: Iterable[Mapping[str, int]]
    ) -> List[Dict[str, int]]:
        """Step once per entry of ``input_stream``; returns all outputs."""
        return [self.step(inputs) for inputs in input_stream]
