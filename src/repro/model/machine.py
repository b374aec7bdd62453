"""Cycle-by-cycle, gate-level execution of a variable-latency adder.

:class:`VariableLatencyMachine` drives an actual VLCSA/VLSA netlist
through the protocol of thesis Fig. 5.3 / 6.8: operands are registered,
the speculative result and the detector evaluate in cycle 1; if the
detector is clear the result is accepted (``VALID``), otherwise the
machine stalls one cycle (``STALL``) and accepts the recovery result.

This is the gate-level-backed counterpart of the statistical
:class:`repro.model.latency.VariableLatencyAdderSim`: slower, but every
returned result comes out of the simulated netlist, so the machine also
serves as an end-to-end conformance check of the whole design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.compile import compile_circuit


@dataclass
class MachineTrace:
    """Per-operation log of a :class:`VariableLatencyMachine` run."""

    results: List[int] = field(default_factory=list)
    cycles: List[int] = field(default_factory=list)
    stalled: List[bool] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles)

    @property
    def stall_rate(self) -> float:
        return (sum(self.stalled) / len(self.stalled)) if self.stalled else 0.0

    @property
    def cycles_per_add(self) -> float:
        return self.total_cycles / len(self.cycles) if self.cycles else 0.0


class VariableLatencyMachine:
    """Execute addition streams on a variable-latency adder netlist.

    The circuit must expose input buses ``a``/``b`` and output buses
    ``sum`` (speculative), ``sum_rec`` (recovery) and ``err`` (stall
    flag) — the port contract of :func:`repro.core.vlcsa.build_vlcsa1`,
    :func:`repro.core.vlcsa2.build_vlcsa2` and
    :func:`repro.core.vlsa.build_vlsa`.
    """

    REQUIRED_OUTPUTS = ("sum", "sum_rec", "err")

    def __init__(self, circuit: Circuit, backend: str = "auto"):
        outputs = circuit.output_buses
        missing = [name for name in self.REQUIRED_OUTPUTS if name not in outputs]
        if missing:
            raise NetlistError(
                f"{circuit.name!r} lacks variable-latency ports {missing}"
            )
        inputs = circuit.input_buses
        if set(inputs) != {"a", "b"}:
            raise NetlistError(
                f"{circuit.name!r} must have exactly inputs 'a' and 'b'"
            )
        self.circuit = circuit
        self.width = len(inputs["a"])
        # Compile once at construction; every run() reuses the kernel.
        self._sim = compile_circuit(circuit)
        #: simulation backend for run() batches (``"auto"`` or
        #: ``"vectorized"``, as
        #: :meth:`repro.netlist.compile.CompiledSim.run_batch`).
        self.backend = backend

    def run(self, operands: Iterable[Tuple[int, int]]) -> MachineTrace:
        """Push an operand stream through the 1/2-cycle protocol."""
        from repro.obs import spans as _obs

        pairs = list(operands)
        trace = MachineTrace()
        if not pairs:
            return trace
        with _obs.span(
            "machine.run", circuit=self.circuit.name, operations=len(pairs)
        ):
            batch = self._sim.run_batch(
                {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]},
                backend=self.backend,
            )
            for spec, rec, err in zip(batch["sum"], batch["sum_rec"], batch["err"]):
                if err:
                    # STALL: one extra cycle, recovery result accepted.
                    trace.results.append(rec)
                    trace.cycles.append(2)
                    trace.stalled.append(True)
                else:
                    # VALID: speculative result accepted in one cycle.
                    trace.results.append(spec)
                    trace.cycles.append(1)
                    trace.stalled.append(False)
            stalls = sum(trace.stalled)
            _obs.record("machine.latency_cycles", 1, len(pairs) - stalls)
            _obs.record("machine.latency_cycles", 2, stalls)
        return trace

    def add(self, a: int, b: int) -> Tuple[int, int]:
        """One addition; returns ``(result, cycles)``."""
        trace = self.run([(a, b)])
        return trace.results[0], trace.cycles[0]

    def verify_stream(self, operands: Sequence[Tuple[int, int]]) -> MachineTrace:
        """Run a stream and assert every accepted result is exact."""
        trace = self.run(operands)
        for (a, b), result in zip(operands, trace.results):
            if result != a + b:
                raise AssertionError(
                    f"{self.circuit.name}: {a} + {b} returned {result}"
                )
        return trace
