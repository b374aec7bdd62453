"""The complete Fig. 5.3 machine at gate level.

:func:`build_machine` wraps any variable-latency core — a circuit with the
``a, b -> sum, sum_rec, err`` port contract of VLCSA 1, VLCSA 2 and VLSA,
faulted or optimized alike — in the control FSM's next-state logic:
operand registers, the op-live/stalled control bits, and the registered
result/valid outputs.  The one combinational netlist is bound into a
:class:`repro.netlist.clocked.ClockedDesign`, which is what the tests
simulate, the fuzz oracle drives and :func:`repro.rtl.clocked_to_verilog`
emits.  :class:`PipelinedAdder` wraps a machine with the VALID/STALL
handshake so an operand stream can be pushed through cycle by cycle,
every bit of behaviour coming from simulated gates (the Python layer only
moves values across clock edges).

Protocol: an accepted operation completes one cycle later when
speculation holds, two cycles later when the detector stalls the machine;
``in_ready`` drops during the stall-trigger cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.netlist.circuit import Circuit, NetlistError, instantiate
from repro.netlist.clocked import ClockedDesign, RegisterSpec
from repro.netlist.optimize import strip_dead


def build_machine(core: Circuit) -> ClockedDesign:
    """Elaborate the clocked Fig. 5.3 machine around ``core``."""
    outputs = core.output_buses
    missing = [name for name in ("sum", "sum_rec", "err") if name not in outputs]
    if missing:
        raise NetlistError(f"{core.name!r} lacks variable-latency ports {missing}")
    inputs = core.input_buses
    if set(inputs) != {"a", "b"} or len(inputs["a"]) != len(inputs["b"]):
        raise NetlistError(
            f"{core.name!r} must have exactly inputs 'a' and 'b', of one width"
        )
    if len(outputs["sum_rec"]) != len(outputs["sum"]) or len(outputs["err"]) != 1:
        raise NetlistError(
            f"{core.name!r} needs 'sum_rec' as wide as 'sum' and a 1-bit 'err'"
        )
    width = len(inputs["a"])
    result_width = len(outputs["sum"])

    c = Circuit(f"{core.name}_seq")
    # environment inputs
    a = c.add_input_bus("a", width)
    b = c.add_input_bus("b", width)
    in_valid = c.add_input("in_valid")
    # state (Q) buses
    a_q = c.add_input_bus("a_q", width)
    b_q = c.add_input_bus("b_q", width)
    op_live = c.add_input("op_live_q")
    stalled = c.add_input("stalled_q")
    out_valid_q = c.add_input("out_valid_q")
    result_q = c.add_input_bus("result_q", result_width)

    # the core, on the registered operands
    env: Dict[int, int] = dict(zip(inputs["a"], a_q))
    env.update(zip(inputs["b"], b_q))
    instantiate(core, c, env)
    spec = [env[net] for net in outputs["sum"]]
    recovered = [env[net] for net in outputs["sum_rec"]]
    err = env[outputs["err"][0]]

    not_stalled = c.not_(stalled)
    live_now = c.and2(op_live, not_stalled)
    complete_ok = c.and2(live_now, c.not_(err))
    trigger_stall = c.and2(live_now, err)
    # Ready drops only in the stall-*trigger* cycle: capturing then would
    # clobber the operands recovery still needs.  During the stalled cycle
    # itself capture is safe — the recovery result latches from the old
    # operands at the same edge the new ones land.
    ready = c.not_(trigger_stall)
    capture = c.and2(in_valid, ready)

    next_out_valid = c.or2(complete_ok, stalled)
    next_result = [c.mux2(stalled, s, r) for s, r in zip(spec, recovered)]
    next_op_live = c.or2(capture, trigger_stall)
    next_a = [c.mux2(capture, a_q[i], a[i]) for i in range(width)]
    next_b = [c.mux2(capture, b_q[i], b[i]) for i in range(width)]

    # next-state (D) buses
    c.set_output_bus("a_d", next_a)
    c.set_output_bus("b_d", next_b)
    c.set_output("op_live_d", next_op_live)
    c.set_output("stalled_d", trigger_stall)
    c.set_output("out_valid_d", next_out_valid)
    c.set_output_bus("result_d", next_result)
    # registered outputs visible to the environment this cycle
    c.set_output("out_valid", out_valid_q)
    c.set_output_bus("result", result_q)
    c.set_output("in_ready", ready)

    return ClockedDesign(
        strip_dead(c),
        [
            RegisterSpec(q, q[:-2] + "_d")
            for q in ("a_q", "b_q", "op_live_q", "stalled_q", "out_valid_q", "result_q")
        ],
    )


@dataclass
class PipelineStats:
    """Cycle accounting of one :meth:`PipelinedAdder.run_stream`."""

    operations: int
    cycles: int
    stall_cycles: int
    #: per operation, in order: cycles from acceptance to result (1, or 2
    #: when it stalled)
    latencies: List[int] = field(default_factory=list)

    @property
    def cycles_per_add(self) -> float:
        return self.cycles / self.operations if self.operations else 0.0


class PipelinedAdder:
    """Handshake driver around a clocked machine from :func:`build_machine`."""

    def __init__(self, machine: ClockedDesign):
        self.design = machine

    def run_stream(
        self, operands: Iterable[Tuple[int, int]], max_cycles: Optional[int] = None
    ) -> Tuple[List[int], PipelineStats]:
        """Push operand pairs through the machine; collect results in order.

        Back-pressure is honoured: an operand is only presented while
        ``in_ready`` is high.  Returns the results plus cycle statistics.
        """
        from repro.obs import spans as _obs

        pending = list(operands)
        expected = len(pending)
        with _obs.span(
            "machine.run", circuit=self.design.circuit.name, operations=expected
        ):
            results, stats = self._run(pending, max_cycles)
            stalls = stats.latencies.count(2)
            _obs.record("machine.latency_cycles", 1, expected - stalls)
            _obs.record("machine.latency_cycles", 2, stalls)
        return results, stats

    def _run(
        self, pending: List[Tuple[int, int]], max_cycles: Optional[int]
    ) -> Tuple[List[int], PipelineStats]:
        self.design.reset()
        results: List[int] = []
        accepted: List[int] = []  # the cycle each operand was taken
        latencies: List[int] = []
        expected = len(pending)
        cycles = 0
        stall_cycles = 0
        idle = {"a": 0, "b": 0, "in_valid": 0}
        limit = max_cycles if max_cycles is not None else 4 * expected + 8
        while len(results) < expected:
            if cycles > limit:
                raise RuntimeError("pipeline did not drain — protocol bug")
            index = len(accepted)
            if index < expected:
                a, b = pending[index]
                feed = {"a": a, "b": b, "in_valid": 1}
            else:
                feed = idle
            out = self.design.step(feed)
            if out["out_valid"]:
                # registered one cycle after the op's last evaluation cycle
                latencies.append(cycles - accepted[len(results)] - 1)
                results.append(out["result"])
            if index < expected and out["in_ready"]:
                accepted.append(cycles)
            if not out["in_ready"]:
                stall_cycles += 1
            cycles += 1
        return results, PipelineStats(
            operations=expected,
            cycles=cycles,
            stall_cycles=stall_cycles,
            latencies=latencies,
        )
