"""Stuck-at fault simulation (extension).

Classic EDA capability the "reliable" theme invites: enumerate single
stuck-at-0/1 faults on gate outputs, simulate the faulty circuits against
a vector set, and report coverage.  Two uses in this repository:

* grading the self-checking testbench vectors
  (``repro.rtl.to_testbench``) as a manufacturing test set;
* asking a question the thesis doesn't: how many hardware faults in the
  *speculative datapath* does VLCSA's own error detector flag for free?
  (``benchmarks/test_ext_fault_coverage.py``.)

:func:`fault_coverage` runs **concurrent** fault simulation on top of the
vectorized backend (:mod:`repro.netlist.compile`): the fault-free circuit
is evaluated once on the limb bit-plane array (bit-parallel over all
vectors), then faults are packed 64 per pass — one fault per bit-plane of
a uint64 — over arrays indexed by vector.  Each pass restarts evaluation
at the faulted nets and recomputes only the union of their fanout cones;
because every gate function is bitwise, the 64 fault planes evaluate
independently in one numpy pass.  A fault is detected when any observed
bit-plane differs from the broadcast fault-free value under any vector.

:func:`fault_coverage_reference` retains the original one-pass-per-fault
interpreter as the executable specification (differential tests assert
both agree fault-for-fault).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.simulate import GATE_EVAL

#: Faults packed per concurrent pass (one per uint64 bit-plane).
_PLANES = 64

#: First detection-chunk size; chunks double from here.  Faults detected
#: in one chunk are dropped before the next, so the full fault list sees
#: only a small vector slice and the hard residue alone (typically one
#: group instead of dozens) walks the rest of the vector set.
_CHUNK_VECTORS = 64

_U64 = np.uint64
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_ALL_ONES_INT = 0xFFFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a gate-output net."""

    net: int
    stuck_at: int  # 0 or 1


@dataclass
class FaultReport:
    """Outcome of :func:`fault_coverage`."""

    total: int
    detected: int
    #: faults whose effect never reached an observed output
    undetected: List[Fault]

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.total else 1.0


def enumerate_faults(circuit: Circuit) -> List[Fault]:
    """All single stuck-at faults on gate outputs (constants excluded —
    a stuck tie cell is not a fault)."""
    faults = []
    for gate in circuit.gates:
        if gate.kind in ("CONST0", "CONST1"):
            continue
        faults.append(Fault(gate.output, 0))
        faults.append(Fault(gate.output, 1))
    return faults


def apply_fault(circuit: Circuit, fault: Fault) -> Circuit:
    """A copy of ``circuit`` with ``fault`` made permanent in the netlist.

    The faulted net's readers (gate inputs and primary outputs) are
    rewired to a constant tie cell; the original driver remains but is
    dead.  Used by the lint mutation self-test
    (:func:`repro.netlist.lint.mutation_self_test`) to produce mutant
    netlists the formal rules must reject.
    """
    if fault.stuck_at not in (0, 1):
        raise NetlistError(f"stuck_at must be 0 or 1, got {fault.stuck_at}")
    if not 0 <= fault.net < circuit.num_nets:
        raise NetlistError(f"net {fault.net} does not exist in {circuit.name!r}")
    if not circuit.is_driven(fault.net):
        raise NetlistError(
            f"net {fault.net} has no driver to fault in {circuit.name!r}"
        )
    new = Circuit(circuit.name)
    env: Dict[int, int] = {}
    for name, nets in circuit.input_buses.items():
        env.update(zip(nets, new.add_input_bus(name, len(nets))))

    def tie() -> int:
        return new.const1() if fault.stuck_at else new.const0()

    if fault.net in env:  # a primary-input bit stuck at a constant
        env[fault.net] = tie()
    for gate in circuit.gates:
        out = new.add_gate(gate.kind, [env[n] for n in gate.inputs])
        # Downstream readers see the stuck value; the driver goes dead.
        env[gate.output] = tie() if gate.output == fault.net else out
    for name, nets in circuit.output_buses.items():
        new.set_output_bus(name, [env[n] for n in nets])
    return new


def values_with_fault(
    circuit: Circuit,
    input_masks: Mapping[int, int],
    ones: int,
    fault: Optional[Fault],
) -> List[int]:
    """Interpreted single-fault forward pass (reference semantics).

    Evaluates every gate through :data:`repro.netlist.simulate.GATE_EVAL`,
    overriding the faulted gate output (if any) with its stuck value.
    Kept as the per-fault specification the concurrent simulator is
    differentially tested against.
    """
    values: List[int] = [0] * circuit.num_nets
    for net, mask in input_masks.items():
        values[net] = mask
    for gate in circuit.gates:
        out = GATE_EVAL[gate.kind]([values[n] for n in gate.inputs], ones)
        if fault is not None and gate.output == fault.net:
            out = ones if fault.stuck_at else 0
        values[gate.output] = out
    return values


def _check_vectors(
    circuit: Circuit, vectors: Mapping[str, Sequence[int]]
) -> int:
    """Shared vector-set validation; returns the (positive) vector count."""
    in_buses = circuit.input_buses
    if set(vectors) != set(in_buses):
        raise NetlistError(
            f"input buses mismatch: expected {sorted(in_buses)}, got {sorted(vectors)}"
        )
    lengths = {len(v) for v in vectors.values()}
    if len(lengths) != 1:
        raise NetlistError("all vector streams must have equal length")
    (num_vectors,) = lengths
    if num_vectors == 0:
        raise NetlistError("need at least one vector")
    return num_vectors


def _observed_nets(
    circuit: Circuit, observe: Optional[Sequence[str]]
) -> List[int]:
    """Resolve observation-point bus names to their net lists."""
    names = list(observe) if observe is not None else list(circuit.output_buses)
    nets: List[int] = []
    for name in names:
        if name not in circuit.output_buses:
            raise NetlistError(f"no output bus {name!r} to observe")
        nets.extend(circuit.output_buses[name])
    return nets


def _expand_plane_row(row: np.ndarray, num_vectors: int) -> np.ndarray:
    """Broadcast a limb bit-plane row into fault-plane form.

    Element ``v`` of the result is all-ones when the net is 1 under
    vector ``v`` and zero otherwise — i.e. the fault-free value
    replicated across all 64 fault planes.
    """
    bits = np.unpackbits(
        row.view(np.uint8), count=num_vectors, bitorder="little"
    )
    return bits.astype(_U64) * _ALL_ONES


def _detect_group(
    circuit: Circuit,
    readers: Sequence[Sequence[int]],
    plane_of: "Callable[[int], np.ndarray]",
    group: Sequence[Fault],
    observed: Sequence[int],
    num_vectors: int,
    lo: int = 0,
    hi: Optional[int] = None,
    group_of_gate: Optional[np.ndarray] = None,
) -> int:
    """One concurrent pass over up to 64 faults; returns a detection mask.

    Bit ``i`` of the result is set when ``group[i]`` was detected at some
    observed net under some vector of the ``[lo, hi)`` slice.  ``plane_of``
    returns (and caches across groups and slices) the full-length expanded
    fault-free array of a net; the slice views taken from it are free.

    ``group_of_gate`` (the :class:`repro.netlist.compile.VectorPlan`
    inverse map) schedules the cone restart through the plan's
    ``(level, kind)`` groups: cone gates landing in the same group are
    evaluated as one stacked numpy pass instead of one call per gate.
    Bitwise ops are elementwise, so the batched evaluation is
    bit-identical to the per-gate loop it replaces (and to the order of
    ``None``, which falls back to per-gate).
    """
    if hi is None:
        hi = num_vectors
    inject: Dict[int, Tuple[int, int]] = {}
    for bit, fault in enumerate(group):
        or_mask, and_mask = inject.get(fault.net, (0, _ALL_ONES_INT))
        if fault.stuck_at:
            or_mask |= 1 << bit
        else:
            and_mask &= _ALL_ONES_INT ^ (1 << bit)
        inject[fault.net] = (or_mask, and_mask)

    # Fanout cone: every gate transitively reading a faulted net.
    cone = set()
    frontier = list(inject)
    seen_nets = set(frontier)
    while frontier:
        net = frontier.pop()
        for index in readers[net]:
            if index in cone:
                continue
            cone.add(index)
            out = circuit.gates[index].output
            if out not in seen_nets:
                seen_nets.add(out)
                frontier.append(out)

    def plane(net: int) -> np.ndarray:
        return plane_of(net)[lo:hi]

    faulty: Dict[int, np.ndarray] = {}
    for net, (or_mask, and_mask) in inject.items():
        faulty[net] = (plane(net) & _U64(and_mask)) | _U64(or_mask)

    # Schedule the cone restart.  Plan-group order is topological (group
    # index is ordered by level), so batching same-group gates into one
    # stacked kernel call preserves evaluation semantics exactly; with no
    # plan the gate-index order (also topological) evaluates one by one.
    if group_of_gate is None:
        order = sorted(cone)
    else:
        order = sorted(cone, key=lambda g: (int(group_of_gate[g]), g))
    pos = 0
    count = len(order)
    while pos < count:
        index = order[pos]
        end = pos + 1
        if group_of_gate is not None:
            gid = group_of_gate[index]
            while end < count and group_of_gate[order[end]] == gid:
                end += 1
        run = order[pos:end]
        pos = end
        if len(run) == 1:
            gate = circuit.gates[index]
            operands = [
                faulty[n] if n in faulty else plane(n) for n in gate.inputs
            ]
            value = GATE_EVAL[gate.kind](operands, _ALL_ONES)
            injected = inject.get(gate.output)
            if injected is not None:
                value = (value & _U64(injected[1])) | _U64(injected[0])
            faulty[gate.output] = value
            continue
        gates = [circuit.gates[g] for g in run]
        stacked = [
            np.stack(
                [
                    faulty[g.inputs[p]]
                    if g.inputs[p] in faulty
                    else plane(g.inputs[p])
                    for g in gates
                ]
            )
            for p in range(len(gates[0].inputs))
        ]
        results = GATE_EVAL[gates[0].kind](stacked, _ALL_ONES)
        for row, gate in enumerate(gates):
            value = results[row]
            injected = inject.get(gate.output)
            if injected is not None:
                value = (value & _U64(injected[1])) | _U64(injected[0])
            faulty[gate.output] = value

    detected = 0
    for net in observed:
        value = faulty.get(net)
        if value is None:
            continue
        diff = value ^ plane(net)
        detected |= int(np.bitwise_or.reduce(diff))
    return detected


def fault_coverage(
    circuit: Circuit,
    vectors: Mapping[str, Sequence[int]],
    observe: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[Fault]] = None,
) -> FaultReport:
    """Coverage of ``vectors`` over single stuck-at faults.

    ``observe`` restricts the observation points to the named output buses
    (default: every output bus).  A fault counts as detected when any
    observed bit differs from the fault-free value under any vector.

    Concurrent implementation: one fault-free pass on the vectorized limb
    array, then 64 faults per numpy pass over each fault group's union
    fanout cone.  The verdicts are byte-identical to
    :func:`fault_coverage_reference` (asserted by the differential test
    suite).
    """
    from repro.obs import spans as _obs

    with _obs.span("faults.coverage", circuit=circuit.name):
        return _fault_coverage_inner(circuit, vectors, observe, faults)


def _fault_coverage_inner(
    circuit: Circuit,
    vectors: Mapping[str, Sequence[int]],
    observe: Optional[Sequence[str]],
    faults: Optional[Sequence[Fault]],
) -> FaultReport:
    from repro.netlist.compile import compile_circuit
    from repro.obs import spans as _obs

    num_vectors = _check_vectors(circuit, vectors)
    observed = _observed_nets(circuit, observe)

    # Golden pass on the limb bit-plane array; rows are permuted by the
    # vector plan, so fault-net lookups map through ``perm``.
    sim = compile_circuit(circuit)
    V, ones_row, _ = sim.pack_inputs_limbs(vectors)
    rows = sim.eval_limbs(V, ones_row)
    perm = sim.vector_plan().perm

    def _stuck_everywhere(net: int, stuck_at: int) -> bool:
        row = rows[perm[net]]
        if stuck_at:
            return bool(np.array_equal(row, ones_row))
        return not row.any()

    net_level = sim.kernel.net_level
    readers = sim.kernel.readers
    # Plan-group schedule for the cone restarts (cached on the kernel).
    group_of_gate = sim.vector_plan().group_of_gate

    fault_list = list(faults) if faults is not None else enumerate_faults(circuit)
    detected_status = [False] * len(fault_list)
    active: List[int] = []
    for i, fault in enumerate(fault_list):
        # quick prune: a fault whose stuck value equals the fault-free
        # value under every vector cannot propagate
        if _stuck_everywhere(fault.net, fault.stuck_at):
            continue
        # a fault site with no gate driver (primary input) is never
        # injected — matching the reference per-fault pass
        if circuit.driver_of(fault.net) is None:
            continue
        active.append(i)

    # Group faults by level so cones inside one pass overlap maximally.
    active.sort(key=lambda i: (net_level[fault_list[i].net], fault_list[i].net))
    planes: Dict[int, np.ndarray] = {}

    def plane_of(net: int) -> np.ndarray:
        cached = planes.get(net)
        if cached is None:
            planes[net] = cached = _expand_plane_row(rows[perm[net]], num_vectors)
        return cached
    # Vector chunks with fault dropping: most faults fall to the first few
    # vectors, so after the first chunk only the hard residue (usually one
    # group instead of dozens) is resimulated on the remaining vectors.
    remaining = active
    lo, chunk = 0, _CHUNK_VECTORS
    while lo < num_vectors and remaining:
        hi = min(lo + chunk, num_vectors)
        _obs.record("faults.chunk_vectors", hi - lo)
        survivors: List[int] = []
        for start in range(0, len(remaining), _PLANES):
            indices = remaining[start : start + _PLANES]
            group = [fault_list[i] for i in indices]
            mask = _detect_group(
                circuit, readers, plane_of, group, observed,
                num_vectors, lo, hi, group_of_gate,
            )
            for bit, i in enumerate(indices):
                if (mask >> bit) & 1:
                    detected_status[i] = True
                else:
                    survivors.append(i)
        remaining = survivors
        lo, chunk = hi, chunk * 2

    detected = sum(detected_status)
    undetected = [f for f, hit in zip(fault_list, detected_status) if not hit]
    return FaultReport(
        total=len(fault_list), detected=detected, undetected=undetected
    )


def fault_coverage_reference(
    circuit: Circuit,
    vectors: Mapping[str, Sequence[int]],
    observe: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[Fault]] = None,
) -> FaultReport:
    """Reference fault coverage: one interpreted pass per fault.

    The original implementation, retained as the specification for the
    concurrent simulator and as the "before" side of the netlist-sim
    benchmark.
    """
    num_vectors = _check_vectors(circuit, vectors)
    ones = (1 << num_vectors) - 1
    observed = _observed_nets(circuit, observe)

    input_masks: Dict[int, int] = {}
    for name, nets in circuit.input_buses.items():
        width = len(nets)
        masks = [0] * width
        for v, value in enumerate(vectors[name]):
            if not 0 <= value < (1 << width):
                raise NetlistError(f"value {value} does not fit bus {name!r}")
            for bit in range(width):
                if (value >> bit) & 1:
                    masks[bit] |= 1 << v
        for bit, net in enumerate(nets):
            input_masks[net] = masks[bit]

    golden = values_with_fault(circuit, input_masks, ones, None)
    golden_obs = [golden[n] for n in observed]

    fault_list = list(faults) if faults is not None else enumerate_faults(circuit)
    detected = 0
    undetected: List[Fault] = []
    for fault in fault_list:
        if golden[fault.net] == (ones if fault.stuck_at else 0):
            undetected.append(fault)
            continue
        faulty = values_with_fault(circuit, input_masks, ones, fault)
        if any(faulty[n] != g for n, g in zip(observed, golden_obs)):
            detected += 1
        else:
            undetected.append(fault)
    return FaultReport(
        total=len(fault_list), detected=detected, undetected=undetected
    )
