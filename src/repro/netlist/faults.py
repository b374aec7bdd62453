"""Stuck-at fault simulation (extension).

Classic EDA capability the "reliable" theme invites: enumerate single
stuck-at-0/1 faults on gate outputs, simulate the faulty circuits against
a vector set, and report coverage.  Two uses in this repository:

* grading the self-checking testbench vectors
  (``repro.rtl.to_testbench``) as a manufacturing test set;
* asking a question the thesis doesn't: how many hardware faults in the
  *speculative datapath* does VLCSA's own error detector flag for free?
  (``benchmarks/test_ext_fault_coverage.py``.)

:func:`fault_coverage` runs **concurrent** fault simulation on the
vectorized backend's own plan runner (:mod:`repro.netlist.compile`, the
C plan evaluator or its numpy fallback): the fault-free circuit is
evaluated once on the limb bit-plane array (bit-parallel over all
vectors), then faults are packed 64 per pass — one fault per bit lane of
a uint64 — over a fault-plane array with one row per net and one word
per vector.  Each pass is one runner call that forces the faulted rows
as their gates write them; because every gate function is bitwise, the
64 fault lanes evaluate independently.  A fault is detected when any
observed row differs from the broadcast fault-free value under any
vector.

:func:`fault_coverage_reference` retains the original one-pass-per-fault
interpreter as the executable specification (differential tests assert
both agree fault-for-fault).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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


def _fault_planes(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Limb rows in fault-plane form over the vectors ``[lo, hi)``.

    Element ``[r, v]`` of the result is all-ones when row ``r`` is 1
    under vector ``lo + v`` and zero otherwise: the fault-free value
    replicated across all 64 fault lanes.
    """
    bits = np.unpackbits(
        rows.view(np.uint8), axis=1, count=hi, bitorder="little"
    )[:, lo:]
    return bits.astype(_U64) * _ALL_ONES


def _force_table(
    group: Sequence[Fault], perm: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plan runner's ``force`` for up to 64 faults, fault ``i`` in lane
    ``i``: per faulted plan row (ascending), a ``keep`` word clearing the
    lanes stuck at 0 and a ``set`` word setting those stuck at 1."""
    masks: Dict[int, List[int]] = {}
    for bit, fault in enumerate(group):
        keep_set = masks.setdefault(int(perm[fault.net]), [_ALL_ONES_INT, 0])
        if fault.stuck_at:
            keep_set[1] |= 1 << bit
        else:
            keep_set[0] &= _ALL_ONES_INT ^ (1 << bit)
    rows = sorted(masks)
    return (
        np.array(rows, dtype=np.int64),
        np.array([masks[r][0] for r in rows], dtype=_U64),
        np.array([masks[r][1] for r in rows], dtype=_U64),
    )


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
    array, then one forced plan-runner pass per group of 64 faults and
    vector chunk.  The verdicts are byte-identical to
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
    # vector plan, so net lookups map through ``perm``.
    sim = compile_circuit(circuit)
    V, ones_row, _ = sim.pack_inputs_limbs(vectors)
    rows = sim.eval_limbs(V, ones_row)
    plan = sim.vector_plan()
    perm = plan.perm
    undriven = rows[: plan.num_undriven]
    observed_rows = perm[np.asarray(observed, dtype=np.int64)]

    def _stuck_everywhere(net: int, stuck_at: int) -> bool:
        row = rows[perm[net]]
        if stuck_at:
            return bool(np.array_equal(row, ones_row))
        return not row.any()

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

    # Vector chunks with fault dropping: most faults fall to the first few
    # vectors, so after the first chunk only the hard residue (usually one
    # group instead of dozens) is resimulated on the remaining vectors.
    remaining = active
    lo, chunk = 0, _CHUNK_VECTORS
    while lo < num_vectors and remaining:
        hi = min(lo + chunk, num_vectors)
        _obs.record("faults.chunk_vectors", hi - lo)
        # One fault-plane array serves every group of the chunk: the
        # runner rewrites every driven row, and undriven rows never change.
        F = np.empty((sim.kernel.num_nets, hi - lo), dtype=_U64)
        F[: plan.num_undriven] = _fault_planes(undriven, lo, hi)
        golden = _fault_planes(rows[observed_rows], lo, hi)
        ones = np.full(hi - lo, _ALL_ONES, dtype=_U64)
        survivors: List[int] = []
        for start in range(0, len(remaining), _PLANES):
            indices = remaining[start : start + _PLANES]
            force = _force_table([fault_list[i] for i in indices], perm)
            sim.eval_limbs(F, ones, force)
            mask = int(np.bitwise_or.reduce(F[observed_rows] ^ golden, axis=None))
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
