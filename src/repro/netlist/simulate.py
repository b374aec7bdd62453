"""Bit-parallel functional simulation of netlists.

Every net carries a ``W``-bit Python integer whose bit ``v`` is the net's
value under input vector ``v``.  One forward pass over the (topologically
ordered) gate list therefore evaluates ``W`` vectors at once; ``W`` is
unbounded because Python integers are arbitrary precision.  This is the
classic "parallel pattern" trick gate-level simulators use, and it makes
gate-level Monte Carlo validation of the behavioural models cheap.

Two backends implement these semantics:

* the **vectorized** backend (:mod:`repro.netlist.compile`) — levelizes
  the circuit once and caches the result under a content hash of the
  netlist; net values live in a ``(num_nets, limbs)`` uint64 bit-plane
  array and gates grouped by ``(logic level, kind)`` evaluate as a few
  fused numpy ops per group; and
* the **reference** interpreter (:func:`simulate_batch_reference`) — the
  original per-gate dispatch loop, retained as the executable
  specification the vectorized backend is differentially tested
  against.

:func:`simulate_batch` defaults to ``backend="auto"``, which is the
vectorized backend at every batch size (:func:`resolve_backend`);
``"reference"`` selects the interpreter.  Both are bit-identical.

The per-gate semantics live in the public :data:`GATE_EVAL` table so that
other evaluators over bitmask operands (the reference fault simulator
and the concurrent fault-plane evaluation) share one definition of every
cell's function.
"""

from __future__ import annotations

import numbers
from typing import Callable, Dict, List, Mapping, Sequence

from repro.netlist.circuit import Circuit, NetlistError

#: Gate semantics over bitmask operands: ``kind -> fn(ins, ones)`` where
#: ``ins`` are the operand masks (in :data:`repro.netlist.circuit.GATE_ARITY`
#: pin order) and ``ones`` is the all-ones mask of the active bit width.
#: The functions use only ``& | ^`` so they evaluate Python big-ints and
#: numpy uint64 arrays (with ``ones = ~np.uint64(0)``) identically.
GATE_EVAL: Dict[str, Callable[[Sequence[int], int], int]] = {
    "AND2": lambda ins, ones: ins[0] & ins[1],
    "OR2": lambda ins, ones: ins[0] | ins[1],
    "XOR2": lambda ins, ones: ins[0] ^ ins[1],
    "INV": lambda ins, ones: ins[0] ^ ones,
    "NAND2": lambda ins, ones: (ins[0] & ins[1]) ^ ones,
    "NOR2": lambda ins, ones: (ins[0] | ins[1]) ^ ones,
    "XNOR2": lambda ins, ones: (ins[0] ^ ins[1]) ^ ones,
    "MUX2": lambda ins, ones: ins[1] ^ (ins[0] & (ins[1] ^ ins[2])),
    "BUF": lambda ins, ones: ins[0],
    "AOI21": lambda ins, ones: ((ins[0] & ins[1]) | ins[2]) ^ ones,
    "OAI21": lambda ins, ones: ((ins[0] | ins[1]) & ins[2]) ^ ones,
    "AOI22": lambda ins, ones: ((ins[0] & ins[1]) | (ins[2] & ins[3])) ^ ones,
    "OAI22": lambda ins, ones: ((ins[0] | ins[1]) & (ins[2] | ins[3])) ^ ones,
    "CONST0": lambda ins, ones: 0,
    "CONST1": lambda ins, ones: ones,
}


#: Backends :func:`simulate_batch` accepts.
BACKENDS = ("auto", "reference", "vectorized")


def resolve_backend(backend: str) -> str:
    """Validate a fast-path backend name; every accepted name is the limb
    backend.

    ``"auto"`` and ``"vectorized"`` resolve to ``"vectorized"``.  The
    ``"reference"`` interpreter is not a fast-path backend — route it
    through :func:`simulate_batch` — so it is rejected here along with
    unknown names.
    """
    if backend in ("auto", "vectorized"):
        return "vectorized"
    raise NetlistError(
        f"unknown simulation backend {backend!r}; choose 'auto' or "
        f"'vectorized' (or 'reference' via simulate_batch)"
    )


def _eval_gate(kind: str, ins: Sequence[int], ones: int) -> int:
    """Evaluate one gate over bitmask operands (``ones`` = all-ones mask).

    Retained dispatch helper over :data:`GATE_EVAL`; new code should index
    the table directly.
    """
    fn = GATE_EVAL.get(kind)
    if fn is None:
        raise NetlistError(f"cannot simulate gate kind {kind!r}")
    return fn(ins, ones)


def check_batch_inputs(
    circuit: Circuit, inputs: Mapping[str, Sequence[int]]
) -> int:
    """Validate a batch-input mapping against ``circuit``'s input buses.

    Checks bus-name agreement and equal batch lengths (per-value range
    checks happen during transposition); returns the batch length.
    """
    in_buses = circuit.input_buses
    if set(inputs) != set(in_buses):
        raise NetlistError(
            f"input buses mismatch: expected {sorted(in_buses)}, "
            f"got {sorted(inputs)}"
        )
    lengths = {len(v) for v in inputs.values()}
    if len(lengths) != 1:
        raise NetlistError(f"all input batches must have equal length, got {lengths}")
    (num_vectors,) = lengths
    return num_vectors


def simulate_batch_reference(
    circuit: Circuit, inputs: Mapping[str, Sequence[int]]
) -> Dict[str, List[int]]:
    """Reference interpreter for :func:`simulate_batch`.

    The original per-gate dispatch loop over Python big-ints.  Slower than
    the vectorized backend but entirely transparent; kept as the
    executable specification the vectorized backend's differential tests
    compare against.
    """
    num_vectors = check_batch_inputs(circuit, inputs)
    if num_vectors == 0:
        return {name: [] for name in circuit.output_buses}
    ones = (1 << num_vectors) - 1

    values: List[int] = [0] * circuit.num_nets

    # Transpose each input bus into per-net bitmasks.
    for name, nets in circuit.input_buses.items():
        width = len(nets)
        limit = 1 << width
        masks = [0] * width
        for v, value in enumerate(inputs[name]):
            if not (isinstance(value, numbers.Integral) and 0 <= value < limit):
                raise NetlistError(
                    f"value {value} does not fit in {width}-bit bus {name!r}"
                )
            vbit = 1 << v
            for bit in range(width):
                if (value >> bit) & 1:
                    masks[bit] |= vbit
        for bit, net in enumerate(nets):
            values[net] = masks[bit]

    for gate in circuit.gates:
        operands = [values[n] for n in gate.inputs]
        values[gate.output] = _eval_gate(gate.kind, operands, ones)

    # Transpose outputs back to per-vector bus values.
    results: Dict[str, List[int]] = {}
    for name, nets in circuit.output_buses.items():
        out = [0] * num_vectors
        for bit, net in enumerate(nets):
            mask = values[net]
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                out[v] |= 1 << bit
                mask ^= low
        results[name] = out
    return results


def simulate_batch(
    circuit: Circuit,
    inputs: Mapping[str, Sequence[int]],
    backend: str = "auto",
) -> Dict[str, List[int]]:
    """Simulate ``circuit`` over a batch of input vectors.

    ``inputs`` maps each input-bus name to a sequence of bus values (one per
    vector, all sequences the same length).  Returns the output-bus values in
    the same layout.  Input values must fit in the bus width.

    ``backend`` selects ``"auto"`` or ``"vectorized"`` (default: the
    level-vectorized limb backend, cached per netlist content hash — see
    :mod:`repro.netlist.compile`) or ``"reference"`` (the retained
    interpreter).  Both are bit-identical; any other name raises
    :class:`~repro.netlist.circuit.NetlistError`.
    """
    if backend == "reference":
        return simulate_batch_reference(circuit, inputs)
    from repro.netlist.compile import compile_circuit

    return compile_circuit(circuit).run_batch(inputs, backend=backend)


def simulate(circuit: Circuit, inputs: Mapping[str, int]) -> Dict[str, int]:
    """Simulate a single input vector; bus values are plain integers."""
    batch = {name: [value] for name, value in inputs.items()}
    return {name: vals[0] for name, vals in simulate_batch(circuit, batch).items()}
