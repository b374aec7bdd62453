"""Combinational equivalence checking: miter, sim-sweep filter, BDD proof.

This is the formal safety net under the netlist optimizer.  Two circuits
with identical primary input interfaces are compared over paired output
buses through a three-stage funnel, cheapest first:

1. **structural** — a canonical structural key; rebuild-identical
   circuits (the common case for idempotent optimizer passes) are
   accepted without touching a simulator or BDD manager;
2. **simulation** — the circuits are *mitered* (:func:`build_miter`:
   shared inputs, per-bus XOR difference outputs, a single ``neq``
   disagreement flag) and the miter is swept with seeded random vectors.
   Any vector that raises ``neq`` is already a counterexample, and the
   sweep doubles as the candidate filter: only output bits whose
   signatures agree survive to the proof stage;
3. **bdd** — surviving candidate bit pairs are discharged with the
   ROBDD engine (:mod:`repro.netlist.bdd`) under one shared manager and
   variable order, so per-bit equivalence is a node-identity check.

On any mismatch the returned :class:`CECResult` carries a concrete input
assignment, greedily reduced to a 1-minimal vector (clearing any single
remaining set bit makes the disagreement vanish) so counterexamples read
like directed tests rather than random noise.  Every stage is
deterministic: the sweep seed defaults to :data:`DEFAULT_SEED` and is
recorded in the result for replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netlist.bdd import BDD, circuit_to_bdds, interleaved_order
from repro.netlist.circuit import Circuit, NetlistError, instantiate
from repro.netlist.simulate import GATE_EVAL, simulate, simulate_batch

#: Default seed for the random simulation sweep (the paper's year, as
#: everywhere else in the repository).
DEFAULT_SEED = 2012

#: Default number of random vectors in the simulation sweep.
DEFAULT_VECTORS = 256

#: Commutative 2-input kinds whose operand order is canonicalized by
#: :func:`structural_key` (and the optimizer's structural hashing).
COMMUTATIVE_KINDS = frozenset(
    {"AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2"}
)


@dataclass
class CECResult:
    """Outcome of :func:`check_equivalent`.

    ``method`` names the stage that settled the question:
    ``"structural"`` (canonical-key identity), ``"simulation"`` (random
    sweep found a disagreeing vector), or ``"bdd"`` (formal proof or
    refutation).  On refutation ``mismatch`` is the differing
    ``(bus, bit)`` and ``counterexample`` maps each input bus to a value;
    ``minimized`` records whether the greedy 1-minimal reduction ran.
    """

    equivalent: bool
    method: str
    buses: Tuple[Tuple[str, str], ...]
    sim_vectors: int
    seed: int
    mismatch: Optional[Tuple[str, int]] = None
    counterexample: Optional[Dict[str, int]] = None
    minimized: bool = False
    #: live BDD nodes after the proof stage (0 if BDDs were never built)
    bdd_nodes: int = 0
    #: output-bit pairs that survived the sim sweep into the BDD stage
    candidates: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the CLI and rule findings)."""
        return {
            "equivalent": self.equivalent,
            "method": self.method,
            "buses": [list(pair) for pair in self.buses],
            "sim_vectors": self.sim_vectors,
            "seed": self.seed,
            "mismatch": list(self.mismatch) if self.mismatch else None,
            "counterexample": dict(self.counterexample)
            if self.counterexample is not None
            else None,
            "minimized": self.minimized,
            "bdd_nodes": self.bdd_nodes,
            "candidates": self.candidates,
        }


def matched_buses(
    c1: Circuit,
    c2: Circuit,
    buses: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[Tuple[str, str]]:
    """Validate the shared input interface and resolve output pairing.

    Both circuits must declare identical input buses (names and widths).
    ``buses`` pairs an output bus of ``c1`` with one of ``c2``; by default
    every output bus name they share is compared.  Paired buses must have
    equal widths.
    """
    in1 = {name: len(nets) for name, nets in c1.input_buses.items()}
    in2 = {name: len(nets) for name, nets in c2.input_buses.items()}
    if in1 != in2:
        raise NetlistError(
            f"input interfaces differ: {in1} vs {in2} — cannot compare"
        )
    if buses is None:
        shared = sorted(set(c1.output_buses) & set(c2.output_buses))
        if not shared:
            raise NetlistError("circuits share no output bus names")
        buses = [(name, name) for name in shared]
    pairs: List[Tuple[str, str]] = []
    for bus1, bus2 in buses:
        w1 = len(c1.output_bus(bus1))
        w2 = len(c2.output_bus(bus2))
        if w1 != w2:
            raise NetlistError(
                f"paired buses {bus1!r} ({w1} bits) and {bus2!r} ({w2} bits)"
                f" have different widths"
            )
        pairs.append((bus1, bus2))
    return pairs


def structural_key(circuit: Circuit) -> Tuple:
    """A canonical, hashable structural summary of ``circuit``.

    Nets are renumbered in (sorted input-bus, gate-list) order and the
    operands of commutative gates are sorted, so two circuits produced by
    the optimizer's deterministic rebuild idiom compare equal exactly
    when they are gate-for-gate the same netlist.  Used for the
    structural fast path of :func:`check_equivalent` and the optimizer's
    idempotence/fixpoint checks.
    """
    remap: Dict[int, int] = {}
    for _, nets in sorted(circuit.input_buses.items()):
        for net in nets:
            remap[net] = len(remap)
    gate_rows: List[Tuple] = []
    for gate in circuit.gates:
        ins = tuple(remap[n] for n in gate.inputs)
        if gate.kind in COMMUTATIVE_KINDS:
            ins = tuple(sorted(ins))
        remap[gate.output] = len(remap)
        gate_rows.append((gate.kind, ins))
    return (
        tuple(sorted((name, len(nets)) for name, nets in circuit.input_buses.items())),
        tuple(gate_rows),
        tuple(
            (name, tuple(remap[n] for n in nets))
            for name, nets in sorted(circuit.output_buses.items())
        ),
    )


def structural_equal(c1: Circuit, c2: Circuit) -> bool:
    """True if the circuits are the same netlist up to net numbering."""
    return structural_key(c1) == structural_key(c2)


def build_miter(
    c1: Circuit,
    c2: Circuit,
    buses: Optional[Sequence[Tuple[str, str]]] = None,
    name: Optional[str] = None,
) -> Circuit:
    """Miter two circuits over their matched primary I/O.

    The result instantiates both circuits on one shared set of input
    buses and exposes, for each paired output bus, a ``diff_<bus>`` XOR
    bus (bit ``i`` is 1 iff the circuits disagree on bit ``i``), plus a
    single-bit ``neq`` bus — the OR of every difference bit.  The miter
    is an ordinary :class:`Circuit`, so it can be simulated with either
    backend or handed to the BDD engine directly: the circuits are
    equivalent over ``buses`` iff ``neq`` is constant 0.
    """
    pairs = matched_buses(c1, c2, buses)
    miter = Circuit(name or f"miter({c1.name},{c2.name})")
    env1: Dict[int, int] = {}
    env2: Dict[int, int] = {}
    for bus_name, nets in sorted(c1.input_buses.items()):
        new_nets = miter.add_input_bus(bus_name, len(nets))
        env1.update(zip(nets, new_nets))
        env2.update(zip(c2.input_bus(bus_name), new_nets))
    instantiate(c1, miter, env1)
    instantiate(c2, miter, env2)
    diff_bits: List[int] = []
    for bus1, bus2 in pairs:
        bits = [
            miter.xor2(env1[n1], env2[n2])
            for n1, n2 in zip(c1.output_bus(bus1), c2.output_bus(bus2))
        ]
        miter.set_output_bus(f"diff_{bus1}", bits)
        diff_bits.extend(bits)
    miter.set_output("neq", miter.or_tree(diff_bits))
    return miter


def random_input_batch(
    circuit: Circuit, num_vectors: int, seed: int = DEFAULT_SEED
) -> Dict[str, List[int]]:
    """Seeded uniform random batch over ``circuit``'s input buses.

    Buses are visited in sorted name order so the batch depends only on
    the interface shape and the seed, never on construction order.
    """
    rng = random.Random(seed)
    batch: Dict[str, List[int]] = {}
    for name, nets in sorted(circuit.input_buses.items()):
        width = len(nets)
        batch[name] = [rng.getrandbits(width) for _ in range(num_vectors)]
    return batch


def net_signatures(
    circuit: Circuit,
    num_vectors: int = DEFAULT_VECTORS,
    seed: int = DEFAULT_SEED,
) -> List[int]:
    """Per-net simulation signatures under a seeded random sweep.

    Returns one ``num_vectors``-bit mask per net (bit ``v`` = the net's
    value under vector ``v``), computed with one bit-parallel forward
    pass.  Nets with equal signatures are *candidate equivalent* — the
    filter the redundant-logic rule and internal-net sweeps use before
    paying for a BDD proof.
    """
    batch = random_input_batch(circuit, num_vectors, seed)
    ones = (1 << num_vectors) - 1 if num_vectors else 0
    values: List[int] = [0] * circuit.num_nets
    for name, nets in circuit.input_buses.items():
        masks = [0] * len(nets)
        for v, value in enumerate(batch[name]):
            vbit = 1 << v
            for bit in range(len(nets)):
                if (value >> bit) & 1:
                    masks[bit] |= vbit
        for bit, net in enumerate(nets):
            values[net] = masks[bit]
    for gate in circuit.gates:
        operands = [values[n] for n in gate.inputs]
        values[gate.output] = GATE_EVAL[gate.kind](operands, ones)
    return values


def signature_classes(
    circuit: Circuit,
    num_vectors: int = DEFAULT_VECTORS,
    seed: int = DEFAULT_SEED,
) -> List[List[int]]:
    """Candidate-equivalent classes of gate-output nets.

    Groups the outputs of non-trivial gates (BUF aliases and constants
    excluded) by their :func:`net_signatures` mask and returns every
    class with at least two members, in first-seen order.  A class is
    only a *candidate*: random vectors cannot prove equality, so callers
    discharge each class with the BDD engine before acting on it.
    """
    signatures = net_signatures(circuit, num_vectors, seed)
    groups: Dict[int, List[int]] = {}
    for gate in circuit.gates:
        if gate.kind in ("BUF", "CONST0", "CONST1"):
            continue
        groups.setdefault(signatures[gate.output], []).append(gate.output)
    return [nets for nets in groups.values() if len(nets) >= 2]


def verify_counterexample(
    c1: Circuit,
    c2: Circuit,
    buses: Sequence[Tuple[str, str]],
    values: Dict[str, int],
) -> Optional[Tuple[str, int]]:
    """Replay an input assignment; return the first differing (bus, bit).

    Returns ``None`` if the circuits agree on every paired bus under
    ``values`` — i.e. the claimed counterexample does not reproduce.
    """
    out1 = simulate(c1, values)
    out2 = simulate(c2, values)
    for bus1, bus2 in buses:
        diff = out1[bus1] ^ out2[bus2]
        if diff:
            return (bus1, (diff & -diff).bit_length() - 1)
    return None


def minimize_counterexample(
    c1: Circuit,
    c2: Circuit,
    buses: Sequence[Tuple[str, str]],
    values: Dict[str, int],
) -> Dict[str, int]:
    """Greedily reduce a counterexample to a 1-minimal input vector.

    Repeatedly clears any single set input bit whose removal keeps the
    circuits disagreeing, until no single bit can be cleared.  The result
    provably still differs (every accepted step re-simulates both
    circuits), and is typically a handful of set bits instead of a dense
    random vector.
    """
    current = dict(values)
    changed = True
    while changed:
        changed = False
        for name in sorted(current):
            value = current[name]
            bit = 0
            while (value >> bit) != 0:
                if (value >> bit) & 1:
                    trial = dict(current)
                    trial[name] = value & ~(1 << bit)
                    if verify_counterexample(c1, c2, buses, trial) is not None:
                        current = trial
                        value = current[name]
                        changed = True
                        bit = 0
                        continue
                bit += 1
    return current


def _bus_values_for_vector(
    batch: Dict[str, List[int]], vector: int
) -> Dict[str, int]:
    """Extract input vector ``vector`` from a batch as a bus→value map."""
    return {name: vals[vector] for name, vals in batch.items()}


def check_equivalent(
    c1: Circuit,
    c2: Circuit,
    buses: Optional[Sequence[Tuple[str, str]]] = None,
    *,
    sim_vectors: int = DEFAULT_VECTORS,
    seed: int = DEFAULT_SEED,
    minimize: bool = True,
) -> CECResult:
    """Prove or refute equivalence of two circuits over paired buses.

    Runs the structural → simulation-sweep → BDD funnel described in the
    module docstring.  The answer is always exact: the sweep can only
    refute (with a concrete vector), never accept, and anything it does
    not refute is settled by the BDD proof.  ``sim_vectors=0`` skips the
    sweep entirely and goes straight to the proof stage.
    """
    pairs = tuple(matched_buses(c1, c2, buses))

    identity_pairing = all(b1 == b2 for b1, b2 in pairs) and set(
        c1.output_buses
    ) == set(c2.output_buses)
    if identity_pairing and structural_equal(c1, c2):
        return CECResult(
            equivalent=True,
            method="structural",
            buses=pairs,
            sim_vectors=0,
            seed=seed,
        )

    # Stage 2: miter + seeded random sweep.  A hit is a counterexample;
    # the surviving (signature-equal) bit pairs are the BDD candidates.
    candidates = sum(len(c1.output_bus(b1)) for b1, _ in pairs)
    if sim_vectors > 0:
        miter = build_miter(c1, c2, pairs)
        batch = random_input_batch(miter, sim_vectors, seed)
        outputs = simulate_batch(miter, batch)
        for vector, flag in enumerate(outputs["neq"]):
            if flag:
                values = _bus_values_for_vector(batch, vector)
                minimized = False
                if minimize:
                    values = minimize_counterexample(c1, c2, pairs, values)
                    minimized = True
                mismatch = verify_counterexample(c1, c2, pairs, values)
                assert mismatch is not None
                return CECResult(
                    equivalent=False,
                    method="simulation",
                    buses=pairs,
                    sim_vectors=sim_vectors,
                    seed=seed,
                    mismatch=mismatch,
                    counterexample=values,
                    minimized=minimized,
                )

    # Stage 3: discharge the surviving candidates with the BDD engine
    # under one shared manager and interleaved variable order.
    manager = BDD()
    by_net = interleaved_order(c1)
    levels = {c1.net_name(net): lvl for net, lvl in by_net.items()}
    f1 = circuit_to_bdds(c1, manager, levels)
    f2 = circuit_to_bdds(c2, manager, levels)
    for bus1, bus2 in pairs:
        for bit, (x, y) in enumerate(zip(f1[bus1], f2[bus2])):
            if x == y:
                continue  # canonical: identical node iff identical function
            diff = manager.xor(x, y)
            assignment = manager.satisfy_one(diff)
            assert assignment is not None
            values = {name: 0 for name in c1.input_buses}
            for name, nets in c1.input_buses.items():
                for i, net in enumerate(nets):
                    if assignment.get(by_net[net], 0):
                        values[name] |= 1 << i
            minimized = False
            if minimize:
                values = minimize_counterexample(c1, c2, pairs, values)
                minimized = True
            mismatch = verify_counterexample(c1, c2, pairs, values)
            assert mismatch is not None
            return CECResult(
                equivalent=False,
                method="bdd",
                buses=pairs,
                sim_vectors=sim_vectors,
                seed=seed,
                mismatch=mismatch,
                counterexample=values,
                minimized=minimized,
                bdd_nodes=manager.num_nodes,
                candidates=candidates,
            )
    return CECResult(
        equivalent=True,
        method="bdd",
        buses=pairs,
        sim_vectors=sim_vectors,
        seed=seed,
        bdd_nodes=manager.num_nodes,
        candidates=candidates,
    )


__all__ = [
    "CECResult",
    "DEFAULT_SEED",
    "DEFAULT_VECTORS",
    "build_miter",
    "check_equivalent",
    "matched_buses",
    "minimize_counterexample",
    "net_signatures",
    "random_input_batch",
    "signature_classes",
    "structural_equal",
    "structural_key",
    "verify_counterexample",
]
