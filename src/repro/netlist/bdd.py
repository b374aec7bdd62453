"""Reduced ordered binary decision diagrams and formal equivalence checking.

A small ROBDD engine (unique table + memoized ITE, no complement edges)
sufficient to *prove* properties the rest of the repository only samples:

* every conventional adder generator computes the same function
  (the proof stage of :func:`repro.netlist.equiv.check_equivalent` on
  their ``sum`` buses);
* VLCSA's recovery bus is formally the exact sum;
* the speculative bus is *not* (with a concrete counterexample);
* the optimizer's rewrites are sound.

Adders have linear-size BDDs under an interleaved variable order
(``a0 b0 a1 b1 ...``), which :func:`interleaved_order` produces by
default, so 64-bit designs verify in well under a second.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.netlist.circuit import Circuit, NetlistError


class BDD:
    """ROBDD manager.  Nodes are ints; 0 and 1 are the terminals."""

    def __init__(self):
        # node id -> (level, lo, hi); terminals have no entry
        self._nodes: Dict[int, Tuple[int, int, int]] = {}
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._next_id = 2

    # ------------------------------------------------------------- basics

    @property
    def num_nodes(self) -> int:
        return len(self._nodes) + 2

    def _level(self, f: int) -> int:
        if f < 2:
            return 1 << 60  # terminals sit below every variable
        return self._nodes[f][0]

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = self._next_id
            self._next_id += 1
            self._nodes[node] = key
            self._unique[key] = node
        return node

    def var(self, level: int) -> int:
        """The projection function of the variable at ``level``."""
        if level < 0:
            raise ValueError("variable level must be non-negative")
        return self._mk(level, 0, 1)

    def _cofactors(self, f: int, level: int) -> Tuple[int, int]:
        if f < 2 or self._nodes[f][0] != level:
            return f, f
        _, lo, hi = self._nodes[f]
        return lo, hi

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` (the universal connective)."""
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._level(f), self._level(g), self._level(h))
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        result = self._mk(
            level, self.ite(f0, g0, h0), self.ite(f1, g1, h1)
        )
        self._ite_cache[key] = result
        return result

    # ----------------------------------------------------------- operators

    def not_(self, f: int) -> int:
        """Complement."""
        return self.ite(f, 0, 1)

    def and_(self, f: int, g: int) -> int:
        """Conjunction."""
        return self.ite(f, g, 0)

    def or_(self, f: int, g: int) -> int:
        """Disjunction."""
        return self.ite(f, 1, g)

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, self.not_(g), g)

    # ------------------------------------------------------------ queries

    def count_nodes(self, roots: Sequence[int]) -> int:
        """Nodes reachable from ``roots`` (shared nodes counted once),
        terminals included."""
        seen = {0, 1}
        stack = [r for r in roots if r not in seen]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            _, lo, hi = self._nodes[node]
            stack.append(lo)
            stack.append(hi)
        return len(seen)

    def satisfy_one(self, f: int) -> Optional[Dict[int, int]]:
        """A satisfying assignment ``{level: bit}``, or None if f == 0.

        Unmentioned variables are don't-cares.
        """
        if f == 0:
            return None
        assignment: Dict[int, int] = {}
        node = f
        while node != 1:
            level, lo, hi = self._nodes[node]
            if hi != 0:
                assignment[level] = 1
                node = hi
            else:
                assignment[level] = 0
                node = lo
        return assignment


def interleaved_order(circuit: Circuit) -> Dict[int, int]:
    """Net -> BDD level, interleaving the input buses bit by bit.

    ``a0 b0 a1 b1 ...`` keeps adder BDDs linear; the same order must be
    used for both circuits in an equivalence check.
    """
    buses = sorted(circuit.input_buses.items())
    order: Dict[int, int] = {}
    level = 0
    max_width = max((len(nets) for _, nets in buses), default=0)
    for bit in range(max_width):
        for _, nets in buses:
            if bit < len(nets):
                order[nets[bit]] = level
                level += 1
    return order


_BDD_OPS = {
    "AND2": lambda m, a, b: m.and_(a, b),
    "OR2": lambda m, a, b: m.or_(a, b),
    "XOR2": lambda m, a, b: m.xor(a, b),
    "NAND2": lambda m, a, b: m.not_(m.and_(a, b)),
    "NOR2": lambda m, a, b: m.not_(m.or_(a, b)),
    "XNOR2": lambda m, a, b: m.not_(m.xor(a, b)),
}


def net_functions(
    circuit: Circuit, manager: BDD, levels_by_name: Optional[Dict[str, int]] = None
) -> Dict[int, int]:
    """Build the BDD of *every net* of ``circuit`` (net -> BDD node).

    The workhorse behind :func:`circuit_to_bdds`; exposed separately so
    the equivalence engine (:mod:`repro.netlist.equiv`) can discharge
    candidate-equivalent *internal* nets, not just primary outputs.
    ``levels_by_name`` is as in :func:`circuit_to_bdds`.
    """
    if levels_by_name is None:
        by_net = interleaved_order(circuit)
        levels_by_name = {
            circuit.net_name(net): lvl for net, lvl in by_net.items()
        }
    values: Dict[int, int] = {}
    for name, nets in circuit.input_buses.items():
        for net in nets:
            bit_name = circuit.net_name(net)
            if bit_name not in levels_by_name:
                raise NetlistError(f"no BDD level for input bit {bit_name!r}")
            values[net] = manager.var(levels_by_name[bit_name])

    for gate in circuit.gates:
        ins = [values[n] for n in gate.inputs]
        kind = gate.kind
        if kind in _BDD_OPS:
            out = _BDD_OPS[kind](manager, ins[0], ins[1])
        elif kind == "INV":
            out = manager.not_(ins[0])
        elif kind == "BUF":
            out = ins[0]
        elif kind == "CONST0":
            out = 0
        elif kind == "CONST1":
            out = 1
        elif kind == "MUX2":
            out = manager.ite(ins[0], ins[2], ins[1])
        elif kind == "AOI21":
            out = manager.not_(manager.or_(manager.and_(ins[0], ins[1]), ins[2]))
        elif kind == "OAI21":
            out = manager.not_(manager.and_(manager.or_(ins[0], ins[1]), ins[2]))
        elif kind == "AOI22":
            out = manager.not_(
                manager.or_(manager.and_(ins[0], ins[1]), manager.and_(ins[2], ins[3]))
            )
        elif kind == "OAI22":
            out = manager.not_(
                manager.and_(manager.or_(ins[0], ins[1]), manager.or_(ins[2], ins[3]))
            )
        else:
            raise NetlistError(f"no BDD semantics for gate kind {kind!r}")
        values[gate.output] = out

    return values


def circuit_to_bdds(
    circuit: Circuit, manager: BDD, levels_by_name: Optional[Dict[str, int]] = None
) -> Dict[str, List[int]]:
    """Build the BDD of every output bit of ``circuit``.

    ``levels_by_name`` maps *input bit names* (``bus[i]`` / 1-bit bus
    names) to variable levels, so two circuits with identical port shapes
    share variables; by default :func:`interleaved_order` is derived from
    this circuit.
    """
    values = net_functions(circuit, manager, levels_by_name)
    return {
        name: [values[n] for n in nets]
        for name, nets in circuit.output_buses.items()
    }
