"""Subtraction and add/sub datapath slices.

2's-complement subtraction is where the thesis' Ch. 6 story starts (the
crypto workloads of Fig. 6.2 are full of it), so the library should be
able to *build* it, not just profile it.  Both generators use the
standard complement-and-carry-in formulation over any adder style:

* :func:`build_subtractor` — ``diff = a - b``; output includes a
  ``borrow`` flag (1 when ``a < b``).
* :func:`build_addsub` — one shared datapath with a ``mode`` input
  (0 = add, 1 = subtract), the classic ALU slice: ``b`` is XOR-ed with
  ``mode`` and ``mode`` feeds the carry-in.

Speculative variants (``adder="scsa"``) inherit SCSA's semantics: the
subtraction of nearby values produces exactly the long borrow chains the
thesis warns about, which the tests use to demonstrate Ch. 6's premise at
gate level.
"""

from __future__ import annotations

from typing import List, Optional

from repro.adders.prefix import PREFIX_NETWORKS, prefix_pg_network
from repro.core.scsa import build_scsa_core
from repro.netlist.circuit import Circuit
from repro.netlist.optimize import strip_dead


def _prefix_sum_with_cin(
    circuit: Circuit,
    a: List[int],
    b: List[int],
    cin: int,
    network_name: str,
) -> List[int]:
    """a + b + cin via a prefix network; returns width+1 sum nets."""
    width = len(a)
    p = [circuit.xor2(a[i], b[i]) for i in range(width)]
    g = [circuit.and2(a[i], b[i]) for i in range(width)]
    G, P = prefix_pg_network(circuit, p, g, PREFIX_NETWORKS[network_name](width))
    # carries including cin: c[i] = G[i] | P[i] & cin
    carries = [
        circuit.or2(G[i], circuit.and2(P[i], cin)) for i in range(width)
    ]
    sums = [circuit.xor2(p[0], cin)]
    sums.extend(circuit.xor2(p[i], carries[i - 1]) for i in range(1, width))
    sums.append(carries[width - 1])
    return sums


def build_subtractor(
    width: int,
    adder: str = "kogge_stone",
    window_size: Optional[int] = None,
    name: Optional[str] = None,
) -> Circuit:
    """n-bit subtractor: outputs ``diff`` (n bits) and ``borrow``.

    ``adder`` is a prefix network name or ``"scsa"`` for a speculative
    datapath (in which case ``diff``/``borrow`` may be wrong with the
    SCSA error probability — far higher on nearby operands, which is
    Ch. 6's point).
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    circuit = Circuit(name or f"sub_{adder}_{width}")
    a = circuit.add_input_bus("a", width)
    b = circuit.add_input_bus("b", width)
    not_b = [circuit.not_(bit) for bit in b]

    if adder in PREFIX_NETWORKS:
        sums = _prefix_sum_with_cin(circuit, a, not_b, circuit.const1(), adder)
    elif adder == "scsa":
        if window_size is None:
            from repro.analysis.sizing import default_window

            window_size = default_window(width)
        # a - b = a + ~b + 1: inject the +1 as an extra operand bit by
        # pre-adding it to the low window via an incrementer on ~b.
        # Simpler and exact: fold the +1 into ~b with a ripple increment
        # (short in practice: ~b of a random operand rarely carries far),
        # then run the speculative adder on (a, ~b + 1).
        carry = circuit.const1()
        inc = []
        for bit in not_b:
            inc.append(circuit.xor2(bit, carry))
            carry = circuit.and2(bit, carry)
        core = build_scsa_core(circuit, a, inc, window_size)
        sums = core.sum_spec
    else:
        raise ValueError(
            f"unknown adder {adder!r}; use a prefix network name or 'scsa'"
        )

    circuit.set_output_bus("diff", sums[:width])
    # carry-out of (a + ~b + 1) is 1 iff a >= b; borrow is its complement
    circuit.set_output("borrow", circuit.not_(sums[width]))
    return strip_dead(circuit)


def build_addsub(
    width: int,
    network_name: str = "kogge_stone",
    name: Optional[str] = None,
) -> Circuit:
    """Add/subtract ALU slice: ``mode`` = 0 adds, 1 subtracts.

    Outputs: ``result`` (n bits) and ``carry`` (carry-out for adds,
    NOT-borrow for subtracts — the usual ALU flag convention).
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    circuit = Circuit(name or f"addsub_{width}")
    a = circuit.add_input_bus("a", width)
    b = circuit.add_input_bus("b", width)
    mode = circuit.add_input("mode")
    b_eff = [circuit.xor2(bit, mode) for bit in b]
    sums = _prefix_sum_with_cin(circuit, a, b_eff, mode, network_name)
    circuit.set_output_bus("result", sums[:width])
    circuit.set_output("carry", sums[width])
    return strip_dead(circuit)
