"""Switching-activity-based dynamic power estimation (extension).

The thesis situates variable-latency design among low-power techniques
(Razor, soft DSP, probabilistic arithmetic — Ch. 2) but reports no power
numbers.  This module adds the standard first-order estimate so the
repository can answer the obvious follow-up question:

    P_dyn ∝ f_clk * V² * Σ_nets  activity(net) * C_load(net)

* ``activity`` — toggles per applied input vector, measured by simulating
  a representative vector stream through the vectorized backend
  (:mod:`repro.netlist.compile`; bit-parallel, so one pass suffices);
* ``C_load`` — fanout pins plus the driving cell's own output load, in
  arbitrary femtofarad-like units proportional to cell area.

Only *relative* comparisons between designs are meaningful, exactly as
with the delay/area models (DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.cells.library import CellLibrary, default_library
from repro.netlist.circuit import Circuit, NetlistError

#: Load units per driven input pin (femtofarad-like).
_PIN_LOAD = 1.0
#: Self-load per unit of cell area (output diffusion etc.).
_SELF_LOAD_PER_AREA = 0.25


@dataclass
class PowerReport:
    """Outcome of :func:`estimate_power` on one circuit."""

    circuit_name: str
    vectors: int
    total_toggles: int
    #: activity-weighted capacitance, the technology-independent figure
    switched_capacitance: float
    #: per-net toggle counts (index = net id)
    toggles: List[int]

    @property
    def toggles_per_vector(self) -> float:
        transitions = max(1, self.vectors - 1)
        return self.total_toggles / transitions

    def dynamic_power(self, f_clk: float = 1.0, vdd: float = 1.0) -> float:
        """``f * V^2 * C_switched`` per applied vector (arbitrary units)."""
        transitions = max(1, self.vectors - 1)
        return f_clk * vdd * vdd * self.switched_capacitance / transitions


def _toggle_counts(sim, inputs, num_vectors: int) -> List[int]:
    """Per-net toggle counts from one pass of the limb backend.

    A transition ``v -> v+1`` is bit ``v`` of ``row ^ (row >> 1)``; the
    cross-vector shift becomes a cross-limb shift (bit ``v+1`` of a row
    is bit 0 of the next limb when ``v+1`` crosses a limb boundary) and
    the transition mask is the all-ones row with bit ``nv-1`` cleared.
    """
    from repro.netlist.compile import limb_ones, popcount_rows

    V, ones_row, _ = sim.pack_inputs_limbs(inputs)
    rows = sim.eval_limbs(V, ones_row)
    one = np.uint64(1)
    shifted = rows >> one
    if rows.shape[1] > 1:
        shifted[:, :-1] |= rows[:, 1:] << np.uint64(63)
    tmask = limb_ones(num_vectors)
    last = num_vectors - 1
    tmask[last >> 6] &= ~(one << np.uint64(last & 63))
    shifted ^= rows
    shifted &= tmask
    per_row = popcount_rows(shifted)
    perm = sim.vector_plan().perm
    return [int(per_row[perm[net]]) for net in range(sim.kernel.num_nets)]


def estimate_power(
    circuit: Circuit,
    inputs: Mapping[str, Sequence[int]],
    library: Optional[CellLibrary] = None,
) -> PowerReport:
    """Estimate switching activity under the given input vector stream.

    ``inputs`` maps each input bus to a *sequence* of vectors; toggles are
    counted between consecutive vectors (zero-delay model: each net
    toggles at most once per vector, glitches are not modelled).
    """
    from repro.netlist.compile import compile_circuit
    from repro.netlist.simulate import check_batch_inputs

    lib = library if library is not None else default_library()
    sim = compile_circuit(circuit)
    num_vectors = check_batch_inputs(circuit, inputs)
    if num_vectors < 2:
        raise NetlistError("activity estimation needs at least two vectors")
    toggles = _toggle_counts(sim, inputs, num_vectors)

    fanout = circuit.fanout_counts()
    loads: List[float] = [fanout[n] * _PIN_LOAD for n in range(circuit.num_nets)]
    for gate in circuit.gates:
        loads[gate.output] += _SELF_LOAD_PER_AREA * lib.area(gate.kind)

    switched = 0.0
    total = 0
    for net in range(circuit.num_nets):
        t = toggles[net]
        total += t
        switched += t * loads[net]

    return PowerReport(
        circuit_name=circuit.name,
        vectors=num_vectors,
        total_toggles=total,
        switched_capacitance=switched,
        toggles=toggles,
    )
