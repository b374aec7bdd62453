"""Wallace-tree multiplier with a pluggable final adder (extension).

Implements the thesis' future-work direction (Ch. 8): apply speculative /
variable-latency carry select addition to multiplication.  The partial
products are compressed carry-save (no speculation there — carry-save has
no long carry chains), and the single carry-propagate addition at the end
is where the adder choice matters:

* ``final_adder="kogge_stone"`` (or any prefix network name) — exact
  product, the conventional design;
* ``final_adder="scsa"`` — SCSA 1 speculative final addition: the product
  is wrong with (roughly) the SCSA error rate *at the final-adder input
  distribution*, which is **not** uniform — the benchmark measures how
  far it sits from Eq. 3.13;
* ``final_adder="vlcsa1"`` — reliable variable-latency multiplication:
  outputs ``product`` (speculative), ``product_rec`` (exact) and ``err``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.adders.csa import (
    add_final_prefix,
    columns_to_rows,
    reduce_columns,
)
from repro.adders.prefix import PREFIX_NETWORKS
from repro.core.detection import build_err0
from repro.core.recovery import build_recovery
from repro.core.scsa import build_scsa_core
from repro.netlist.circuit import Circuit
from repro.netlist.optimize import strip_dead


def _partial_product_columns(circuit: Circuit, a, b) -> List[List[int]]:
    width = len(a)
    columns: List[List[int]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            columns[i + j].append(circuit.and2(a[j], b[i]))
    while columns and not columns[-1]:
        columns.pop()
    return columns


def build_multiplier(
    width: int,
    final_adder: str = "kogge_stone",
    window_size: Optional[int] = None,
    name: Optional[str] = None,
) -> Circuit:
    """n x n -> 2n Wallace multiplier.

    ``window_size`` configures the speculative final adders (defaults to
    the thesis' 0.01% operating point for the product width).
    """
    if width < 1:
        raise ValueError(f"multiplier width must be positive, got {width}")
    circuit = Circuit(name or f"mul_{final_adder}_{width}")
    a = circuit.add_input_bus("a", width)
    b = circuit.add_input_bus("b", width)

    if width == 1:
        circuit.set_output_bus("product", [circuit.and2(a[0], b[0])])
        return circuit

    columns = reduce_columns(circuit, _partial_product_columns(circuit, a, b))
    row_a, row_b = columns_to_rows(circuit, columns)
    # Reduction may create columns beyond 2*width - 1; the product value
    # provably fits in 2*width bits, so the output bus is clamped there.
    product_width = 2 * width

    def clamp(sums: List[int]) -> List[int]:
        sums = list(sums)
        while len(sums) < product_width:
            sums.append(circuit.const0())
        return sums[:product_width]

    if final_adder in PREFIX_NETWORKS:
        sums = add_final_prefix(circuit, row_a, row_b, final_adder)
        circuit.set_output_bus("product", clamp(sums))
        return strip_dead(circuit)

    if window_size is None:
        from repro.analysis.sizing import default_window

        window_size = default_window(product_width)

    if final_adder == "scsa":
        core = build_scsa_core(circuit, row_a, row_b, window_size)
        circuit.set_output_bus("product", clamp(core.sum_spec))
        return strip_dead(circuit)

    if final_adder == "vlcsa1":
        core = build_scsa_core(circuit, row_a, row_b, window_size)
        err = build_err0(circuit, core.window_group_g, core.window_group_p)
        recovered = build_recovery(circuit, core.windows)
        circuit.set_output_bus("product", clamp(core.sum_spec))
        circuit.set_output_bus("product_rec", clamp(recovered))
        circuit.set_output("err", err)
        circuit.set_output("valid", circuit.not_(err))
        return strip_dead(circuit)

    raise ValueError(
        f"unknown final adder {final_adder!r}; use a prefix network name, "
        f"'scsa', or 'vlcsa1'"
    )
