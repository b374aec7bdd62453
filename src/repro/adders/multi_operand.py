"""Multi-operand addition with a pluggable final adder (extension).

Second future-work direction of thesis Ch. 8: "multi-operand addition".
``count`` operands are compressed carry-save to two rows; the final
carry-propagate addition is conventional, speculative (SCSA), or reliable
variable-latency (VLCSA 1), exactly as in
:mod:`repro.adders.multiplier`.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.adders.csa import add_final_prefix, columns_to_rows, reduce_columns
from repro.adders.prefix import PREFIX_NETWORKS
from repro.core.detection import build_err0
from repro.core.recovery import build_recovery
from repro.core.scsa import build_scsa_core
from repro.netlist.circuit import Circuit
from repro.netlist.optimize import strip_dead


def result_width(width: int, count: int) -> int:
    """Bits needed for the sum of ``count`` ``width``-bit operands."""
    return width + max(1, math.ceil(math.log2(count))) if count > 1 else width


def build_multi_operand_adder(
    width: int,
    count: int,
    final_adder: str = "kogge_stone",
    window_size: Optional[int] = None,
    name: Optional[str] = None,
) -> Circuit:
    """Sum ``count`` operands (input buses ``op0`` .. ``op<count-1>``).

    Output bus ``sum`` has :func:`result_width` + 1 bits; variable-latency
    mode adds ``sum_rec``/``err``/``valid`` ports.
    """
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if count < 2:
        raise ValueError(f"need at least 2 operands, got {count}")
    circuit = Circuit(name or f"madd{count}_{final_adder}_{width}")
    operands = [circuit.add_input_bus(f"op{i}", width) for i in range(count)]

    out_width = result_width(width, count)
    columns: List[List[int]] = [[] for _ in range(out_width)]
    for bus in operands:
        for bit, net in enumerate(bus):
            columns[bit].append(net)
    columns = reduce_columns(circuit, columns)
    row_a, row_b = columns_to_rows(circuit, columns)
    # pad rows to the full result width
    zero = circuit.const0()
    while len(row_a) < out_width:
        row_a.append(zero)
        row_b.append(zero)

    if final_adder in PREFIX_NETWORKS:
        sums = add_final_prefix(circuit, row_a, row_b, final_adder)
        circuit.set_output_bus("sum", sums[: out_width + 1])
        return strip_dead(circuit)

    if window_size is None:
        from repro.analysis.sizing import default_window

        window_size = default_window(out_width)

    if final_adder == "scsa":
        core = build_scsa_core(circuit, row_a, row_b, window_size)
        circuit.set_output_bus("sum", core.sum_spec)
        return strip_dead(circuit)

    if final_adder == "vlcsa1":
        core = build_scsa_core(circuit, row_a, row_b, window_size)
        err = build_err0(circuit, core.window_group_g, core.window_group_p)
        recovered = build_recovery(circuit, core.windows)
        circuit.set_output_bus("sum", core.sum_spec)
        circuit.set_output_bus("sum_rec", recovered)
        circuit.set_output("err", err)
        circuit.set_output("valid", circuit.not_(err))
        return strip_dead(circuit)

    raise ValueError(
        f"unknown final adder {final_adder!r}; use a prefix network name, "
        f"'scsa', or 'vlcsa1'"
    )
