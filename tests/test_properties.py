"""Cross-cutting property-based tests (hypothesis).

These tie the substrate layers together: randomly *generated circuits*
must survive every transformation (optimization, buffering, Verilog
round-trip) unchanged in function, and the three semantic engines
(bit-parallel simulation, BDDs, behavioural models) must agree wherever
they overlap.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.netlist.circuit import Circuit
from repro.netlist.equiv import check_equivalent
from repro.netlist.optimize import buffer_fanout, optimize
from repro.netlist.simulate import simulate_batch
from repro.netlist.validate import check_circuit
from repro.rtl import from_verilog, to_verilog

_GATE_CHOICES = [
    ("AND2", 2), ("OR2", 2), ("XOR2", 2), ("NAND2", 2), ("NOR2", 2),
    ("XNOR2", 2), ("INV", 1), ("BUF", 1), ("MUX2", 3),
    ("AOI21", 3), ("OAI21", 3), ("AOI22", 4), ("OAI22", 4),
]


@st.composite
def random_circuits(draw, max_gates=30, num_inputs=5):
    """A random combinational DAG over ``num_inputs`` input bits."""
    c = Circuit("rand")
    nets = list(c.add_input_bus("x", num_inputs))
    use_consts = draw(st.booleans())
    if use_consts:
        nets.append(c.const0())
        nets.append(c.const1())
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    for _ in range(n_gates):
        kind, arity = draw(st.sampled_from(_GATE_CHOICES))
        ins = [nets[draw(st.integers(0, len(nets) - 1))] for _ in range(arity)]
        nets.append(c.add_gate(kind, ins))
    n_outputs = draw(st.integers(min_value=1, max_value=min(6, len(nets))))
    c.set_output_bus("y", nets[-n_outputs:])
    return c


def _all_vectors(num_inputs=5):
    return list(range(1 << num_inputs))


def _function_table(circuit):
    return simulate_batch(circuit, {"x": _all_vectors()})["y"]


class TestTransformationSoundness:
    @settings(max_examples=60, deadline=None)
    @given(circuit=random_circuits())
    def test_optimize_preserves_function(self, circuit):
        opt, _ = optimize(circuit)
        check_circuit(opt)
        assert _function_table(opt) == _function_table(circuit)

    @settings(max_examples=40, deadline=None)
    @given(circuit=random_circuits(), limit=st.integers(min_value=2, max_value=6))
    def test_buffering_preserves_function_and_caps_fanout(self, circuit, limit):
        buffered = buffer_fanout(circuit, limit)
        check_circuit(buffered)
        fanout = buffered.fanout_counts()
        for net, count in enumerate(fanout):
            driver = buffered.driver_of(net)
            if driver is not None and driver.kind in ("CONST0", "CONST1"):
                continue  # tie cells are exempt (zero load slope)
            assert count <= limit, buffered.net_name(net)
        assert _function_table(buffered) == _function_table(circuit)

    @settings(max_examples=40, deadline=None)
    @given(circuit=random_circuits())
    def test_verilog_roundtrip_preserves_function(self, circuit):
        restored = from_verilog(to_verilog(circuit))
        assert _function_table(restored) == _function_table(circuit)

    @settings(max_examples=25, deadline=None)
    @given(circuit=random_circuits(max_gates=18))
    def test_bdd_agrees_with_simulation(self, circuit):
        """Formal equivalence of a circuit with itself after optimize,
        which exercises BDD construction over every gate kind."""
        opt, _ = optimize(circuit)
        assert check_equivalent(circuit, opt).equivalent

    @settings(max_examples=30, deadline=None)
    @given(circuit=random_circuits())
    def test_optimize_idempotent_on_function(self, circuit):
        once, _ = optimize(circuit)
        twice, _ = optimize(once)
        assert _function_table(once) == _function_table(twice)


class TestAdderAlgebra:
    widths = st.integers(min_value=1, max_value=40)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=(1 << 24) - 1),
        b=st.integers(min_value=0, max_value=(1 << 24) - 1),
    )
    def test_commutativity_across_designs(self, a, b):
        from tests.test_properties import _ADDERS_24  # self-import for cache

        for c in _ADDERS_24:
            out_ab = simulate_batch(c, {"a": [a], "b": [b]})["sum"][0]
            out_ba = simulate_batch(c, {"a": [b], "b": [a]})["sum"][0]
            assert out_ab == out_ba == a + b, c.name

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=(1 << 24) - 1),
        b=st.integers(min_value=0, max_value=(1 << 24) - 1),
    )
    def test_vlcsa_never_lies(self, a, b):
        """The reliability contract under arbitrary operands."""
        out1 = simulate_batch(_VLCSA1_24, {"a": [a], "b": [b]})
        out2 = simulate_batch(_VLCSA2_24, {"a": [a], "b": [b]})
        for out in (out1, out2):
            assert out["sum_rec"][0] == a + b
            if not out["err"][0]:
                assert out["sum"][0] == a + b

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=(1 << 24) - 1),
        b=st.integers(min_value=0, max_value=(1 << 24) - 1),
    )
    def test_speculation_underestimates(self, a, b):
        """SCSA's result is never above the true sum (thesis §3.3)."""
        got = simulate_batch(_SCSA_24, {"a": [a], "b": [b]})["sum"][0]
        assert got <= a + b


# Module-level design cache (builds once, reused across hypothesis examples).
from repro.adders import (  # noqa: E402
    build_brent_kung_adder,
    build_carry_select_adder,
    build_kogge_stone_adder,
    build_ling_adder,
    build_ripple_adder,
)
from repro.core import build_scsa_adder, build_vlcsa1, build_vlcsa2  # noqa: E402

_ADDERS_24 = [
    build_ripple_adder(24),
    build_kogge_stone_adder(24),
    build_brent_kung_adder(24),
    build_carry_select_adder(24),
    build_ling_adder(24),
]
_VLCSA1_24 = build_vlcsa1(24, 6)
_VLCSA2_24 = build_vlcsa2(24, 6)
_SCSA_24 = build_scsa_adder(24, 6)


class TestInterchangeSoundness:
    @settings(max_examples=30, deadline=None)
    @given(circuit=random_circuits())
    def test_json_roundtrip_preserves_function(self, circuit):
        from repro.netlist.export import from_json, to_json

        restored = from_json(to_json(circuit))
        assert _function_table(restored) == _function_table(circuit)
        assert restored.count_by_kind() == circuit.count_by_kind()

    @settings(max_examples=20, deadline=None)
    @given(circuit=random_circuits(max_gates=15))
    def test_fault_simulation_sanity(self, circuit):
        """Fault-free simulation inside the fault engine matches the
        reference simulator, and coverage is a valid fraction."""
        from repro.netlist.faults import fault_coverage

        vectors = {"x": _all_vectors()}
        report = fault_coverage(circuit, vectors)
        assert 0.0 <= report.coverage <= 1.0
        assert report.detected + len(report.undetected) == report.total

    @settings(max_examples=20, deadline=None)
    @given(circuit=random_circuits(max_gates=15))
    def test_exhaustive_vectors_dominate_partial(self, circuit):
        """More vectors never reduce stuck-at coverage."""
        from repro.netlist.faults import fault_coverage

        some = fault_coverage(circuit, {"x": _all_vectors()[:4]})
        all_v = fault_coverage(circuit, {"x": _all_vectors()})
        assert all_v.coverage >= some.coverage
