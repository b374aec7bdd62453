"""Verilog emission / readback round-trip tests (repro.rtl)."""

import pytest

from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.simulate import simulate_batch
from repro.rtl import from_verilog, to_verilog
from repro.rtl.reader import VerilogParseError

from tests.conftest import random_pairs


def _equivalent(c1, c2, width, seed=3):
    pairs = random_pairs(width, 60, seed)
    av = [a for a, _ in pairs]
    bv = [b for _, b in pairs]
    out1 = simulate_batch(c1, {"a": av, "b": bv})
    out2 = simulate_batch(c2, {"a": av, "b": bv})
    assert out1 == out2


class TestEmission:
    def test_header_and_ports(self):
        from repro.adders import build_ripple_adder

        v = to_verilog(build_ripple_adder(8, name="ripple8"))
        assert "module ripple8 (a, b, sum);" in v
        assert "input [7:0] a;" in v
        assert "output [8:0] sum;" in v
        assert v.rstrip().endswith("endmodule")

    def test_every_gate_becomes_one_assign(self):
        from repro.adders import build_ripple_adder

        c = build_ripple_adder(6)
        v = to_verilog(c)
        # one assign per gate plus one per output bit
        assert v.count("assign ") == c.num_gates + 7

    def test_single_bit_ports_have_no_range(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y", c.not_(a))
        v = to_verilog(c)
        assert "input a;" in v
        assert "output y;" in v

    def test_bad_identifier_rejected(self):
        c = Circuit("bad name")
        a = c.add_input("a")
        c.set_output("y", a)
        with pytest.raises(NetlistError, match="identifier"):
            to_verilog(c)

    def test_no_outputs_rejected(self):
        c = Circuit("t")
        c.add_input("a")
        with pytest.raises(NetlistError, match="no outputs"):
            to_verilog(c)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "generator_name",
        ["ripple", "kogge_stone", "brent_kung", "carry_select", "conditional_sum"],
    )
    def test_conventional_adders_roundtrip(self, generator_name):
        from repro.adders import ADDER_GENERATORS

        c = ADDER_GENERATORS[generator_name](16)
        c2 = from_verilog(to_verilog(c))
        assert c2.num_gates == c.num_gates
        _equivalent(c, c2, 16)

    def test_scsa_roundtrip(self):
        from repro.core import build_scsa_adder

        c = build_scsa_adder(24, 6)
        _equivalent(c, from_verilog(to_verilog(c)), 24)

    def test_vlcsa1_roundtrip(self):
        from repro.core import build_vlcsa1

        c = build_vlcsa1(20, 5)
        _equivalent(c, from_verilog(to_verilog(c)), 20)

    def test_vlcsa2_roundtrip(self):
        from repro.core import build_vlcsa2

        c = build_vlcsa2(20, 5)
        _equivalent(c, from_verilog(to_verilog(c)), 20)

    def test_optimized_circuit_roundtrip(self):
        """Compound AOI/OAI cells and buffers survive the round trip."""
        from repro.adders import build_kogge_stone_adder
        from repro.netlist.optimize import optimize

        c, _ = optimize(build_kogge_stone_adder(16))
        _equivalent(c, from_verilog(to_verilog(c)), 16)

    def test_constants_roundtrip(self):
        c = Circuit("t")
        a = c.add_input("a")
        c.set_output("y", c.and2(a, c.const1()))
        c.set_output("z", c.const0())
        c2 = from_verilog(to_verilog(c))
        out = simulate_batch(c2, {"a": [0, 1]})
        assert out["y"] == [0, 1]
        assert out["z"] == [0, 0]


class TestParserErrors:
    def test_no_module_rejected(self):
        with pytest.raises(VerilogParseError, match="module"):
            from_verilog("wire x;")

    def test_no_outputs_rejected(self):
        with pytest.raises(VerilogParseError, match="outputs"):
            from_verilog("module t (a);\n  input a;\nendmodule\n")

    def test_undefined_net_rejected(self):
        src = (
            "module t (a, y);\n  input a;\n  output y;\n"
            "  assign y = ghost;\nendmodule\n"
        )
        with pytest.raises(VerilogParseError, match="undefined net"):
            from_verilog(src)

    def test_unassigned_output_bit_rejected(self):
        src = (
            "module t (a, y);\n  input a;\n  output [1:0] y;\n"
            "  assign y[0] = a;\nendmodule\n"
        )
        with pytest.raises(VerilogParseError, match="unassigned"):
            from_verilog(src)

    def test_unparseable_expression_rejected(self):
        src = (
            "module t (a, y);\n  input a;\n  output y;\n"
            "  assign y = a +++ a;\nendmodule\n"
        )
        with pytest.raises(VerilogParseError, match="unrecognized"):
            from_verilog(src)


def _machine(design, optimized):
    from repro.core.pipeline import build_machine
    from repro.engine.elab import build_design
    from repro.netlist.optimize import optimize

    core = build_design(design, 16, 4)
    if optimized:
        core, _ = optimize(core)
    return build_machine(core)


class TestClockedRoundTrip:
    """The Fig. 5.3 machine's Verilog reads back into the same machine."""

    @pytest.mark.parametrize("optimized", [False, True], ids=["plain", "optimized"])
    @pytest.mark.parametrize("design", ["vlcsa1", "vlcsa2", "vlsa"])
    def test_machine_roundtrip(self, design, optimized):
        import random

        from repro.netlist.equiv import check_equivalent
        from repro.rtl import clocked_from_verilog, clocked_to_verilog

        machine = _machine(design, optimized)
        text = clocked_to_verilog(machine)
        back = clocked_from_verilog(text)
        assert back.registers == machine.registers
        assert back.circuit.name == machine.circuit.name
        assert check_equivalent(machine.circuit, back.circuit).equivalent
        # Cycle-equal on one seeded stream, every output of every cycle.
        gen = random.Random(7)
        stream = [
            {"a": gen.getrandbits(16), "b": gen.getrandbits(16),
             "in_valid": gen.random() < 0.8}
            for _ in range(200)
        ]
        machine.reset()
        assert back.run(stream) == machine.run(stream)

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda t: t[: t.rindex("module ")], "register wrapper"),
            (lambda t: t.replace("always @", "initial @"), "register block"),
            (lambda t: t.replace("      stalled_q <= 1'd0;\n", ""), "reset value"),
            (lambda t: t.replace("vlcsa1_16w4_seq next_state", "other next_state"),
             "instantiate"),
            (lambda t: t.replace("stalled_q <= stalled_d;", "stalled_q <= bogus_d;"),
             "bogus_d"),
        ],
        ids=["one-module", "no-always", "no-reset", "wrong-instance", "unknown-d"],
    )
    def test_outside_the_emitted_wrapper_rejected(self, edit, match):
        from repro.rtl import clocked_from_verilog, clocked_to_verilog

        text = edit(clocked_to_verilog(_machine("vlcsa1", False)))
        with pytest.raises(VerilogParseError, match=match):
            clocked_from_verilog(text)
