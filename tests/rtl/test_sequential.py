"""Tests for the clocked Verilog of the Fig. 5.3 machine
(:func:`repro.rtl.clocked_to_verilog`): the register wrapper's text, and
the handshake of the machine read back from that text."""

import random

import pytest

from repro.core import build_vlcsa1, build_vlcsa2, build_vlsa
from repro.core.pipeline import PipelinedAdder, build_machine
from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.clocked import ClockedDesign, RegisterSpec
from repro.rtl import clocked_from_verilog, clocked_to_verilog

#: A carry chain across windows: VLCSA 1 at n=20, k=5 stalls on it.
STALL_PAIR = ((1 << 15) - 1, 1)


@pytest.fixture(scope="module")
def wrapper_text():
    return clocked_to_verilog(build_machine(build_vlcsa1(32, 8)))


@pytest.fixture(scope="module")
def read_back():
    """The VLCSA 1 machine as read back from its own Verilog."""
    text = clocked_to_verilog(build_machine(build_vlcsa1(20, 5)))
    return PipelinedAdder(clocked_from_verilog(text))


class TestStructure:
    def test_module_header_and_ports(self, wrapper_text):
        assert wrapper_text.count("endmodule") == 2
        assert (
            "module vlcsa1_32w8_seq_top (clk, rst_n, a, b, in_valid, "
            "out_valid, result, in_ready);"
        ) in wrapper_text
        for line in ("input clk;", "input rst_n;", "input [31:0] a;",
                     "input in_valid;", "output [32:0] result;", "output in_ready;"):
            assert f"  {line}\n" in wrapper_text

    def test_instantiates_core_by_name(self, wrapper_text):
        """The wrapper instantiates the next-state module emitted above it."""
        assert "module vlcsa1_32w8_seq (" in wrapper_text
        assert "  vlcsa1_32w8_seq next_state (" in wrapper_text
        assert ".result_d(result_d)" in wrapper_text
        assert ".in_ready(in_ready)" in wrapper_text

    def test_handshake_logic_present(self, wrapper_text, read_back):
        for reg in ("op_live_q <= op_live_d;", "stalled_q <= stalled_d;",
                    "out_valid_q <= out_valid_d;", "result_q <= result_d[32:0];"):
            assert f"      {reg}\n" in wrapper_text
        pairs = [(5, 6), STALL_PAIR, (7, 8)]
        results, stats = read_back.run_stream(pairs)
        assert results == [a + b for a, b in pairs]
        assert stats.latencies == [1, 2, 1]

    def test_capture_gated_by_ready(self, read_back):
        """Capture must not clobber operands in the stall-trigger cycle."""
        gen = random.Random(9)
        pairs = []
        for _ in range(20):
            pairs.append(STALL_PAIR)
            pairs.append((gen.randrange(1 << 20), gen.randrange(1 << 20)))
        results, stats = read_back.run_stream(pairs)
        assert results == [a + b for a, b in pairs]
        assert stats.stall_cycles >= 20

    def test_reset_clears_state(self, wrapper_text):
        assert "  always @(posedge clk or negedge rst_n) begin\n" in wrapper_text
        assert "    if (!rst_n) begin\n" in wrapper_text
        for reset in ("a_q <= 32'd0;", "op_live_q <= 1'd0;", "stalled_q <= 1'd0;",
                      "out_valid_q <= 1'd0;", "result_q <= 33'd0;"):
            assert f"      {reset}\n" in wrapper_text

    def test_custom_wrapper_name(self):
        """The wrapper is named after the core it wraps."""
        core = build_vlcsa1(16, 4)
        core.name = "my_adder"
        text = clocked_to_verilog(build_machine(core))
        assert "module my_adder_seq_top (" in text
        assert "  my_adder_seq next_state (" in text


class TestContract:
    def test_works_for_all_variable_latency_designs(self):
        for core in (build_vlcsa1(16, 4), build_vlcsa2(16, 4), build_vlsa(16, 4)):
            machine = build_machine(core)
            text = clocked_to_verilog(machine)
            assert f"module {core.name}_seq_top (" in text
            assert clocked_from_verilog(text).registers == machine.registers

    def test_missing_ports_rejected(self):
        """A register bank whose next-state bus the circuit lacks."""
        c = Circuit("plain")
        c.add_input("q")
        c.set_output("y", c.const0())
        with pytest.raises(NetlistError, match="next-state bus 'd'"):
            clocked_to_verilog(ClockedDesign(c, [RegisterSpec("q", "d")]))

    def test_wrong_inputs_rejected(self):
        """A port named like one the wrapper needs (``clk``/``rst_n``)."""
        c = Circuit("odd")
        q = c.add_input("q")
        c.add_input("clk")
        c.set_output("d", c.not_(q))
        with pytest.raises(NetlistError, match="port name"):
            clocked_to_verilog(ClockedDesign(c, [RegisterSpec("q", "d")]))
