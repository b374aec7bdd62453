"""Tests for the gate-level variable-latency machine, one design at a time.

The machine is :func:`repro.core.pipeline.build_machine` around a core,
driven by :class:`repro.core.pipeline.PipelinedAdder`.  These tests pin
single operations, one long stream of one design, the port contract and
the stall pattern against the behavioural detector.
"""

import random

import pytest

from repro.core import build_vlcsa1, build_vlcsa2, build_vlsa
from repro.core.pipeline import PipelinedAdder, build_machine
from repro.netlist.circuit import Circuit, NetlistError


@pytest.fixture(scope="module")
def machine():
    return PipelinedAdder(build_machine(build_vlcsa1(20, 5)))


def _pairs(seed, count, width):
    gen = random.Random(seed)
    return [(gen.randrange(1 << width), gen.randrange(1 << width)) for _ in range(count)]


class TestProtocol:
    def test_single_add_fast_path(self, machine):
        results, stats = machine.run_stream([(100, 200)])
        assert results == [300]
        assert stats.latencies == [1]
        assert stats.stall_cycles == 0

    def test_single_add_stall_path(self, machine):
        a, b = (1 << 15) - 1, 1  # cross-window chain
        results, stats = machine.run_stream([(a, b)])
        assert results == [a + b]
        assert stats.latencies == [2]
        assert stats.stall_cycles == 1

    def test_stream_all_results_exact(self, machine):
        pairs = _pairs(1, 400, 20)
        results, stats = machine.run_stream(pairs)
        assert results == [a + b for a, b in pairs]
        assert set(stats.latencies) <= {1, 2}
        assert sum(stats.latencies) == 400 + stats.stall_cycles
        # Back-to-back issue: each stall costs one cycle over a clean stream.
        _, clean = machine.run_stream([(0, 0)] * 400)
        assert stats.cycles == clean.cycles + stats.stall_cycles

    def test_stall_rate_matches_detector_rate(self, machine):
        """k=5 on 20 bits stalls a few percent of uniform additions."""
        _, stats = machine.run_stream(_pairs(2, 2000, 20))
        assert 0.005 < stats.stall_cycles / stats.operations < 0.10

    def test_empty_stream(self, machine):
        results, stats = machine.run_stream([])
        assert results == []
        assert stats.cycles == 0
        assert stats.stall_cycles == 0
        assert stats.cycles_per_add == 0.0


class TestPortContract:
    def test_missing_ports_rejected(self):
        c = Circuit("bad")
        a = c.add_input_bus("a", 4)
        c.add_input_bus("b", 4)
        c.set_output_bus("sum", a)
        with pytest.raises(NetlistError, match="lacks"):
            build_machine(c)

    def test_wrong_inputs_rejected(self):
        c = Circuit("bad2")
        x = c.add_input_bus("x", 4)
        c.set_output_bus("sum", x)
        c.set_output_bus("sum_rec", x)
        c.set_output("err", c.const0())
        with pytest.raises(NetlistError, match="inputs 'a' and 'b'"):
            build_machine(c)

    def test_works_with_all_variable_latency_designs(self):
        pairs = _pairs(3, 150, 18)
        for core in (build_vlcsa1(18, 5), build_vlcsa2(18, 5), build_vlsa(18, 5)):
            results, stats = PipelinedAdder(build_machine(core)).run_stream(pairs)
            assert results == [a + b for a, b in pairs], core.name
            assert len(stats.latencies) == len(pairs), core.name


class TestAgainstStatisticalSim:
    def test_machine_matches_behavioral_stall_prediction(self):
        """Gate-level stalls == behavioural ERR0 flags on the same stream
        (the conformance property)."""

        from repro.model.behavioral import err0_flags, pack_ints, window_profile

        width, k = 24, 6
        machine = PipelinedAdder(build_machine(build_vlcsa1(width, k)))
        pairs = _pairs(4, 600, width)
        _, stats = machine.run_stream(pairs)
        a = pack_ints([p[0] for p in pairs], width)
        b = pack_ints([p[1] for p in pairs], width)
        flags = err0_flags(window_profile(a, b, width, k))
        assert stats.latencies == [2 if f else 1 for f in flags]
        assert stats.stall_cycles == int(flags.sum()) > 0
