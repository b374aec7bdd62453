"""Tests for the gate-level Fig. 5.3 machine (repro.core.pipeline)."""

import random

import pytest

from repro.core.pipeline import PipelinedAdder, build_machine
from repro.engine.elab import build_design
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import simulate_batch_reference

DESIGNS = ("vlcsa1", "vlcsa2", "vlsa")

#: A carry chain across windows: every design at n=20, k=5 stalls on it.
STALL_PAIR = ((1 << 15) - 1, 1)


@pytest.fixture(scope="module")
def cores():
    return {name: build_design(name, 20, 5) for name in DESIGNS}


@pytest.fixture(scope="module")
def pipes(cores):
    return {name: PipelinedAdder(build_machine(core)) for name, core in cores.items()}


def _random_pairs(seed, count, width=20):
    gen = random.Random(seed)
    return [(gen.randrange(1 << width), gen.randrange(1 << width)) for _ in range(count)]


class TestProtocol:
    def test_all_results_correct_in_order(self, pipes):
        pairs = _random_pairs(1, 300)
        for name, pipe in pipes.items():
            results, stats = pipe.run_stream(pairs)
            assert results == [a + b for a, b in pairs], name
            assert stats.operations == 300
            assert len(stats.latencies) == 300

    def test_fast_path_throughput_is_one_per_cycle(self, pipes):
        """Chain-free operands never stall: N ops in N + latency cycles."""
        pairs = [(1 << i, 0) for i in range(16)] * 5
        for name, pipe in pipes.items():
            results, stats = pipe.run_stream(pairs)
            assert results == [a + b for a, b in pairs], name
            assert stats.stall_cycles == 0
            assert stats.latencies == [1] * len(pairs)
            assert stats.cycles <= len(pairs) + 3  # pipeline fill/drain

    def test_stall_costs_exactly_one_extra_cycle(self, pipes):
        clean = [(5, 6)] * 10
        one_stall = list(clean)
        one_stall[4] = STALL_PAIR
        for name, pipe in pipes.items():
            _, base = pipe.run_stream(clean)
            results, stalled = pipe.run_stream(one_stall)
            assert results == [a + b for a, b in one_stall], name
            assert stalled.cycles == base.cycles + 1
            assert stalled.stall_cycles == 1
            assert stalled.latencies == [1] * 4 + [2] + [1] * 5

    def test_back_to_back_stalls(self, pipes):
        pairs = [STALL_PAIR] * 8
        for name, pipe in pipes.items():
            results, stats = pipe.run_stream(pairs)
            assert results == [a + b for a, b in pairs], name
            assert stats.stall_cycles == 8
            assert stats.latencies == [2] * 8

    def test_capture_during_stall_trigger_does_not_corrupt(self, pipes):
        """The protocol-bug regression: an operand offered in the very
        cycle a stall is detected must not clobber the recovery operands."""
        gen = random.Random(9)
        pairs = []
        for _ in range(60):
            pairs.append(STALL_PAIR)  # stall trigger
            pairs.append((gen.randrange(1 << 20), gen.randrange(1 << 20)))
        for name, pipe in pipes.items():
            results, _ = pipe.run_stream(pairs)
            assert results == [a + b for a, b in pairs], name

    def test_stall_rate_matches_behavioral_model(self, pipes):
        """On one shared stream the gate machine stalls exactly where the
        behavioural detector flags fire, and as often as the statistical
        stream model counts."""
        from repro.model.behavioral import err0_flags, err1_flags, pack_ints, window_profile
        from repro.model.latency import VariableLatencyAdderSim, VariableLatencyTiming

        pairs = _random_pairs(3, 500)
        a = pack_ints([p[0] for p in pairs], 20)
        b = pack_ints([p[1] for p in pairs], 20)
        lsb = window_profile(a, b, 20, 5, "lsb")
        msb = window_profile(a, b, 20, 5, "msb")
        behavioural = {
            "vlcsa1": err0_flags(lsb),
            "vlcsa2": err0_flags(msb) & err1_flags(msb),
        }
        sim = VariableLatencyAdderSim(VariableLatencyTiming(1.0, 1.0, 1.5))
        for name, flags in behavioural.items():
            _, stats = pipes[name].run_stream(pairs)
            assert stats.latencies == [2 if f else 1 for f in flags], name
            modelled = sim.run(flags)
            assert stats.stall_cycles == int(flags.sum()) == modelled.stalls > 0
            assert sum(stats.latencies) == modelled.total_cycles

    def test_results_and_stalls_follow_the_reference_core(self, cores, pipes):
        """Per operation, the machine accepts ``sum_rec`` after a stall when
        the core's ``err`` is set and ``sum`` in one cycle otherwise, as the
        reference interpreter evaluates the core."""
        pairs = _random_pairs(10, 120)
        for name, core in cores.items():
            ref = simulate_batch_reference(
                core, {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
            )
            results, stats = pipes[name].run_stream(pairs)
            assert results == [
                rec if err else spec
                for spec, rec, err in zip(ref["sum"], ref["sum_rec"], ref["err"])
            ], name
            assert stats.latencies == [2 if err else 1 for err in ref["err"]]
            assert 0 < sum(ref["err"]) < len(pairs)

    def test_empty_stream(self, pipes):
        for pipe in pipes.values():
            results, stats = pipe.run_stream([])
            assert results == []
            assert stats.cycles == 0
            assert stats.cycles_per_add == 0.0

    def test_drain_guard(self, pipes):
        for pipe in pipes.values():
            with pytest.raises(RuntimeError, match="drain"):
                pipe.run_stream([(1, 1)], max_cycles=0)

    def test_traced_run_records_span_and_latency_histogram(self, pipes):
        from repro.obs import spans as obs

        obs.reset()
        obs.enable()
        try:
            pipes["vlcsa1"].run_stream([(5, 6), STALL_PAIR, (7, 8)])
            collector = obs.global_collector()
            runs = [s for s in collector.spans if s.name == "machine.run"]
            hist = collector.histograms["machine.latency_cycles"]
        finally:
            obs.disable()
            obs.reset()
        assert len(runs) == 1
        assert runs[0].args["operations"] == 3
        assert hist.count == 3
        assert hist.total == 1 + 2 + 1


class TestStructure:
    def test_design_register_banks(self, cores):
        design = build_machine(cores["vlcsa1"])
        q_buses = {r.q_bus for r in design.registers}
        assert q_buses == {
            "a_q", "b_q", "op_live_q", "stalled_q", "out_valid_q", "result_q"
        }
        assert sorted(design.free_inputs) == ["a", "b", "in_valid"]
        assert len(design.circuit.output_bus("result")) == 21

    def test_reset_state_is_idle(self, cores):
        for core in cores.values():
            design = build_machine(core)
            out = design.step({"a": 0, "b": 0, "in_valid": 0})
            assert out["out_valid"] == 0
            assert out["in_ready"] == 1


def _liar(width=4):
    """A core that honours the port contract and answers 0 to everything."""
    c = Circuit("liar")
    c.add_input_bus("a", width)
    c.add_input_bus("b", width)
    zero = c.const0()
    c.set_output_bus("sum", [zero] * (width + 1))
    c.set_output_bus("sum_rec", [zero] * (width + 1))
    c.set_output("err", zero)
    return c


class TestPortContract:
    def test_any_core_with_the_contract_is_wrapped(self):
        results, stats = PipelinedAdder(build_machine(_liar())).run_stream([(1, 2)])
        assert results == [0]
        assert stats.latencies == [1]

    def test_lying_core_is_reported_as_machine_result(self):
        from repro.fuzz.oracle import DesignPoint, Oracle

        oracle = Oracle(DesignPoint("vlcsa1", 4, 2), circuit=_liar())
        checks = {d.check for d in oracle.diverges(1, 2)}
        assert "machine-result" in checks
