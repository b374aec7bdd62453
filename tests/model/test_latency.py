"""Tests for the variable-latency timing model (repro.model.latency)."""

import numpy as np
import pytest

from repro.model.latency import (
    SimResult,
    VariableLatencyAdderSim,
    VariableLatencyTiming,
    average_cycle,
    fixed_adder_sim,
)


@pytest.fixture
def timing():
    return VariableLatencyTiming(t_spec=0.40, t_detect=0.38, t_recover=0.70)


class TestTiming:
    def test_clock_covers_longer_of_spec_and_detect(self, timing):
        assert timing.t_clk == pytest.approx(1.05 * 0.40)
        slow_detect = VariableLatencyTiming(0.40, 0.50, 0.70)
        assert slow_detect.t_clk == pytest.approx(1.05 * 0.50)

    def test_recovery_two_cycles(self, timing):
        assert timing.recovery_cycles == 2
        assert timing.recovery_fits_two_cycles

    def test_slow_recovery_detected(self):
        t = VariableLatencyTiming(0.40, 0.38, 1.0)
        assert not t.recovery_fits_two_cycles
        assert t.recovery_cycles == 3

    def test_fast_recovery_single_cycle(self):
        t = VariableLatencyTiming(0.40, 0.38, 0.30)
        assert t.recovery_cycles == 1


class TestAverageCycle:
    def test_eq_5_2(self, timing):
        """T_ave = (1 + P_err) * T_clk for two-cycle recovery."""
        p = 0.0025
        assert average_cycle(timing, p) == pytest.approx((1 + p) * timing.t_clk)

    def test_zero_error_is_pure_clock(self, timing):
        assert average_cycle(timing, 0.0) == pytest.approx(timing.t_clk)

    def test_invalid_rate_rejected(self, timing):
        with pytest.raises(ValueError):
            average_cycle(timing, -0.1)
        with pytest.raises(ValueError):
            average_cycle(timing, 1.5)

    def test_tiny_error_keeps_average_near_speculative(self, timing):
        """Thesis Ch. 5.3: with P_err ~ 0.01%, T_ave ~ T_clk."""
        assert average_cycle(timing, 1e-4) == pytest.approx(timing.t_clk, rel=1e-3)


class TestSimulator:
    def test_run_counts_stalls(self, timing):
        sim = VariableLatencyAdderSim(timing)
        flags = np.array([0, 1, 0, 0, 1, 0, 0, 0], dtype=bool)
        result = sim.run(flags)
        assert result.operations == 8
        assert result.stalls == 2
        assert result.total_cycles == 10
        assert result.stall_rate == pytest.approx(0.25)
        assert result.cycles_per_add == pytest.approx(1.25)

    def test_run_matches_eq_5_2_statistically(self, timing):
        gen = np.random.default_rng(1)
        p = 0.02
        flags = gen.random(200_000) < p
        result = VariableLatencyAdderSim(timing).run(flags)
        predicted = average_cycle(timing, p)
        assert result.average_latency == pytest.approx(predicted, rel=0.02)

    def test_run_predicted(self, timing):
        result = VariableLatencyAdderSim(timing).run_predicted(0.1, 1000)
        assert result.stalls == 100
        assert result.total_cycles == 1100

    def test_speedup_over_fixed_adder(self, timing):
        sim = VariableLatencyAdderSim(timing)
        result = sim.run(np.zeros(100, dtype=bool))
        # equal clock -> speedup 1; slower fixed adder -> speedup > 1
        assert result.speedup_over(timing.t_clk) == pytest.approx(1.0)
        assert result.speedup_over(2 * timing.t_clk) == pytest.approx(2.0)

    def test_empty_stream(self, timing):
        result = VariableLatencyAdderSim(timing).run(np.zeros(0, dtype=bool))
        assert result.operations == 0
        assert result.stall_rate == 0.0
        with pytest.raises(ZeroDivisionError):
            result.speedup_over(1.0)

    def test_fixed_adder_sim(self):
        result = fixed_adder_sim(0.5, 100)
        assert isinstance(result, SimResult)
        assert result.average_latency == pytest.approx(0.5)
        assert result.stalls == 0


class TestEndToEndWithMeasurements:
    def test_vlcsa1_average_beats_kogge_stone_on_uniform_stream(self):
        """The thesis' bottom line, at (n=256, k=16): the variable-latency
        adder's average latency beats the fixed Kogge-Stone's."""
        from repro.engine.elab import measure_design
        from repro.inputs.generators import uniform_operands
        from repro.model.behavioral import err0_flags, window_profile

        n, k = 256, 16
        m = measure_design("vlcsa1", n, k)
        timing = VariableLatencyTiming(m.t_spec, m.t_detect, m.t_recover)
        gen = np.random.default_rng(4)
        a = uniform_operands(n, 100_000, gen)
        b = uniform_operands(n, 100_000, gen)
        flags = err0_flags(window_profile(a, b, n, k))
        result = VariableLatencyAdderSim(timing).run(flags)
        ks = measure_design("kogge_stone", n)
        assert result.speedup_over(ks.delay) > 1.0
