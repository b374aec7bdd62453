"""End-to-end tests for VLCSA 1 (thesis Ch. 5)."""

import pytest

from repro.core import build_vlcsa1
from repro.netlist.simulate import simulate, simulate_batch
from repro.netlist.validate import check_circuit

from tests.conftest import random_pairs


@pytest.fixture(scope="module")
def vlcsa_24_6():
    c = build_vlcsa1(24, 6)
    check_circuit(c)
    return c


class TestReliability:
    """The defining property: the adder as a whole never returns a wrong
    answer — the speculative result is only presented when ERR is clear,
    and recovery is exact."""

    def test_recovery_always_exact(self, vlcsa_24_6):
        pairs = random_pairs(24, 500, seed=1)
        out = simulate_batch(
            vlcsa_24_6,
            {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]},
        )
        for (a, b), rec in zip(pairs, out["sum_rec"]):
            assert rec == a + b

    def test_valid_speculation_is_exact(self, vlcsa_24_6):
        pairs = random_pairs(24, 500, seed=2)
        out = simulate_batch(
            vlcsa_24_6,
            {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]},
        )
        for (a, b), s, err in zip(pairs, out["sum"], out["err"]):
            if not err:
                assert s == a + b, (a, b)

    def test_every_actual_error_is_flagged(self, vlcsa_24_6):
        pairs = random_pairs(24, 800, seed=3)
        out = simulate_batch(
            vlcsa_24_6,
            {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]},
        )
        wrongs = flagged = 0
        for (a, b), s, err in zip(pairs, out["sum"], out["err"]):
            if s != a + b:
                wrongs += 1
                assert err == 1, (a, b)
            flagged += err
        assert wrongs > 0  # k=6 on 24 bits must mis-speculate in 800 tries
        # detection may overestimate but not wildly (small window sizes)
        assert flagged >= wrongs

    def test_valid_is_complement_of_err(self, vlcsa_24_6):
        for a, b in random_pairs(24, 100, seed=4):
            out = simulate(vlcsa_24_6, {"a": a, "b": b})
            assert out["valid"] == 1 - out["err"]


class TestKnownVectors:
    def test_clean_addition_no_stall(self, vlcsa_24_6):
        # No carries at all: every window truncation is vacuous.
        out = simulate(vlcsa_24_6, {"a": 0x555555, "b": 0x2A2A2A})
        assert out["err"] == 0
        assert out["sum"] == 0x555555 + 0x2A2A2A

    def test_cross_window_chain_stalls(self, vlcsa_24_6):
        # Generate at bit 0, propagate run across windows 1..2.
        out = simulate(vlcsa_24_6, {"a": 0x00FFFF, "b": 0x000001})
        assert out["err"] == 1
        assert out["sum_rec"] == 0x00FFFF + 1

    def test_direct_generate_into_next_window_is_fine(self, vlcsa_24_6):
        # A generate that only feeds the adjacent window is speculated
        # correctly (spec carry = group generate).
        out = simulate(vlcsa_24_6, {"a": 0x00003F, "b": 0x000001})
        assert out["err"] == 0
        assert out["sum"] == 0x40


class TestParameterSpace:
    @pytest.mark.parametrize("width,k", [(12, 3), (16, 4), (20, 5), (32, 8), (31, 7)])
    def test_reliable_across_geometries(self, width, k):
        c = build_vlcsa1(width, k)
        pairs = random_pairs(width, 200, seed=width)
        out = simulate_batch(
            c, {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
        )
        for (a, b), s, rec, err in zip(pairs, out["sum"], out["sum_rec"], out["err"]):
            assert rec == a + b
            if not err:
                assert s == a + b

    def test_alternative_recovery_network(self):
        c = build_vlcsa1(24, 6, recovery_network="brent_kung")
        for a, b in random_pairs(24, 150, seed=6):
            assert simulate(c, {"a": a, "b": b})["sum_rec"] == a + b


class TestTimingShape:
    def test_detection_not_much_slower_than_speculation(self):
        """Thesis Ch. 5.1: the detection path is comparable to the
        speculative path — the property VLSA lacks."""
        from repro.engine.elab import measure_design

        m = measure_design("vlcsa1", 64, 14)
        assert m.t_detect <= 1.15 * m.t_spec

    def test_recovery_fits_two_cycles(self):
        """Thesis Ch. 5.2: recovery completes within two clock cycles."""
        from repro.engine.elab import measure_design
        from repro.model.latency import VariableLatencyTiming

        for n, k in [(64, 14), (256, 16)]:
            m = measure_design("vlcsa1", n, k)
            t = VariableLatencyTiming(m.t_spec, m.t_detect, m.t_recover)
            assert t.recovery_fits_two_cycles
