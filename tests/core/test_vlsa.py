"""Tests for the VLSA baseline (thesis ref [17], Ch. 7.4)."""


import pytest

from repro.core import build_vlsa, build_vlsa_speculative
from repro.core.vlsa import speculative_levels
from repro.netlist.simulate import simulate, simulate_batch
from repro.netlist.validate import check_circuit

from tests.conftest import random_pairs


class TestSpeculativeAdder:
    def test_speculation_exact_when_chains_short(self):
        c = build_vlsa_speculative(16, 16)  # l >= n: full lookahead
        for a, b in random_pairs(16, 150, seed=1):
            assert simulate(c, {"a": a, "b": b})["sum"] == a + b

    def test_speculation_wrong_on_long_chain(self):
        c = build_vlsa_speculative(32, 4)  # l_eff = 4
        # generate at bit 0 followed by a 20-propagate run
        a, b = 0x001FFFFF, 0x00000001
        got = simulate(c, {"a": a, "b": b})["sum"]
        assert got != a + b

    def test_matches_behavioral_error_model(self):
        from repro.model.behavioral import pack_ints, vlsa_error_flags

        width, l = 28, 8
        c = build_vlsa_speculative(width, l)
        l_eff = 1 << speculative_levels(l)
        pairs = random_pairs(width, 600, seed=3)
        av = [a for a, _ in pairs]
        bv = [b for _, b in pairs]
        out = simulate_batch(c, {"a": av, "b": bv})["sum"]
        flags = vlsa_error_flags(pack_ints(av, width), pack_ints(bv, width), width, l_eff)
        for i, (a, b) in enumerate(pairs):
            assert (out[i] != a + b) == bool(flags[i]), (a, b)

    @pytest.mark.parametrize("l,levels", [(1, 1), (2, 1), (3, 2), (4, 2), (17, 5), (21, 5)])
    def test_speculative_levels(self, l, levels):
        assert speculative_levels(l) == levels

    def test_invalid_chain_length_rejected(self):
        with pytest.raises(ValueError):
            speculative_levels(0)


class TestFullVlsa:
    @pytest.fixture(scope="class")
    def vlsa_28_8(self):
        c = build_vlsa(28, 8)
        check_circuit(c)
        return c

    def test_recovery_always_exact(self, vlsa_28_8):
        pairs = random_pairs(28, 400, seed=5)
        out = simulate_batch(
            vlsa_28_8, {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
        )
        for (a, b), rec in zip(pairs, out["sum_rec"]):
            assert rec == a + b

    def test_unflagged_speculation_is_exact(self, vlsa_28_8):
        pairs = random_pairs(28, 600, seed=6)
        out = simulate_batch(
            vlsa_28_8, {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
        )
        for (a, b), s, err in zip(pairs, out["sum"], out["err"]):
            if not err:
                assert s == a + b, (a, b)

    def test_detection_overestimates(self, vlsa_28_8):
        """The all-propagate-run detector flags runs even when the carry
        entering them is 0 (false positives exist by design)."""
        # a ^ b has a long propagate run but no generate below it.
        a, b = 0x0FFFF00, 0x0000000
        out = simulate(vlsa_28_8, {"a": a, "b": b})
        assert out["sum"] == a + b  # actually correct
        assert out["err"] == 1  # but conservatively flagged

    def test_detection_catches_true_error(self, vlsa_28_8):
        a, b = 0x00FFFFF, 0x0000001
        out = simulate(vlsa_28_8, {"a": a, "b": b})
        assert out["err"] == 1
        assert out["sum"] != a + b
        assert out["sum_rec"] == a + b


class TestVlsaVersusVlcsa:
    """The thesis' comparative claims (Ch. 7.4), at the Table 7.3 points."""

    def test_vlsa_detection_slower_than_its_speculation(self):
        from repro.engine.elab import measure_design

        m = measure_design("vlsa", 256, 20)
        assert m.t_detect >= 0.95 * m.t_spec  # detection dominates or ties

    def test_vlcsa1_single_cycle_faster_than_vlsa(self):
        from repro.engine.elab import measure_design
        from repro.analysis.sizing import THESIS_TABLE_7_3

        for n in (64, 256, 512):
            k, l = THESIS_TABLE_7_3[n]
            assert measure_design("vlcsa1", n, k).delay < measure_design("vlsa", n, l).delay

    def test_vlcsa1_smaller_than_vlsa(self):
        from repro.engine.elab import measure_design
        from repro.analysis.sizing import THESIS_TABLE_7_3

        for n in (64, 256, 512):
            k, l = THESIS_TABLE_7_3[n]
            assert measure_design("vlcsa1", n, k).area < measure_design("vlsa", n, l).area

    def test_vlsa_bigger_than_kogge_stone(self):
        """Thesis Fig. 7.5: VLSA area is 14-32% above Kogge-Stone."""
        from repro.engine.elab import measure_design
        from repro.analysis.sizing import THESIS_TABLE_7_3

        for n in (64, 256):
            _, l = THESIS_TABLE_7_3[n]
            assert measure_design("vlsa", n, l).area > measure_design("kogge_stone", n).area
