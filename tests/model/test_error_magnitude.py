"""Tests for error-magnitude analysis (repro.model.error_magnitude)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.engine import MonteCarloErrorJob, run_job
from repro.inputs.generators import uniform_operands
from repro.model.behavioral import pack_ints, unpack_ints
from repro.model.error_magnitude import (
    relative_error_stats,
    scsa1_abs_error_moments,
    scsa1_magnitude_stats,
    scsa1_speculative_values,
    vlsa_magnitude_stats,
    vlsa_speculative_values,
)

from tests.conftest import random_pairs


class TestSpeculativeValues:
    @pytest.mark.parametrize("width,k", [(16, 4), (24, 5), (32, 8)])
    def test_scsa_values_match_reference(self, width, k):
        from tests.core.test_scsa import _reference_scsa

        pairs = random_pairs(width, 200, seed=k)
        a = pack_ints([x for x, _ in pairs], width)
        b = pack_ints([y for _, y in pairs], width)
        got = scsa1_speculative_values(a, b, width, k)
        for i, (x, y) in enumerate(pairs):
            assert int(got[i]) == _reference_scsa(x, y, width, k), (x, y)

    @pytest.mark.parametrize("width,l", [(16, 4), (24, 6)])
    def test_vlsa_values_match_bruteforce(self, width, l):
        pairs = random_pairs(width, 200, seed=l)
        a = pack_ints([x for x, _ in pairs], width)
        b = pack_ints([y for _, y in pairs], width)
        got = vlsa_speculative_values(a, b, width, l)
        for i, (x, y) in enumerate(pairs):
            want = 0
            p = x ^ y
            for bit in range(width + 1):
                lo = max(0, bit - l)
                mask = (1 << (bit - lo)) - 1
                carry = (((x >> lo) & mask) + ((y >> lo) & mask)) >> (bit - lo)
                if bit < width:
                    want |= (((p >> bit) & 1) ^ carry) << bit
                else:
                    want |= carry << width
            assert int(got[i]) == want, (x, y)

    def test_vlsa_full_lookahead_is_exact(self):
        width = 20
        pairs = random_pairs(width, 100)
        a = pack_ints([x for x, _ in pairs], width)
        b = pack_ints([y for _, y in pairs], width)
        got = vlsa_speculative_values(a, b, width, width)
        for i, (x, y) in enumerate(pairs):
            assert int(got[i]) == x + y

    def test_width_limit_enforced(self):
        a = pack_ints([0], 64)
        with pytest.raises(ValueError, match="63"):
            scsa1_speculative_values(a, a, 64, 8)
        with pytest.raises(ValueError, match="63"):
            vlsa_speculative_values(a, a, 64, 8)


class TestMagnitudeStructure:
    def test_scsa_errors_are_always_underestimates(self, rng):
        """SCSA truncation drops carries, never adds them (§3.3)."""
        width, k = 32, 5
        a = uniform_operands(width, 50_000, rng)
        b = uniform_operands(width, 50_000, rng)
        spec = scsa1_speculative_values(a, b, width, k)
        true = a[:, 0].astype(np.float64) + b[:, 0].astype(np.float64)
        assert np.all(spec.astype(np.float64) <= true)

    def test_scsa_error_is_a_sum_of_dropped_boundary_carries(self, rng):
        """Each error equals a sum of 2^boundary terms (§3.3's structure)."""
        from repro.core.window import plan_windows

        width, k = 30, 5
        plan = plan_windows(width, k)
        boundaries = {hi for _, hi in plan.bounds}
        a = uniform_operands(width, 30_000, rng)
        b = uniform_operands(width, 30_000, rng)
        spec = scsa1_speculative_values(a, b, width, k)
        av = unpack_ints(a, width)
        bv = unpack_ints(b, width)
        for i in range(len(av)):
            diff = av[i] + bv[i] - int(spec[i])
            while diff:
                low = diff & -diff
                assert low.bit_length() - 1 in boundaries, (av[i], bv[i])
                diff ^= low

    def test_stats_fields_consistent(self, rng):
        width, k = 32, 5
        a = uniform_operands(width, 40_000, rng)
        b = uniform_operands(width, 40_000, rng)
        stats = scsa1_magnitude_stats(a, b, width, k)
        assert stats.samples == 40_000
        assert 0 < stats.errors < stats.samples
        assert 0 < stats.median_relative <= stats.max_relative <= 1.0
        assert stats.error_rate == pytest.approx(stats.errors / stats.samples)

    def test_no_errors_case(self):
        a = pack_ints([1, 2, 3], 16)
        b = pack_ints([4, 5, 6], 16)
        stats = scsa1_magnitude_stats(a, b, 16, 16)  # single window: exact
        assert stats.errors == 0
        assert stats.mean_relative == 0.0

    def test_typical_error_magnitude_is_small(self, rng):
        """§3.3's quantitative content: the *median* erroneous result is
        off by well under 1% when operands use the full width."""
        width, k = 48, 8
        a = uniform_operands(width, 200_000, rng)
        b = uniform_operands(width, 200_000, rng)
        stats = scsa1_magnitude_stats(a, b, width, k)
        assert stats.errors > 20
        assert stats.median_relative < 0.01

    def test_relative_error_stats_on_known_values(self):
        width = 16
        a = pack_ints([100, 200], width)
        b = pack_ints([50, 56], width)
        spec = pack_ints([150, 128], width)  # second value wrong by 128
        stats = relative_error_stats(spec, a, b, width)
        assert stats.errors == 1
        assert stats.max_relative == pytest.approx(128 / 256)


class TestScsaVsVlsaComparison:
    def test_both_schemes_measured_on_same_stream(self, rng):
        width = 48
        a = uniform_operands(width, 100_000, rng)
        b = uniform_operands(width, 100_000, rng)
        scsa = scsa1_magnitude_stats(a, b, width, 8)
        vlsa = vlsa_magnitude_stats(a, b, width, 8)
        # both schemes err on this stream; both keep median impact small
        assert scsa.errors > 0 and vlsa.errors > 0
        assert scsa.median_relative < 0.05
        assert vlsa.median_relative < 0.05


class TestExactMoments:
    @pytest.mark.parametrize("width, k", [(8, 3), (7, 2), (6, 6)])
    def test_exhaustive_mean_and_variance(self, width, k):
        """Over every operand pair the moments are the formula's exactly."""
        values = np.arange(1 << width, dtype=np.uint64)
        a = np.repeat(values, 1 << width)[:, None]
        b = np.tile(values, 1 << width)[:, None]
        errors = (a[:, 0] + b[:, 0] - scsa1_speculative_values(a, b, width, k)).astype(object)
        pairs = 1 << (2 * width)
        mean = Fraction(int(errors.sum()), pairs)
        variance = Fraction(int((errors * errors).sum()), pairs) - mean * mean
        assert scsa1_abs_error_moments(width, k) == (mean, variance)

    def test_single_window_has_no_error(self):
        assert scsa1_abs_error_moments(16, 16) == (0, 0)

    def test_exact_past_the_float_range(self):
        mean, variance = scsa1_abs_error_moments(1100, 8)
        assert isinstance(mean, Fraction) and mean > 1 << 1000
        assert variance > 0

    @pytest.mark.parametrize("width, k", [(64, 8), (128, 10), (256, 12)])
    def test_engine_mean_within_six_sigma(self, width, k):
        """The engine's ``"magnitude"`` counter against the exact mean:
        |z| <= 6, decided in exact arithmetic (z^2 <= 36)."""
        samples = 1_000_000
        job = MonteCarloErrorJob(width=width, window=k, samples=samples, seed=2012,
                                 counters=("magnitude",))
        total = run_job(job).aggregate.sum_abs_error
        mean, variance = scsa1_abs_error_moments(width, k)
        deviation = total - samples * mean
        assert deviation * deviation <= 36 * samples * variance
