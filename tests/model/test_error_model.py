"""Tests for the analytical error models (thesis Eq. 3.13 and refinements)."""

import math

import pytest

from repro.model.error_model import (
    expected_long_chain_fraction,
    scsa_error_rate,
    scsa_error_rate_exact,
    union_bound_terms,
    vlsa_error_rate_exact,
    vlsa_error_rate_union,
)


class TestEq313:
    def test_closed_form_matches_thesis_formula(self):
        # P_err = (m-1) * 2^-(k+1) * (1 - 2^-k), m = ceil(n/k)
        n, k = 256, 16
        m = math.ceil(n / k)
        expected = (m - 1) * 2 ** -(k + 1) * (1 - 2 ** -k)
        assert scsa_error_rate(n, k) == pytest.approx(expected)

    def test_thesis_example_n256_k16_is_about_0_01_percent(self):
        """Thesis section 3.2: 'if n = 256, k = 16, P_err ~ 0.01%'."""
        assert scsa_error_rate(256, 16) == pytest.approx(1.14e-4, rel=0.01)

    def test_single_window_has_zero_error(self):
        assert scsa_error_rate(16, 16) == 0.0
        assert scsa_error_rate(16, 32) == 0.0

    def test_error_rate_decreases_with_window_size(self):
        rates = [scsa_error_rate(256, k) for k in range(4, 20)]
        assert rates == sorted(rates, reverse=True)

    def test_error_rate_increases_with_width(self):
        rates = [scsa_error_rate(n, 12) for n in (64, 128, 256, 512)]
        assert rates == sorted(rates)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            scsa_error_rate(0, 4)
        with pytest.raises(ValueError):
            scsa_error_rate(16, 0)

    def test_union_terms_sum_close_to_closed_form(self):
        n, k = 128, 10
        # The diagnostic per-pair terms use the true (remainder-aware)
        # window sizes; their sum approximates Eq. 3.13.
        assert sum(union_bound_terms(n, k)) == pytest.approx(
            scsa_error_rate(n, k), rel=0.35
        )


class TestExactModel:
    @pytest.mark.parametrize("n,k", [(64, 8), (64, 14), (128, 10), (256, 16), (512, 17)])
    def test_exact_at_most_union_bound(self, n, k):
        assert scsa_error_rate_exact(n, k) <= scsa_error_rate(n, k) * 1.001

    @pytest.mark.parametrize("n,k", [(64, 8), (128, 10)])
    def test_exact_close_to_union_bound_at_operating_points(self, n, k):
        exact = scsa_error_rate_exact(n, k)
        approx = scsa_error_rate(n, k)
        assert exact == pytest.approx(approx, rel=0.1)

    def test_exact_matches_monte_carlo(self):
        from repro.model.behavioral import monte_carlo_scsa_error_rate

        n, k = 64, 6
        exact = scsa_error_rate_exact(n, k)
        mc = monte_carlo_scsa_error_rate(n, k, 300_000)
        assert mc == pytest.approx(exact, rel=0.05)

    def test_exact_single_window_zero(self):
        assert scsa_error_rate_exact(16, 16) == 0.0

    def test_exact_brute_force_tiny(self):
        """Exhaustive enumeration against the Markov DP on both window
        plans (n=7, k=3 puts the 1-bit remainder at either end)."""
        from repro.core.window import plan_windows

        for n, k in ((6, 2), (7, 3)):
            for remainder in ("lsb", "msb"):
                plan = plan_windows(n, k, remainder)
                errors = 0
                for a in range(1 << n):
                    for b in range(1 << n):
                        wrong = False
                        true_carry = 0
                        for lo, hi in plan.bounds:
                            size = hi - lo
                            mask = (1 << size) - 1
                            aw = (a >> lo) & mask
                            bw = (b >> lo) & mask
                            g = (aw + bw) >> size
                            true_out = (aw + bw + true_carry) >> size
                            if true_out != g:
                                wrong = True
                            true_carry = true_out
                        errors += wrong
                brute = errors / (1 << (2 * n))
                assert scsa_error_rate_exact(n, k, remainder) == pytest.approx(
                    brute, abs=1e-12
                ), (n, k, remainder)
        assert scsa_error_rate_exact(7, 3, "lsb") != scsa_error_rate_exact(7, 3, "msb")


class TestVlsaModels:
    def test_union_bound_formula(self):
        n, l = 64, 10
        assert vlsa_error_rate_union(n, l) == pytest.approx((n - l) * 0.25 * 2 ** -l)

    @pytest.mark.parametrize("n,l", [(64, 8), (64, 17), (128, 18), (256, 19)])
    def test_exact_at_most_union(self, n, l):
        assert vlsa_error_rate_exact(n, l) <= vlsa_error_rate_union(n, l) * 1.001

    def test_exact_zero_when_chain_covers_width(self):
        assert vlsa_error_rate_exact(16, 16) == 0.0
        assert vlsa_error_rate_exact(16, 20) == 0.0

    def test_exact_matches_monte_carlo(self):
        import numpy as np

        from repro.inputs.generators import uniform_operands
        from repro.model.behavioral import vlsa_error_flags

        n, l = 64, 7
        gen = np.random.default_rng(3)
        a = uniform_operands(n, 400_000, gen)
        b = uniform_operands(n, 400_000, gen)
        mc = float(vlsa_error_flags(a, b, n, l).mean())
        assert mc == pytest.approx(vlsa_error_rate_exact(n, l), rel=0.05)

    def test_exact_brute_force_tiny(self):
        n, l = 8, 3
        errors = 0
        for a in range(1 << n):
            for b in range(1 << n):
                p = a ^ b
                g = a & b
                wrong = False
                for j in range(0, n - l):
                    if (g >> j) & 1 and all((p >> (j + t)) & 1 for t in range(1, l + 1)):
                        wrong = True
                        break
                errors += wrong
        brute = errors / (1 << (2 * n))
        assert vlsa_error_rate_exact(n, l) == pytest.approx(brute, abs=1e-12)

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            vlsa_error_rate_exact(64, 0)
        with pytest.raises(ValueError):
            vlsa_error_rate_union(64, 0)


def test_scsa_needs_smaller_window_than_vlsa_chain():
    """Thesis Table 7.3's point: for 0.01%, SCSA's k < VLSA's l at every
    width — speculation on windows is cheaper than per-bit speculation."""
    from repro.analysis.sizing import scsa_window_size_for, vlsa_chain_length_for

    for n in (64, 128, 256, 512):
        k = scsa_window_size_for(n, 1e-4)
        l = vlsa_chain_length_for(n, 1e-4)
        assert k < l


def test_long_chain_fraction_alias():
    assert expected_long_chain_fraction(64, 10) == vlsa_error_rate_exact(64, 10)
