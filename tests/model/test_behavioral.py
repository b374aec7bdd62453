"""Tests for the numpy behavioural models (repro.model.behavioral)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inputs.generators import (
    GAUSSIAN_HEADROOM,
    check_gaussian_sigma,
    gaussian_operands,
    uniform_operands,
)
from repro.model.behavioral import (
    add_packed,
    carry_into_bits,
    err0_flags,
    err0_terms,
    err1_flags,
    extract_field,
    mask_top,
    num_limbs,
    pack_ints,
    scsa1_error_flags,
    scsa2_s1_error_flags,
    shift_right_packed,
    unpack_ints,
    vlcsa2_error_flags,
    vlsa_error_flags,
    window_profile,
)

from repro.model.error_magnitude import scsa1_speculative_values

from tests.conftest import random_pairs
from tests.core.test_scsa import _reference_scsa


class TestPacking:
    @pytest.mark.parametrize("width", [1, 7, 63, 64, 65, 128, 200, 512])
    def test_pack_unpack_roundtrip(self, width):
        vals = [0, 1, (1 << width) - 1, (1 << width) // 3]
        assert unpack_ints(pack_ints(vals, width), width) == vals

    def test_num_limbs(self):
        assert num_limbs(1) == 1
        assert num_limbs(64) == 1
        assert num_limbs(65) == 2
        assert num_limbs(512) == 8

    def test_value_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            pack_ints([1 << 8], 8)
        with pytest.raises(ValueError, match="fit"):
            pack_ints([-1], 8)

    def test_mask_top_clears_high_bits(self):
        arr = np.full((2, 2), np.uint64(0xFFFFFFFFFFFFFFFF))
        mask_top(arr, 70)
        assert unpack_ints(arr, 70) == [(1 << 70) - 1] * 2


class TestArithmetic:
    @pytest.mark.parametrize("width", [8, 63, 64, 65, 130, 512])
    def test_add_packed_matches_python(self, width):
        pairs = random_pairs(width, 100, seed=width)
        a = pack_ints([x for x, _ in pairs], width)
        b = pack_ints([y for _, y in pairs], width)
        s, cout = add_packed(a, b, width)
        got = unpack_ints(s, width)
        for i, (x, y) in enumerate(pairs):
            total = x + y
            assert got[i] == total % (1 << width)
            assert bool(cout[i]) == (total >> width == 1)

    @pytest.mark.parametrize("width", [16, 64, 100])
    def test_carry_into_bits_identity(self, width):
        pairs = random_pairs(width, 60, seed=width)
        a = pack_ints([x for x, _ in pairs], width)
        b = pack_ints([y for _, y in pairs], width)
        c_mask, cout = carry_into_bits(a, b, width)
        masks = unpack_ints(c_mask, width)
        for i, (x, y) in enumerate(pairs):
            for t in range(width):
                low = (1 << t) - 1
                carry_in = ((x & low) + (y & low)) >> t
                assert (masks[i] >> t) & 1 == carry_in, (x, y, t)
            assert bool(cout[i]) == ((x + y) >> width == 1)

    @pytest.mark.parametrize("lo,size", [(0, 8), (5, 10), (60, 8), (120, 7), (63, 1)])
    def test_extract_field(self, lo, size):
        width = 130
        vals = [v for v, _ in random_pairs(width, 40)]
        arr = pack_ints(vals, width)
        got = extract_field(arr, lo, size)
        for i, v in enumerate(vals):
            assert int(got[i]) == (v >> lo) & ((1 << size) - 1)

    def test_extract_field_size_limits(self):
        arr = pack_ints([0], 64)
        with pytest.raises(ValueError):
            extract_field(arr, 0, 0)
        with pytest.raises(ValueError):
            extract_field(arr, 0, 64)

    @pytest.mark.parametrize("shift", [0, 1, 63, 64, 65, 127, 130, 600])
    def test_shift_right_packed(self, shift):
        width = 192
        vals = [v for v, _ in random_pairs(width, 30)]
        arr = pack_ints(vals, width)
        got = unpack_ints(shift_right_packed(arr, shift), width)
        for i, v in enumerate(vals):
            assert got[i] == v >> shift

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            shift_right_packed(pack_ints([1], 64), -1)


class TestWindowProfile:
    def _profile_reference(self, x, y, width, k, remainder):
        from repro.core.window import plan_windows

        plan = plan_windows(width, k, remainder)
        rows = []
        carry = 0
        for lo, hi in plan.bounds:
            size = hi - lo
            mask = (1 << size) - 1
            aw = (x >> lo) & mask
            bw = (y >> lo) & mask
            g = (aw + bw) >> size
            p = 1 if (aw ^ bw) == mask else 0
            cin = carry
            carry = (aw + bw + carry) >> size
            rows.append((g, p, cin, carry))
        return rows

    @pytest.mark.parametrize("width,k,rem", [
        (24, 5, "lsb"), (24, 5, "msb"), (64, 14, "lsb"), (100, 13, "msb"),
        (128, 16, "lsb"),
    ])
    def test_profile_matches_reference(self, width, k, rem):
        pairs = random_pairs(width, 80, seed=k)
        a = pack_ints([x for x, _ in pairs], width)
        b = pack_ints([y for _, y in pairs], width)
        prof = window_profile(a, b, width, k, rem)
        for i, (x, y) in enumerate(pairs):
            for w, (g, p, cin, cout) in enumerate(
                self._profile_reference(x, y, width, k, rem)
            ):
                assert prof.group_g[i, w] == bool(g), (x, y, w)
                assert prof.group_p[i, w] == bool(p), (x, y, w)
                assert prof.carry_in[i, w] == bool(cin), (x, y, w)
                assert prof.carry_out[i, w] == bool(cout), (x, y, w)


class TestFlagFunctions:
    def _profile(self, width=24, k=5, count=300, seed=2, rem="lsb"):
        pairs = random_pairs(width, count, seed=seed)
        a = pack_ints([x for x, _ in pairs], width)
        b = pack_ints([y for _, y in pairs], width)
        return pairs, window_profile(a, b, width, k, rem)

    def test_scsa1_flags_match_bruteforce(self):
        width, k = 24, 5
        pairs, prof = self._profile(width, k)
        flags = scsa1_error_flags(prof)
        for i, (x, y) in enumerate(pairs):
            from tests.core.test_scsa import _reference_scsa

            wrong = _reference_scsa(x, y, width, k) != x + y
            assert bool(flags[i]) == wrong, (x, y)

    def test_err0_iff_scsa1_error(self):
        _, prof = self._profile()
        np.testing.assert_array_equal(err0_flags(prof), scsa1_error_flags(prof))

    def test_vlcsa2_error_is_intersection(self):
        _, prof = self._profile(rem="msb")
        np.testing.assert_array_equal(
            vlcsa2_error_flags(prof),
            scsa1_error_flags(prof) & scsa2_s1_error_flags(prof),
        )

    def test_single_window_profiles_never_flag(self):
        pairs, prof = self._profile(width=10, k=16, count=50)
        assert not err0_flags(prof).any()
        assert not err1_flags(prof).any()
        assert not scsa1_error_flags(prof).any()

    def test_vlsa_flags_bruteforce(self):
        width, l = 30, 6
        pairs = random_pairs(width, 300, seed=4)
        a = pack_ints([x for x, _ in pairs], width)
        b = pack_ints([y for _, y in pairs], width)
        flags = vlsa_error_flags(a, b, width, l)
        for i, (x, y) in enumerate(pairs):
            p = x ^ y
            g = x & y
            wrong = any(
                (g >> j) & 1 and all((p >> (j + t)) & 1 for t in range(1, l + 1))
                for j in range(0, width - l)
            )
            assert bool(flags[i]) == wrong, (x, y)

    def test_vlsa_flags_width_le_chain_never_fire(self):
        a = pack_ints([1, 2, 3], 8)
        b = pack_ints([3, 2, 1], 8)
        assert not vlsa_error_flags(a, b, 8, 8).any()
        assert not vlsa_error_flags(a, b, 8, 12).any()

    def test_vlsa_multi_limb_boundary_chain(self):
        """A chain straddling the 64-bit limb boundary is detected."""
        width, l = 80, 8
        # generate at bit 58, propagates through bits 59..70
        a = pack_ints([(((1 << 12) - 1) << 59) | (1 << 58)], width)
        b = pack_ints([1 << 58], width)
        assert vlsa_error_flags(a, b, width, l)[0]


_DISTRIBUTIONS = ("uniform", "gaussian", "gaussian-unsigned")


@settings(max_examples=150, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=300),
    data=st.data(),
    distribution=st.sampled_from(_DISTRIBUTIONS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_err0_is_exact_detection(width, data, distribution, seed):
    """ERR0 fires exactly when SCSA 1 mis-speculates, sample by sample,
    under both window plans.  Read off window_profile alone (no SWAR
    kernel), so it independently checks why the kernel has no ERR0 term."""
    window = data.draw(st.integers(min_value=1, max_value=min(63, width)), label="window")
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        a, b = (uniform_operands(width, 512, rng) for _ in range(2))
    else:
        # Any sigma the headroom rule admits at this width, up to the 2^50
        # that gaussian_ints draws without clipping.
        top = min(width - 1 - math.log2(GAUSSIAN_HEADROOM), 50.0)
        log_sigma = data.draw(st.floats(min_value=min(0.0, top), max_value=top), label="log2 sigma")
        sigma = 2.0**log_sigma
        check_gaussian_sigma(width, sigma)
        signed = distribution == "gaussian"
        a, b = (
            gaussian_operands(width, 512, sigma=sigma, signed=signed, rng=rng)
            for _ in range(2)
        )
    for remainder in ("lsb", "msb"):
        profile = window_profile(a, b, width, window, remainder)
        np.testing.assert_array_equal(err0_flags(profile), scsa1_error_flags(profile))


@settings(max_examples=120, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=300),
    data=st.data(),
    remainder=st.sampled_from(("lsb", "msb")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_err0_terms_are_the_scsa1_error_value(width, data, remainder, seed):
    """The lemma of ``err0_terms``: exact - SCSA 1 = sum of the set columns'
    weights, against ``_reference_scsa`` at every width and
    ``scsa1_speculative_values`` within one limb, on both window plans.
    Half the pairs are ``b = ~a`` with sparse bit flips, so long
    all-propagate runs (and multi-term errors) occur at any window."""
    window = data.draw(st.integers(min_value=1, max_value=min(63, width)), label="window")
    gen = random.Random(seed)
    top = (1 << width) - 1
    xs = [gen.getrandbits(width) for _ in range(48)]
    ys = [gen.getrandbits(width) for _ in range(24)]
    for x in xs[24:]:
        flips = 0
        for _ in range(gen.randrange(4)):
            flips |= 1 << gen.randrange(width)
        ys.append((top ^ x) ^ flips)
    profile = window_profile(pack_ints(xs, width), pack_ints(ys, width), width, window,
                             remainder)
    columns, weights = err0_terms(profile)
    assert columns.shape == (48, len(weights))
    spec = [
        x + y - sum(w for w, hit in zip(weights, row) if hit)
        for x, y, row in zip(xs, ys, columns)
    ]
    assert spec == [_reference_scsa(x, y, width, window, remainder) for x, y in zip(xs, ys)]
    if width <= 63:
        values = scsa1_speculative_values(pack_ints(xs, width), pack_ints(ys, width), width,
                                          window, remainder)
        assert spec == [int(v) for v in values]


@settings(max_examples=50, deadline=None)
@given(
    xs=st.lists(st.integers(min_value=0, max_value=(1 << 90) - 1), min_size=1, max_size=20),
    ys=st.lists(st.integers(min_value=0, max_value=(1 << 90) - 1), min_size=1, max_size=20),
)
def test_add_packed_hypothesis_multilimb(xs, ys):
    n = min(len(xs), len(ys))
    width = 90
    a = pack_ints(xs[:n], width)
    b = pack_ints(ys[:n], width)
    s, cout = add_packed(a, b, width)
    got = unpack_ints(s, width)
    for i in range(n):
        total = xs[i] + ys[i]
        assert got[i] == total % (1 << width)
        assert bool(cout[i]) == (total >> width > 0)
